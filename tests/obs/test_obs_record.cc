/**
 * @file
 * Record-layer tests for the observability payloads: the schema of
 * timeseries/heatmap rows, the conditional manifest members that keep
 * disabled runs byte-identical, a serial-vs-parallel determinism pin,
 * byte identity of the text epoch encoder with a DOM reference, and a
 * golden-file regression on the full timeseries bytes.
 *
 * Regenerating the golden file after an intentional numeric or schema
 * change:
 *
 *   SPECFETCH_REGEN_GOLDEN=1 ./build/tests/test_obs \
 *       --gtest_filter='GoldenTimeseries.*'
 */

#include "obs/obs_record.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "workload/registry.hh"
#include "golden_lines.hh"

using namespace specfetch;

namespace {

/** Golden parameters: bound to tests/golden/timeseries_li.json. */
constexpr uint64_t kGoldenBudget = 100'000;
constexpr uint64_t kGoldenInterval = 20'000;

const std::vector<FetchPolicy> &
goldenPolicies()
{
    static const std::vector<FetchPolicy> policies{
        FetchPolicy::Oracle, FetchPolicy::Optimistic};
    return policies;
}

std::string
goldenPath()
{
#ifdef SPECFETCH_GOLDEN_DIR
    return std::string(SPECFETCH_GOLDEN_DIR) + "/timeseries_li.json";
#else
    return "tests/golden/timeseries_li.json";
#endif
}

bool
regenRequested()
{
    const char *env = std::getenv("SPECFETCH_REGEN_GOLDEN");
    return env && *env && std::string(env) != "0";
}

std::vector<RunSpec>
goldenSpecs()
{
    std::vector<RunSpec> specs;
    for (FetchPolicy policy : goldenPolicies()) {
        SimConfig config;
        config.instructionBudget = kGoldenBudget;
        config.sampleInterval = kGoldenInterval;
        config.setHeatmap = true;
        config.policy = policy;
        specs.push_back(RunSpec{"li", config});
    }
    return specs;
}

/** One timeseries record per golden spec, at @p parallelism. */
std::vector<JsonValue>
goldenRecords(unsigned parallelism)
{
    std::vector<RunSpec> specs = goldenSpecs();
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(specs, parallelism, nullptr, &observations);
    std::vector<JsonValue> records;
    for (size_t i = 0; i < specs.size(); ++i) {
        records.push_back(makeTimeseriesRecord(observations[i],
                                               results[i],
                                               specs[i].config));
    }
    return records;
}

/**
 * The epoch row as the report layer's DOM would build it: the
 * reference the text encoder in toJson(EpochRecord) must match byte
 * for byte.
 */
JsonValue
referenceEpochJson(const EpochRecord &epoch)
{
    JsonValue penalty = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds()) {
        penalty.set(toString(kind),
                    JsonValue::integer(
                        epoch.penaltySlots[static_cast<size_t>(kind)]));
    }

    JsonValue components = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        components.set(toString(kind), JsonValue::number(epoch.ispiOf(kind)));

    JsonValue derived = JsonValue::object();
    derived.set("ispi", JsonValue::number(epoch.ispi()))
        .set("ispi_components", std::move(components))
        .set("miss_rate_percent", JsonValue::number(epoch.missRatePercent()))
        .set("cond_accuracy", JsonValue::number(epoch.condAccuracy()))
        .set("bus_wait_fraction",
             JsonValue::number(epoch.busWaitFraction()));

    JsonValue out = JsonValue::object();
    out.set("epoch", JsonValue::integer(epoch.epoch))
        .set("first_instruction", JsonValue::integer(epoch.firstInstruction))
        .set("last_instruction", JsonValue::integer(epoch.lastInstruction))
        .set("slots", JsonValue::integer(epoch.slots))
        .set("penalty_slots", std::move(penalty))
        .set("control_insts", JsonValue::integer(epoch.controlInsts))
        .set("cond_branches", JsonValue::integer(epoch.condBranches))
        .set("misfetches", JsonValue::integer(epoch.misfetches))
        .set("dir_mispredicts", JsonValue::integer(epoch.dirMispredicts))
        .set("target_mispredicts",
             JsonValue::integer(epoch.targetMispredicts))
        .set("demand_accesses", JsonValue::integer(epoch.demandAccesses))
        .set("demand_misses", JsonValue::integer(epoch.demandMisses))
        .set("demand_fills", JsonValue::integer(epoch.demandFills))
        .set("buffer_hits", JsonValue::integer(epoch.bufferHits))
        .set("wrong_accesses", JsonValue::integer(epoch.wrongAccesses))
        .set("wrong_misses", JsonValue::integer(epoch.wrongMisses))
        .set("wrong_fills", JsonValue::integer(epoch.wrongFills))
        .set("prefetches_issued",
             JsonValue::integer(epoch.prefetchesIssued))
        .set("memory_transactions",
             JsonValue::integer(epoch.memoryTransactions()))
        .set("partial", JsonValue::boolean(epoch.partial))
        .set("derived", std::move(derived));
    return out;
}

/** Every counter of @p epoch, for filling them uniformly. */
std::vector<uint64_t *>
counters(EpochRecord &epoch)
{
    std::vector<uint64_t *> out{
        &epoch.epoch, &epoch.firstInstruction, &epoch.lastInstruction,
        &epoch.slots, &epoch.controlInsts, &epoch.condBranches,
        &epoch.misfetches, &epoch.dirMispredicts, &epoch.targetMispredicts,
        &epoch.demandAccesses, &epoch.demandMisses, &epoch.demandFills,
        &epoch.bufferHits, &epoch.wrongAccesses, &epoch.wrongMisses,
        &epoch.wrongFills, &epoch.prefetchesIssued};
    for (uint64_t &slots : epoch.penaltySlots)
        out.push_back(&slots);
    return out;
}

/** The encoder's row equals the reference, byte for byte, and is
 *  canonical (its parse dumps back to the same bytes). */
void
expectEncodedLikeReference(const EpochRecord &epoch, const std::string &what)
{
    JsonValue encoded = toJson(epoch);
    const std::string row = encoded.dump();
    EXPECT_EQ(encoded.kind(), JsonValue::Kind::Raw) << what;
    EXPECT_EQ(row, referenceEpochJson(epoch).dump()) << what;
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(row, parsed)) << what << ": " << row;
    EXPECT_EQ(parsed.dump(), row) << what;
    EXPECT_EQ(encoded, referenceEpochJson(epoch)) << what;
}

TEST(ObsRecord, EpochEncoderMatchesDomReferenceOnRandomRecords)
{
    std::mt19937_64 rng(20240611);
    for (int trial = 0; trial < 2000; ++trial) {
        EpochRecord epoch;
        // Mix magnitudes so ratios land on short, long and integral
        // doubles alike.
        const int bits = 1 + trial % 64;
        const uint64_t mask = bits == 64 ? UINT64_MAX
                                         : (uint64_t{1} << bits) - 1;
        for (uint64_t *counter : counters(epoch))
            *counter = rng() & mask;
        if (epoch.lastInstruction < epoch.firstInstruction)
            std::swap(epoch.firstInstruction, epoch.lastInstruction);
        epoch.partial = (rng() & 1) != 0;
        expectEncodedLikeReference(epoch,
                                   "random trial " + std::to_string(trial));
    }
}

TEST(ObsRecord, EpochEncoderMatchesDomReferenceOnEdgeCases)
{
    EpochRecord partial;
    partial.epoch = 4;
    partial.firstInstruction = 80'000;
    partial.lastInstruction = 93'217;
    partial.slots = 40'001;
    partial.penaltySlots[static_cast<size_t>(PenaltyKind::Branch)] = 1'234;
    partial.demandMisses = 77;
    partial.partial = true;
    expectEncodedLikeReference(partial, "partial epoch");

    // No instructions: every per-instruction ratio is 0.
    EpochRecord empty;
    empty.firstInstruction = empty.lastInstruction = 5'000;
    empty.slots = 12;
    empty.penaltySlots[static_cast<size_t>(PenaltyKind::Bus)] = 12;
    expectEncodedLikeReference(empty, "zero-instruction epoch");
    EXPECT_NE(toJson(empty).dump().find("\"ispi\":0.0,"), std::string::npos);

    // No conditional branches: accuracy is exactly 1.0.
    EpochRecord noBranches = partial;
    noBranches.partial = false;
    noBranches.condBranches = 0;
    noBranches.dirMispredicts = 0;
    expectEncodedLikeReference(noBranches, "condBranches == 0");
    EXPECT_NE(toJson(noBranches).dump().find("\"cond_accuracy\":1.0,"),
              std::string::npos);

    // Integral ratios need ".0" to re-parse as doubles.
    EpochRecord integral;
    integral.firstInstruction = 0;
    integral.lastInstruction = 1'000;
    integral.slots = 2'000;
    for (uint64_t &slots : integral.penaltySlots)
        slots = 3'000;
    integral.demandMisses = 1'000;
    integral.condBranches = 10;
    integral.dirMispredicts = 10;
    integral.penaltySlots[static_cast<size_t>(PenaltyKind::Bus)] = 2'000;
    expectEncodedLikeReference(integral, "integral doubles");
    EXPECT_NE(toJson(integral).dump().find("\"miss_rate_percent\":100.0,"),
              std::string::npos);

    // Counters near 2^64 print exactly, without passing through double.
    EpochRecord huge;
    for (uint64_t *counter : counters(huge))
        *counter = UINT64_MAX - 3;
    huge.firstInstruction = 0;
    huge.lastInstruction = UINT64_MAX;
    huge.demandFills = UINT64_MAX;
    expectEncodedLikeReference(huge, "counters near 2^64");
    EXPECT_NE(toJson(huge).dump().find("18446744073709551615"),
              std::string::npos);
}

TEST(ObsRecord, TimeseriesRecordShape)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    config.sampleInterval = 10'000;
    RunObservations obs;
    SimResults results =
        runSimulation(*sharedWorkload("li"), config, obs);

    JsonValue record = makeTimeseriesRecord(obs, results, config);
    EXPECT_EQ(record.find("schema_version")->asUint(),
              static_cast<uint64_t>(kReportSchemaVersion));
    EXPECT_EQ(record.find("record")->asString(), "timeseries");
    EXPECT_EQ(record.find("workload")->asString(), "li");
    EXPECT_EQ(record.find("sample_interval")->asUint(), 10'000u);
    const JsonValue *epochs = record.find("epochs");
    ASSERT_NE(epochs, nullptr);
    ASSERT_EQ(epochs->size(), obs.epochs.size());

    std::string dump = epochs->at(0).dump();
    for (const char *member :
         {"\"first_instruction\"", "\"penalty_slots\"", "\"derived\"",
          "\"ispi\"", "\"miss_rate_percent\"", "\"partial\""}) {
        EXPECT_NE(dump.find(member), std::string::npos)
            << "epoch JSON lacks " << member;
    }
}

TEST(ObsRecord, TimeseriesRecordRequiresEpochs)
{
    ScopedThrowOnError guard;
    RunObservations empty;
    SimResults results;
    SimConfig config;
    EXPECT_THROW(makeTimeseriesRecord(empty, results, config),
                 SimulationError);
}

TEST(ObsRecord, HeatmapRecordShape)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    config.policy = FetchPolicy::Optimistic;
    config.setHeatmap = true;
    RunObservations obs;
    SimResults results =
        runSimulation(*sharedWorkload("li"), config, obs);
    ASSERT_NE(obs.heatmap, nullptr);

    JsonValue record = makeHeatmapRecord(*obs.heatmap, results, config);
    EXPECT_EQ(record.find("record")->asString(), "heatmap");
    const JsonValue *heatmap = record.find("heatmap");
    ASSERT_NE(heatmap, nullptr);
    const JsonValue *geometry = heatmap->find("geometry");
    ASSERT_NE(geometry, nullptr);
    EXPECT_EQ(geometry->find("sets")->asUint(),
              config.icache.numSets());
    const JsonValue *sets = heatmap->find("sets");
    ASSERT_NE(sets, nullptr);
    for (const char *series :
         {"demand_accesses", "demand_misses", "correct_fills",
          "wrong_accesses", "wrong_misses", "wrong_fills",
          "evictions_by_correct", "evictions_by_wrong"}) {
        const JsonValue *column = sets->find(series);
        ASSERT_NE(column, nullptr) << series;
        EXPECT_EQ(column->size(), config.icache.numSets()) << series;
    }
    const JsonValue *summary = heatmap->find("summary");
    ASSERT_NE(summary, nullptr);
    const JsonValue *distribution = summary->find("wrong_fills_per_set");
    ASSERT_NE(distribution, nullptr);
    for (const char *stat : {"mean", "max", "p50", "p90", "p99"})
        EXPECT_NE(distribution->find(stat), nullptr) << stat;
}

/** The manifest carries the obs knobs only when armed, so runs with
 *  observability off serialize byte-identically to the pre-obs
 *  schema (the golden run-record suite pins the full bytes). */
TEST(ObsRecord, ManifestMembersOnlyWhenArmed)
{
    SimConfig off;
    std::string plain = toJson(off).dump();
    EXPECT_EQ(plain.find("sample_interval"), std::string::npos);
    EXPECT_EQ(plain.find("set_heatmap"), std::string::npos);

    SimConfig on;
    on.sampleInterval = 5'000;
    on.setHeatmap = true;
    std::string armed = toJson(on).dump();
    EXPECT_NE(armed.find("\"sample_interval\":5000"), std::string::npos);
    EXPECT_NE(armed.find("\"set_heatmap\":true"), std::string::npos);
}

TEST(ObsRecord, SerialAndParallelSweepsEmitIdenticalRows)
{
    std::vector<JsonValue> serial = goldenRecords(/*parallelism=*/1);
    std::vector<JsonValue> parallel = goldenRecords(/*parallelism=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].dump(), parallel[i].dump())
            << "timeseries row " << i
            << " depends on sweep parallelism";
    }

    // Heatmaps too: same grid, observations compared via their rows.
    std::vector<RunSpec> specs = goldenSpecs();
    std::vector<RunObservations> obs_serial, obs_parallel;
    std::vector<SimResults> r1 = runSweep(specs, 1, nullptr, &obs_serial);
    std::vector<SimResults> r2 = runSweep(specs, 4, nullptr, &obs_parallel);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_NE(obs_serial[i].heatmap, nullptr);
        ASSERT_NE(obs_parallel[i].heatmap, nullptr);
        EXPECT_EQ(makeHeatmapRecord(*obs_serial[i].heatmap, r1[i],
                                    specs[i].config).dump(),
                  makeHeatmapRecord(*obs_parallel[i].heatmap, r2[i],
                                    specs[i].config).dump());
    }
}

TEST(GoldenTimeseries, MatchesCheckedInRows)
{
    std::vector<JsonValue> records = goldenRecords(/*parallelism=*/1);

    if (regenRequested()) {
        std::ofstream out(goldenPath(), std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        for (const JsonValue &record : records)
            out << record.dump() << '\n';
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::vector<JsonValue> golden;
    std::string error;
    ASSERT_TRUE(readJsonl(goldenPath(), golden, &error))
        << error << " — regenerate with SPECFETCH_REGEN_GOLDEN=1 "
        << "(see file header)";
    ASSERT_EQ(golden.size(), records.size());
    std::vector<std::string> lines = readGoldenLines(goldenPath());
    ASSERT_EQ(lines.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].dump(), lines[i])
            << "timeseries row " << i << " is not byte-identical ("
            << toString(goldenPolicies()[i]) << ")";
        EXPECT_EQ(records[i], golden[i])
            << "timeseries row " << i << " diverged ("
            << toString(goldenPolicies()[i]) << ")";
    }
}

} // namespace
