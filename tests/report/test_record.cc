/**
 * @file
 * Schema tests for the run-record serializer: field presence, exact
 * counter values, round-trip parsing, CSV flattening, and the
 * JSONL/CSV file writers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/miss_classifier.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

SimResults
sampleResults()
{
    SimResults r;
    r.workload = "gcc";
    r.policy = FetchPolicy::Resume;
    r.prefetch = true;
    r.instructions = 100'000;
    r.finalSlot = 250'000;
    r.controlInsts = 17'000;
    r.condBranches = 12'000;
    r.misfetches = 800;
    r.dirMispredicts = 900;
    r.targetMispredicts = 70;
    r.demandAccesses = 60'000;
    r.demandMisses = 2'500;
    r.demandFills = 2'300;
    r.bufferHits = 200;
    r.wrongAccesses = 9'000;
    r.wrongMisses = 700;
    r.wrongFills = 650;
    r.prefetchesIssued = 1'200;
    r.penalty.charge(PenaltyKind::Branch, 30'000);
    r.penalty.charge(PenaltyKind::RtIcache, 40'000);
    r.penalty.charge(PenaltyKind::Bus, 5'000);
    return r;
}

SimConfig
sampleConfig()
{
    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.nextLinePrefetch = true;
    config.instructionBudget = 100'000;
    return config;
}

const JsonValue &
member(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    EXPECT_NE(value, nullptr) << "missing member: " << key;
    static JsonValue fallback;
    return value ? *value : fallback;
}

} // namespace

TEST(Record, RunRecordSchemaFields)
{
    JsonValue record = makeRunRecord(sampleResults(), sampleConfig());

    EXPECT_EQ(member(record, "schema_version").asUint(),
              kReportSchemaVersion);
    EXPECT_EQ(member(record, "record").asString(), "run");
    EXPECT_EQ(member(record, "workload").asString(), "gcc");
    EXPECT_EQ(member(record, "policy").asString(), "Resume");
    EXPECT_EQ(member(record, "prefetch").asString(), "next-line");

    const JsonValue &config = member(record, "config");
    EXPECT_EQ(member(config, "policy").asString(), "Resume");
    EXPECT_EQ(member(config, "issue_width").asUint(), 4u);
    EXPECT_EQ(member(config, "max_unresolved").asUint(), 4u);
    EXPECT_EQ(member(config, "miss_penalty_cycles").asUint(), 5u);
    EXPECT_EQ(member(config, "instruction_budget").asUint(), 100'000u);
    EXPECT_EQ(member(config, "run_seed").asUint(), 42u);
    EXPECT_EQ(member(member(config, "icache"), "size_bytes").asUint(),
              8u * 1024u);
    EXPECT_EQ(member(member(config, "predictor"), "pht_indexing")
                  .asString(),
              "gshare");

    const JsonValue &counters = member(record, "counters");
    EXPECT_EQ(member(counters, "instructions").asUint(), 100'000u);
    EXPECT_EQ(member(counters, "final_slot").asUint(), 250'000u);
    EXPECT_EQ(member(counters, "demand_misses").asUint(), 2'500u);
    EXPECT_EQ(member(counters, "wrong_fills").asUint(), 650u);
    EXPECT_EQ(member(counters, "memory_transactions").asUint(),
              2'300u + 650u + 1'200u);

    const JsonValue &penalty = member(counters, "penalty_slots");
    for (PenaltyKind kind : allPenaltyKinds())
        EXPECT_NE(penalty.find(toString(kind)), nullptr)
            << "missing penalty component " << toString(kind);
    EXPECT_EQ(member(penalty, "branch").asUint(), 30'000u);
    EXPECT_EQ(member(penalty, "rt_icache").asUint(), 40'000u);

    const JsonValue &derived = member(record, "derived");
    EXPECT_DOUBLE_EQ(member(derived, "ispi").asDouble(),
                     sampleResults().ispi());
    const JsonValue &components = member(derived, "ispi_components");
    for (PenaltyKind kind : allPenaltyKinds())
        EXPECT_NE(components.find(toString(kind)), nullptr);

    // No timing/classification unless supplied.
    EXPECT_EQ(record.find("timing"), nullptr);
    EXPECT_EQ(record.find("classification"), nullptr);
}

TEST(Record, TimingAndClassificationBlocks)
{
    RunTiming timing;
    timing.runSeconds = 0.125;
    timing.workloadBuildSeconds = 0.5;
    timing.sweepTotalSeconds = 2.0;

    Classification c;
    c.workload = "gcc";
    c.instructions = 100'000;
    c.bothMiss = 2'000;
    c.specPollute = 300;
    c.specPrefetch = 500;
    c.wrongPath = 900;

    JsonValue record =
        makeRunRecord(sampleResults(), sampleConfig(), &timing, &c);

    const JsonValue &t = member(record, "timing");
    EXPECT_DOUBLE_EQ(member(t, "run_seconds").asDouble(), 0.125);
    EXPECT_DOUBLE_EQ(member(t, "workload_build_seconds").asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(member(t, "sweep_total_seconds").asDouble(), 2.0);

    const JsonValue &cls = member(record, "classification");
    EXPECT_EQ(member(cls, "both_miss").asUint(), 2'000u);
    EXPECT_EQ(member(cls, "oracle_misses").asUint(), 2'500u);
    EXPECT_EQ(member(cls, "optimistic_misses").asUint(), 3'200u);
    EXPECT_DOUBLE_EQ(member(cls, "traffic_ratio").asDouble(),
                     c.trafficRatio());
}

TEST(Record, ClassificationRecord)
{
    Classification c;
    c.workload = "li";
    c.instructions = 50'000;
    c.bothMiss = 100;
    JsonValue record = makeClassificationRecord(c, sampleConfig());
    EXPECT_EQ(member(record, "record").asString(), "classification");
    EXPECT_EQ(member(record, "workload").asString(), "li");
    EXPECT_NE(record.find("config"), nullptr);
    EXPECT_EQ(member(member(record, "classification"), "both_miss")
                  .asUint(),
              100u);
}

TEST(Record, RoundTripThroughText)
{
    RunTiming timing;
    timing.runSeconds = 0.25;
    JsonValue record =
        makeRunRecord(sampleResults(), sampleConfig(), &timing);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(record.dump(), parsed, &error)) << error;
    EXPECT_EQ(parsed, record);
}

TEST(Record, FlattenUsesDottedKeys)
{
    JsonValue record = makeRunRecord(sampleResults(), sampleConfig());
    auto flat = flattenRecord(record);

    auto lookup = [&](const std::string &key) -> const std::string * {
        for (const auto &[name, value] : flat) {
            if (name == key)
                return &value;
        }
        return nullptr;
    };
    ASSERT_NE(lookup("counters.instructions"), nullptr);
    EXPECT_EQ(*lookup("counters.instructions"), "100000");
    ASSERT_NE(lookup("config.icache.size_bytes"), nullptr);
    EXPECT_EQ(*lookup("config.icache.size_bytes"), "8192");
    ASSERT_NE(lookup("workload"), nullptr);
    EXPECT_EQ(*lookup("workload"), "gcc");
    ASSERT_NE(lookup("config.l2_enabled"), nullptr);
    EXPECT_EQ(*lookup("config.l2_enabled"), "false");
}

TEST(Record, JsonlWriterRoundTrip)
{
    std::string path = uniqueTempPath("records.jsonl");
    JsonValue first = makeRunRecord(sampleResults(), sampleConfig());
    SimResults other = sampleResults();
    other.workload = "li";
    other.instructions = 55'555;
    JsonValue second = makeRunRecord(other, sampleConfig());
    {
        JsonlWriter writer(path);
        ASSERT_TRUE(writer.ok());
        writer.write(first);
        writer.write(second);
        EXPECT_EQ(writer.recordsWritten(), 2u);
    }
    std::vector<JsonValue> records;
    std::string error;
    ASSERT_TRUE(readJsonl(path, records, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], first);
    EXPECT_EQ(records[1], second);
}

TEST(Record, JsonlWriterReusedBufferLeaksNothing)
{
    // Long, then short, then long again through one writer: the
    // short line must not carry a tail of the long one, and the
    // second long line must not keep anything of the short one.
    std::string path = uniqueTempPath("reuse.jsonl");
    JsonValue longRecord = makeRunRecord(sampleResults(), sampleConfig());
    JsonValue shortRecord =
        JsonValue::object().set("k", JsonValue::integer(1));
    SimResults other = sampleResults();
    other.workload = "li";
    JsonValue otherLong = makeRunRecord(other, sampleConfig());
    const std::vector<const JsonValue *> written = {&longRecord, &shortRecord,
                                                   &otherLong};
    {
        JsonlWriter writer(path);
        ASSERT_TRUE(writer.ok());
        for (const JsonValue *record : written)
            writer.write(*record);
    }
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::string expected;
    for (const JsonValue *record : written)
        expected += record->dump() + "\n";
    EXPECT_EQ(contents, expected);
    std::remove(path.c_str());
}

TEST(Record, CsvWriterEmitsHeaderAndRows)
{
    std::string path = uniqueTempPath("records.csv");
    {
        CsvReportWriter writer(path);
        ASSERT_TRUE(writer.ok());
        writer.write(makeRunRecord(sampleResults(), sampleConfig()));
        writer.write(makeRunRecord(sampleResults(), sampleConfig()));
        EXPECT_EQ(writer.recordsWritten(), 2u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header, row1, row2;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row1));
    ASSERT_TRUE(std::getline(in, row2));
    EXPECT_NE(header.find("counters.instructions"), std::string::npos);
    EXPECT_NE(header.find("config.icache.size_bytes"), std::string::npos);
    EXPECT_NE(row1.find("100000"), std::string::npos);
    EXPECT_EQ(row1, row2);
}

TEST(Record, StatsTreeExport)
{
    SimResults results = sampleResults();
    // statsToJson consumes the same transient tree statsDump renders;
    // build a small one here to pin the nesting + exactness rules.
    Counter insts;
    insts += results.instructions;
    StatGroup front("frontend");
    front.addCounter("instructions", insts, "retired");
    front.addFormula("ispi", [&] { return results.ispi(); }, "total");
    StatGroup root("sim");
    root.addChild(front);

    JsonValue tree = statsToJson(root);
    const JsonValue *sim = tree.find("sim");
    ASSERT_NE(sim, nullptr);
    const JsonValue *frontend = sim->find("frontend");
    ASSERT_NE(frontend, nullptr);
    ASSERT_NE(frontend->find("instructions"), nullptr);
    EXPECT_TRUE(frontend->find("instructions")->isUint());
    EXPECT_EQ(frontend->find("instructions")->asUint(), 100'000u);
    ASSERT_NE(frontend->find("ispi"), nullptr);
    EXPECT_DOUBLE_EQ(frontend->find("ispi")->asDouble(), results.ispi());
}
