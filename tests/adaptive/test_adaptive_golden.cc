/**
 * @file
 * Golden-file regression suite for adaptive runs: li at a fixed small
 * budget under the Threshold and Bandit selectors (fixed seed), with
 * the interval sampler armed on the same epoch grid. Each selector
 * contributes its run manifest, its timeseries row and its `adaptive`
 * record; all must match tests/golden/adaptive_li.json member for
 * member, no tolerances. Intentional behaviour changes regenerate:
 *
 *   cmake --build build -j --target test_adaptive
 *   SPECFETCH_REGEN_GOLDEN=1 ./build/tests/test_adaptive \
 *       --gtest_filter='GoldenAdaptive.*'
 *
 * and the diff is reviewed like any other code change. Keeping the
 * sampler armed pins that adaptive switching and interval sampling
 * share one epoch grid (the choice-log windows and the timeseries
 * epochs must agree instruction for instruction).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "adaptive/adaptive_record.hh"
#include "core/sweep.hh"
#include "obs/obs_record.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "workload/registry.hh"
#include "golden_lines.hh"

using namespace specfetch;

namespace {

/** Golden parameters: bound to tests/golden/adaptive_li.json. */
constexpr uint64_t kGoldenBudget = 100'000;
constexpr uint64_t kGoldenInterval = 20'000;

const std::vector<SelectorKind> &
goldenSelectors()
{
    static const std::vector<SelectorKind> selectors{
        SelectorKind::Threshold, SelectorKind::Bandit};
    return selectors;
}

std::string
goldenPath()
{
#ifdef SPECFETCH_GOLDEN_DIR
    return std::string(SPECFETCH_GOLDEN_DIR) + "/adaptive_li.json";
#else
    return "tests/golden/adaptive_li.json";
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
    for (SelectorKind kind : goldenSelectors()) {
        SimConfig config;
        config.instructionBudget = kGoldenBudget;
        config.sampleInterval = kGoldenInterval;
        config.adaptiveSelector = kind;
        config.adaptiveInterval = kGoldenInterval;
        config.adaptiveSeed = 1;
        specs.push_back(RunSpec{"li", config});
    }
    return specs;
}

/** Run record + timeseries + adaptive record per golden selector. */
std::vector<JsonValue>
goldenRecords(unsigned parallelism)
{
    std::vector<RunSpec> specs = goldenSpecs();
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(specs, parallelism, nullptr, &observations);
    std::vector<JsonValue> records;
    for (size_t i = 0; i < specs.size(); ++i) {
        records.push_back(makeRunRecord(results[i], specs[i].config));
        records.push_back(makeTimeseriesRecord(observations[i],
                                               results[i],
                                               specs[i].config));
        records.push_back(makeAdaptiveRecord(observations[i].adaptive,
                                             results[i],
                                             specs[i].config));
    }
    return records;
}

} // namespace

TEST(GoldenAdaptive, MatchesCheckedInRows)
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
            << "adaptive golden row " << i << " is not byte-identical ("
            << toString(goldenSelectors()[i / 3]) << ")";
        EXPECT_EQ(records[i], golden[i])
            << "adaptive golden row " << i << " diverged ("
            << toString(goldenSelectors()[i / 3]) << ")";
    }
}

TEST(GoldenAdaptive, ParallelSweepEmitsIdenticalRows)
{
    std::vector<JsonValue> serial = goldenRecords(/*parallelism=*/1);
    std::vector<JsonValue> parallel = goldenRecords(/*parallelism=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].dump(), parallel[i].dump())
            << "adaptive golden row " << i
            << " depends on sweep parallelism";
    }
}

// The adaptive switch windows and the sampler's epochs share one
// instruction grid: every choice window must start and end exactly
// where a timeseries epoch does (final partial epochs included).
TEST(GoldenAdaptive, ChoiceWindowsAlignWithTimeseriesEpochs)
{
    std::vector<RunSpec> specs = goldenSpecs();
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(specs, 1, nullptr, &observations);
    for (size_t i = 0; i < specs.size(); ++i) {
        const AdaptiveLog &log = observations[i].adaptive;
        const std::vector<EpochRecord> &epochs = observations[i].epochs;
        ASSERT_EQ(log.choices.size(), epochs.size())
            << toString(goldenSelectors()[i]);
        for (size_t e = 0; e < epochs.size(); ++e) {
            EXPECT_EQ(log.choices[e].firstInstruction,
                      epochs[e].firstInstruction);
            EXPECT_EQ(log.choices[e].lastInstruction,
                      epochs[e].lastInstruction);
        }
        (void)results;
    }
}
