/**
 * @file
 * runSweep contract tests: serial and parallel sweeps must produce
 * identical results in submission order, shared and private streams
 * must match the engine's scalar reference (also under the paranoid
 * cross-check), timing capture must cover every spec, and benchBudget
 * must honour the SPECFETCH_BUDGET environment variable (K/M/G
 * suffixes, garbage rejected).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"

using namespace specfetch;

namespace {

std::vector<RunSpec>
smallGrid()
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (const char *name : {"li", "gcc", "doduc"}) {
        for (FetchPolicy policy :
             {FetchPolicy::Oracle, FetchPolicy::Resume,
              FetchPolicy::Pessimistic}) {
            SimConfig config = base;
            config.policy = policy;
            specs.push_back(RunSpec{name, config});
        }
    }
    return specs;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitExactly)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> serial = runSweep(specs, /*parallelism=*/1);
    std::vector<SimResults> parallel = runSweep(specs, /*parallelism=*/4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i])
            << "spec " << i << " (" << specs[i].benchmark << ", "
            << toString(specs[i].config.policy) << ") diverged";
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> results = runSweep(specs, /*parallelism=*/4);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].workload, specs[i].benchmark);
        EXPECT_EQ(results[i].policy, specs[i].config.policy);
    }
}

TEST(Sweep, RepeatedSweepIsDeterministic)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> first = runSweep(specs, /*parallelism=*/2);
    std::vector<SimResults> second = runSweep(specs, /*parallelism=*/2);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(first[i], second[i]);
}

TEST(Sweep, SnapshotReplayPathMatchesSingleRuns)
{
    // Every benchmark here appears under three policies, so each
    // (benchmark, seed) stream has three consumers and the sweep
    // records and replays it; runBenchmark streams its own copy.
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    ASSERT_EQ(swept.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config))
            << "spec " << i << " (" << specs[i].benchmark << ", "
            << toString(specs[i].config.policy)
            << "): replayed sweep diverged from a single run";
    }
}

TEST(Sweep, DistinctSeedsGetDistinctStreams)
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (uint64_t seed : {7u, 8u}) {
        for (FetchPolicy policy :
             {FetchPolicy::Resume, FetchPolicy::Pessimistic}) {
            SimConfig config = base;
            config.runSeed = seed;
            config.policy = policy;
            specs.push_back(RunSpec{"gcc", config});
        }
    }
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    // Each seed's pair shares one snapshot; sharing across seeds
    // would replay the wrong dynamic stream and diverge from live.
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config));
    }
    EXPECT_NE(swept[0], swept[2])
        << "different run seeds should produce different dynamics";
}

TEST(Sweep, MixedWarmupSharesTheLongestSnapshot)
{
    // Same stream, different (warmup, budget) splits: the recorded
    // snapshot must cover the hungriest consumer and still replay
    // bit-identically for the shorter ones.
    std::vector<RunSpec> specs;
    for (uint64_t warmup : {0u, 10'000u, 30'000u}) {
        SimConfig config;
        config.warmupInstructions = warmup;
        config.instructionBudget = 40'000;
        specs.push_back(RunSpec{"li", config});
    }
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config))
            << "warmup " << specs[i].config.warmupInstructions;
    }
}

TEST(Sweep, ParanoidSweepsMatchTheScalarReference)
{
    // Seeds 1 and 2 feed two specs per benchmark (a shared snapshot);
    // seeds 3 and 4 feed one (a private chunk buffer per run). Both
    // sweeps re-run every spec on the scalar path and panic on any
    // divergence; the test then compares each run itself.
    std::vector<RunSpec> specs;
    for (const char *name : {"li", "gcc"}) {
        for (uint64_t seed : {1u, 2u, 3u, 4u}) {
            SimConfig config;
            config.instructionBudget = 30'000;
            config.checkLevel = CheckLevel::Paranoid;
            config.runSeed = seed;
            config.policy = FetchPolicy::Resume;
            specs.push_back(RunSpec{name, config});
            if (seed <= 2) {
                config.policy = FetchPolicy::Pessimistic;
                config.nextLinePrefetch = true;
                specs.push_back(RunSpec{name, config});
            }
        }
    }

    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/4);
    SweepOutcome guarded =
        runSweepGuarded(specs, SweepGuard{}, /*parallelism=*/4);
    ASSERT_TRUE(guarded.allCompleted());
    ASSERT_EQ(swept.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        std::shared_ptr<const Workload> workload =
            sharedWorkload(specs[i].benchmark);
        Executor executor(workload->cfg, specs[i].config.runSeed);
        FetchEngine engine(specs[i].config, workload->image);
        SimResults reference = engine.run(executor);
        reference.workload = specs[i].benchmark;
        EXPECT_EQ(swept[i], reference) << "runSweep spec " << i;
        EXPECT_EQ(guarded.results[i], reference)
            << "runSweepGuarded spec " << i;
    }
}

TEST(Sweep, TimingCoversEverySpec)
{
    std::vector<RunSpec> specs = smallGrid();
    SweepTiming timing;
    runSweep(specs, /*parallelism=*/2, &timing);

    ASSERT_EQ(timing.perRunSeconds.size(), specs.size());
    for (double seconds : timing.perRunSeconds)
        EXPECT_GE(seconds, 0.0);
    EXPECT_GT(timing.totalSeconds, 0.0);
    EXPECT_GE(timing.totalSeconds, timing.runSeconds);
    EXPECT_GE(timing.workloadBuildSeconds, 0.0);
    EXPECT_GE(timing.snapshotRecordSeconds, 0.0);
}

TEST(Sweep, TimingResetBetweenCalls)
{
    std::vector<RunSpec> one{smallGrid()[0]};
    SweepTiming timing;
    timing.perRunSeconds.assign(99, 1.0); // stale garbage
    runSweep(one, 1, &timing);
    EXPECT_EQ(timing.perRunSeconds.size(), 1u);
}

class BenchBudgetEnv : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("SPECFETCH_BUDGET"); }
    void TearDown() override { unsetenv("SPECFETCH_BUDGET"); }

    void
    withEnv(const char *value)
    {
        setenv("SPECFETCH_BUDGET", value, /*overwrite=*/1);
    }
};

TEST_F(BenchBudgetEnv, FallbackWhenUnset)
{
    EXPECT_EQ(benchBudget(123), 123u);
}

TEST_F(BenchBudgetEnv, PlainCount)
{
    withEnv("250000");
    EXPECT_EQ(benchBudget(1), 250'000u);
}

TEST_F(BenchBudgetEnv, DecimalSuffixes)
{
    withEnv("2K");
    EXPECT_EQ(benchBudget(1), 2'000u);
    withEnv("3M");
    EXPECT_EQ(benchBudget(1), 3'000'000u);
    withEnv("1G");
    EXPECT_EQ(benchBudget(1), 1'000'000'000u);
}

TEST_F(BenchBudgetEnv, LowercaseSuffix)
{
    withEnv("4m");
    EXPECT_EQ(benchBudget(1), 4'000'000u);
}

TEST_F(BenchBudgetEnv, InvalidInputFallsBack)
{
    for (const char *bad : {"", "abc", "12Q", "-5", "K", "1.5M"}) {
        withEnv(bad);
        EXPECT_EQ(benchBudget(777), 777u) << "input: " << bad;
    }
}

TEST_F(BenchBudgetEnv, ZeroFallsBack)
{
    withEnv("0");
    EXPECT_EQ(benchBudget(777), 777u);
}
