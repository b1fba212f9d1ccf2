/**
 * @file
 * runSweep contract tests: serial and parallel sweeps must produce
 * identical results and observations in submission order, in any
 * spec order, with live shared snapshots bounded by the workers;
 * shared and private streams must match the engine's scalar reference
 * (also under the paranoid cross-check), timing capture must cover
 * every spec, and benchBudget
 * must honour the SPECFETCH_BUDGET environment variable (K/M/G
 * suffixes, garbage rejected).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_record.hh"
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

/** Everything a run's armed collectors produced, as JSON text. */
std::string
observationDump(const RunObservations &obs, const SimResults &results,
                const SimConfig &config)
{
    std::string dump = obs.epochs.empty()
        ? std::string("no epochs")
        : makeTimeseriesRecord(obs, results, config).dump();
    if (obs.heatmap)
        dump += toJson(*obs.heatmap).dump();
    return dump;
}

TEST(Sweep, ParallelMatchesSerialBitExactly)
{
    // Benchmark-major, where each stream's consumers are adjacent, and
    // policy-major, where they are spread over the whole sweep; the
    // sampler and heatmap are armed so observations are compared too.
    std::vector<RunSpec> benchmarkMajor = smallGrid();
    std::vector<RunSpec> policyMajor;
    for (size_t policy = 0; policy < 3; ++policy) {
        for (size_t bench = 0; bench < 3; ++bench)
            policyMajor.push_back(benchmarkMajor[bench * 3 + policy]);
    }
    for (std::vector<RunSpec> specs : {benchmarkMajor, policyMajor}) {
        for (RunSpec &spec : specs) {
            spec.config.sampleInterval = 10'000;
            spec.config.setHeatmap = true;
        }
        std::vector<RunObservations> serialObs;
        std::vector<SimResults> serial =
            runSweep(specs, /*parallelism=*/1, nullptr, &serialObs);
        ASSERT_EQ(serial.size(), specs.size());
        for (unsigned parallelism : {2u, 3u, 8u}) {
            std::vector<RunObservations> parallelObs;
            std::vector<SimResults> parallel =
                runSweep(specs, parallelism, nullptr, &parallelObs);
            ASSERT_EQ(parallel.size(), specs.size());
            for (size_t i = 0; i < specs.size(); ++i) {
                EXPECT_EQ(serial[i], parallel[i])
                    << "spec " << i << " (" << specs[i].benchmark << ", "
                    << toString(specs[i].config.policy)
                    << ") diverged at parallelism " << parallelism;
                ASSERT_NE(serialObs[i].heatmap, nullptr);
                EXPECT_EQ(observationDump(serialObs[i], serial[i],
                                          specs[i].config),
                          observationDump(parallelObs[i], parallel[i],
                                          specs[i].config))
                    << "spec " << i << " observations diverged at "
                    << "parallelism " << parallelism;
            }
        }
    }
}

TEST(Sweep, LiveSnapshotsStayWithinTheWorkerBound)
{
    // 26 shared streams (13 profiles x 2 seeds, two policies each):
    // each stream is recorded just ahead of its runs and freed after
    // its last one, so the live count tracks the workers, not the
    // streams.
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames()) {
        for (uint64_t seed : {1u, 2u}) {
            for (FetchPolicy policy :
                 {FetchPolicy::Resume, FetchPolicy::Pessimistic}) {
                SimConfig config;
                config.instructionBudget = 5'000;
                config.runSeed = seed;
                config.policy = policy;
                specs.push_back(RunSpec{name, config});
            }
        }
    }
    const size_t streams = specs.size() / 2;
    ASSERT_GE(streams, 20u);
    for (unsigned workers : {1u, 2u}) {
        SweepTiming plain;
        runSweep(specs, workers, &plain);
        SweepTiming guarded;
        SweepOutcome outcome =
            runSweepGuarded(specs, SweepGuard{}, workers, &guarded);
        ASSERT_TRUE(outcome.allCompleted());
        for (const SweepTiming *timing : {&plain, &guarded}) {
            EXPECT_GE(timing->peakLiveSnapshots, 1u);
            EXPECT_LE(timing->peakLiveSnapshots, workers + 2)
                << "workers " << workers;
            EXPECT_LT(timing->peakLiveSnapshots, streams);
        }
    }
}

TEST(Sweep, SuiteShapedSweepRecordsEachStreamOnceWithinTheBound)
{
    // bench_suite's one plan in miniature: the policy x prefetch grid
    // (classifier armed on Optimistic/no-prefetch), then sampled
    // static runs and two selectors per profile at a longer budget,
    // all on the profile's one stream.
    SimConfig grid;
    grid.instructionBudget = 4'000;
    SimConfig column = grid;
    column.instructionBudget = 8'000;
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames()) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                RunSpec spec{name, grid};
                spec.config.policy = policy;
                spec.config.nextLinePrefetch = prefetch;
                spec.classify =
                    policy == FetchPolicy::Optimistic && !prefetch;
                specs.push_back(spec);
            }
        }
    }
    for (const std::string &name : benchmarkNames()) {
        for (FetchPolicy policy : allPolicies()) {
            RunSpec spec{name, column};
            spec.config.policy = policy;
            spec.config.sampleInterval = 2'000;
            specs.push_back(spec);
        }
        for (SelectorKind kind :
             {SelectorKind::Threshold, SelectorKind::Bandit}) {
            RunSpec spec{name, column};
            spec.config.policy = FetchPolicy::Resume;
            spec.config.adaptiveSelector = kind;
            spec.config.adaptiveInterval = 2'000;
            specs.push_back(spec);
        }
    }
    const size_t streams = benchmarkNames().size();
    for (unsigned workers : {1u, 2u, 4u}) {
        SweepTiming timing;
        std::vector<RunObservations> obs;
        runSweep(specs, workers, &timing, &obs);
        EXPECT_EQ(timing.snapshotsRecorded, streams);
        EXPECT_GE(timing.peakLiveSnapshots, 1u);
        EXPECT_LE(timing.peakLiveSnapshots, workers + 2)
            << "workers " << workers;
        size_t classified = 0;
        for (const RunObservations &o : obs)
            classified += o.classification.has_value();
        EXPECT_EQ(classified, streams);
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
