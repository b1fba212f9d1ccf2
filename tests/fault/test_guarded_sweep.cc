/**
 * @file
 * runSweepGuarded contract tests: a guarded sweep must be bit-exact
 * with the plain sweep when nothing fails, heal transient injected
 * faults (throw, timeout, corrupt snapshot) through its retry loop,
 * and quarantine persistent failures without losing the rest of the
 * grid.
 */

#include <gtest/gtest.h>

#include <mutex>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "fault/injector.hh"

using namespace specfetch;

namespace {

std::vector<RunSpec>
smallGrid()
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (const char *name : {"li", "gcc"}) {
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

SweepGuard
fastGuard()
{
    SweepGuard guard;
    guard.maxAttempts = 2;
    guard.backoffBaseSeconds = 0.0;    // tests need no real backoff
    return guard;
}

} // namespace

TEST(GuardedSweep, MatchesPlainSweepWhenNothingFails)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweepGuarded(specs, fastGuard(), 2);

    EXPECT_TRUE(guarded.allCompleted());
    EXPECT_TRUE(guarded.failures.empty());
    ASSERT_EQ(guarded.results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(guarded.completed[i], 1);
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;
    }
}

TEST(GuardedSweep, TransientThrowHealsViaRetry)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@2", injector));
    SweepGuard guard = fastGuard();
    guard.injector = &injector;

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweepGuarded(specs, guard, 2);

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i])
            << "retry must not perturb results (spec " << i << ")";
}

TEST(GuardedSweep, TransientTimeoutHealsViaRetry)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("timeout@1", injector));
    SweepGuard guard = fastGuard();
    guard.injector = &injector;

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweepGuarded(specs, guard, 2);

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;
}

TEST(GuardedSweep, CorruptSnapshotDegradesToLiveExecution)
{
    // Every benchmark has three consumers, so the sweep records shared
    // snapshots; corrupting run 0's copy must be *detected* (digest
    // check) and degraded to a privately re-recorded stream — same
    // results, no crash, no retry consumed (the fallback happens
    // within attempt 1).
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("corrupt@0", injector));
    SweepGuard guard = fastGuard();
    guard.maxAttempts = 1;    // prove no retry is needed
    guard.injector = &injector;

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweepGuarded(specs, guard, 2);

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;

    // Degraded and quarantined runs still release their stream: over
    // 12 shared streams, with a corrupted replay in every stream and a
    // quarantined run in every other one, the live snapshots stay
    // within the bound.
    std::vector<RunSpec> many;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        for (const RunSpec &spec : smallGrid()) {
            if (spec.config.policy == FetchPolicy::Oracle)
                continue;
            RunSpec copy = spec;
            copy.config.instructionBudget = 5'000;
            copy.config.runSeed = seed;
            many.push_back(copy);
        }
    }
    // Stream k is runs 2k and 2k + 1: (li, seed), then (gcc, seed).
    std::string directives;
    for (size_t stream = 0; stream < many.size() / 2; ++stream) {
        directives += "corrupt@" + std::to_string(2 * stream) + ",";
        if (stream % 2 == 0)
            directives += "throw@" + std::to_string(2 * stream + 1) + "x*,";
    }
    directives.pop_back();
    FaultInjector faults;
    ASSERT_TRUE(FaultInjector::parse(directives, faults));
    SweepGuard faulty = fastGuard();
    faulty.maxAttempts = 1;
    faulty.injector = &faults;
    std::vector<SimResults> clean = runSweep(many, 2);
    for (unsigned workers : {1u, 2u}) {
        SweepTiming timing;
        SweepOutcome outcome =
            runSweepGuarded(many, faulty, workers, &timing);
        EXPECT_EQ(outcome.failures.size(), 6u);
        for (size_t i = 0; i < many.size(); ++i) {
            if (outcome.completed[i]) {
                EXPECT_EQ(outcome.results[i], clean[i]) << "spec " << i;
            }
        }
        EXPECT_GE(timing.peakLiveSnapshots, 1u);
        EXPECT_LE(timing.peakLiveSnapshots, workers + 2)
            << "workers " << workers;
    }
}

TEST(GuardedSweep, PersistentFailureIsQuarantined)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@3x*", injector));
    SweepGuard guard = fastGuard();
    guard.injector = &injector;

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweepGuarded(specs, guard, 2);

    EXPECT_FALSE(guarded.allCompleted());
    ASSERT_EQ(guarded.failures.size(), 1u);
    const SweepFailure &failure = guarded.failures.front();
    EXPECT_EQ(failure.index, 3u);
    EXPECT_EQ(failure.benchmark, specs[3].benchmark);
    EXPECT_EQ(failure.attempts, guard.maxAttempts);
    EXPECT_NE(failure.cause.find("injected fault"), std::string::npos);
    EXPECT_FALSE(failure.config.empty());

    for (size_t i = 0; i < specs.size(); ++i) {
        if (i == 3) {
            EXPECT_EQ(guarded.completed[i], 0);
            continue;
        }
        EXPECT_EQ(guarded.completed[i], 1);
        EXPECT_EQ(guarded.results[i], plain[i])
            << "a quarantined neighbour must not disturb spec " << i;
    }
}

TEST(GuardedSweep, OnRunCompleteFiresOncePerCompletedRun)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@5x*", injector));
    SweepGuard guard = fastGuard();
    guard.injector = &injector;

    std::vector<int> calls(specs.size(), 0);
    std::mutex mutex;
    guard.onRunComplete = [&](size_t index, const SimResults &results) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls[index];
        EXPECT_EQ(results.workload, specs[index].benchmark);
    };

    SweepOutcome guarded = runSweepGuarded(specs, guard, 2);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(calls[i], i == 5 ? 0 : 1) << "spec " << i;
    EXPECT_EQ(guarded.failures.size(), 1u);
}

TEST(GuardedSweep, EmptyGridIsANoOp)
{
    SweepOutcome guarded = runSweepGuarded({}, fastGuard(), 2);
    EXPECT_TRUE(guarded.allCompleted());
    EXPECT_TRUE(guarded.results.empty());
}
