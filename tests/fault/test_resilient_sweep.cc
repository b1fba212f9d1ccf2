/**
 * @file
 * End-to-end fault-tolerance tests: checkpointed resume must make a
 * sweep killed at an arbitrary point byte-identical to an
 * uninterrupted one. The kill is a real one — the sweep runs in a
 * fork()ed child, the injected crash _Exit()s it mid-grid (after a run
 * completes but *before* it is journaled: the worst-ordered crash),
 * and the parent resumes from the surviving ledger.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "fault/injector.hh"
#include "fault/ledger.hh"
#include "fault/resilient_sweep.hh"
#include "report/record.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

std::vector<RunSpec>
grid()
{
    SimConfig base;
    base.instructionBudget = 40'000;
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

class ResilientSweep : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        specs = grid();
        path = uniqueTempPath("resilient.ledger");
        std::remove(path.c_str());
    }

    void TearDown() override { std::remove(path.c_str()); }

    ResilientSweepOptions
    options()
    {
        ResilientSweepOptions opts;
        opts.ledgerPath = path;
        opts.backoffBaseSeconds = 0.0;
        opts.parallelism = 2;
        // Deterministic record: results + config, no timing.
        opts.makeRecord = [this](size_t index, const SimResults &results) {
            return makeRunRecord(results, specs[index].config);
        };
        return opts;
    }

    /** Concatenated record dumps: the sweep's observable output. */
    static std::string
    dumpRecords(const ResilientSweepResult &result)
    {
        std::string out;
        for (const JsonValue &record : result.records) {
            out += record.dump();
            out += '\n';
        }
        return out;
    }

    /**
     * Run the sweep in a fork()ed child under @p injectorSpec and
     * expect the injected crash to kill it with kCrashExitCode. The
     * child forks before any sweep thread spawns, so the fork is safe.
     */
    void
    runChildExpectingCrash(const std::string &injectorSpec)
    {
        pid_t pid = fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            FaultInjector injector;
            if (!FaultInjector::parse(injectorSpec, injector))
                _Exit(3);
            ResilientSweepOptions opts = options();
            opts.injector = &injector;
            opts.parallelism = 1;    // deterministic submission order
            runResilientSweep(specs, opts);
            _Exit(0);    // reached only if the injected crash missed
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode)
            << "child should have died of the injected fault";
    }

    std::vector<RunSpec> specs;
    std::string path;
};

TEST_F(ResilientSweep, CleanRunJournalsEveryRun)
{
    ResilientSweepResult result = runResilientSweep(specs, options());
    EXPECT_TRUE(result.allCompleted());
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_EQ(result.resumedRuns, 0u);

    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), specs.size());
    EXPECT_EQ(load.corruptLines, 0u);
    EXPECT_FALSE(load.tornTail);
    // Journal order is completion order (the sweep is parallel); the
    // key *set* must cover the grid exactly.
    std::vector<std::string> journaled, expected;
    for (size_t i = 0; i < specs.size(); ++i) {
        journaled.push_back(load.entries[i].key);
        expected.push_back(sweepRunKey(specs[i]));
    }
    std::sort(journaled.begin(), journaled.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(journaled, expected);
}

TEST_F(ResilientSweep, FullResumeExecutesNothing)
{
    ResilientSweepResult clean = runResilientSweep(specs, options());

    ResilientSweepOptions opts = options();
    opts.resume = true;
    ResilientSweepResult resumed = runResilientSweep(specs, opts);

    EXPECT_EQ(resumed.resumedRuns, specs.size());
    EXPECT_EQ(resumed.executedRuns, 0u);
    EXPECT_EQ(dumpRecords(resumed), dumpRecords(clean));
}

TEST_F(ResilientSweep, ResumeAgainstForeignLedgerDegradesToFullRun)
{
    {
        SweepLedger ledger(path);
        JsonValue record = JsonValue::object();
        record.set("record", JsonValue::string("run"));
        ledger.append("someother:0123456789abcdef", record);
    }
    ResilientSweepOptions opts = options();
    opts.resume = true;
    ResilientSweepResult result = runResilientSweep(specs, opts);
    EXPECT_EQ(result.resumedRuns, 0u);
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_TRUE(result.allCompleted());
}

TEST_F(ResilientSweep, KillAndResumeIsByteIdentical)
{
    // The acceptance bar: kill the sweep at three distinct run
    // indices; each resume must reproduce the uninterrupted output
    // byte for byte.
    ResilientSweepResult clean = runResilientSweep(specs, options());
    std::string reference = dumpRecords(clean);
    ASSERT_TRUE(clean.allCompleted());

    for (size_t crash_index : {size_t(1), size_t(3), size_t(5)}) {
        std::remove(path.c_str());
        runChildExpectingCrash("crash@" + std::to_string(crash_index));
        if (HasFatalFailure())
            return;

        // The crash fires after run crash_index completes but before
        // its journal append: the ledger holds exactly the runs
        // before it.
        LedgerLoad load;
        ASSERT_TRUE(loadLedger(path, load));
        EXPECT_EQ(load.entries.size(), crash_index)
            << "crash@" << crash_index;

        ResilientSweepOptions opts = options();
        opts.resume = true;
        ResilientSweepResult resumed = runResilientSweep(specs, opts);
        EXPECT_TRUE(resumed.allCompleted());
        EXPECT_EQ(resumed.resumedRuns, crash_index);
        EXPECT_EQ(resumed.executedRuns, specs.size() - crash_index);
        EXPECT_EQ(dumpRecords(resumed), reference)
            << "resume after crash@" << crash_index
            << " is not byte-identical";
    }
}

TEST_F(ResilientSweep, TornLedgerHealsOnResume)
{
    ResilientSweepResult clean = runResilientSweep(specs, options());
    std::string reference = dumpRecords(clean);

    std::remove(path.c_str());
    runChildExpectingCrash("tear@2");
    if (HasFatalFailure())
        return;

    // The child died mid-append: the tail line is torn.
    LedgerLoad torn;
    ASSERT_TRUE(loadLedger(path, torn));
    EXPECT_TRUE(torn.tornTail);
    EXPECT_EQ(torn.entries.size(), 2u);

    ResilientSweepOptions opts = options();
    opts.resume = true;
    ResilientSweepResult resumed = runResilientSweep(specs, opts);
    EXPECT_TRUE(resumed.allCompleted());
    EXPECT_EQ(resumed.resumedRuns, 2u);
    EXPECT_EQ(dumpRecords(resumed), reference);

    // And the resume rewrote the ledger: the tear is gone.
    LedgerLoad healed;
    ASSERT_TRUE(loadLedger(path, healed));
    EXPECT_FALSE(healed.tornTail);
    EXPECT_EQ(healed.entries.size(), specs.size());
}

TEST_F(ResilientSweep, QuarantineDoesNotKillTheSweep)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@4x*", injector));
    ResilientSweepOptions opts = options();
    opts.injector = &injector;
    opts.parallelism = 1;
    opts.maxAttempts = 2;
    opts.rerunCommand = [](size_t index) {
        return "rerun --index=" + std::to_string(index);
    };

    ResilientSweepResult result = runResilientSweep(specs, opts);
    EXPECT_FALSE(result.allCompleted());
    ASSERT_EQ(result.failures.size(), 1u);
    const SweepFailure &failure = result.failures.front();
    EXPECT_EQ(failure.index, 4u);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_EQ(failure.rerunCommand, "rerun --index=4");
    EXPECT_NE(failure.cause.find("injected fault"), std::string::npos);
    EXPECT_TRUE(result.records[4].isNull());

    // Every other run completed and was journaled.
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    EXPECT_EQ(load.entries.size(), specs.size() - 1);

    // A resume picks up only the quarantined run (fault gone now).
    ResilientSweepOptions retry = options();
    retry.resume = true;
    ResilientSweepResult resumed = runResilientSweep(specs, retry);
    EXPECT_TRUE(resumed.allCompleted());
    EXPECT_EQ(resumed.resumedRuns, specs.size() - 1);
    EXPECT_EQ(resumed.executedRuns, 1u);
}

} // namespace
