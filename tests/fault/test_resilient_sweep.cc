/**
 * @file
 * End-to-end fault-tolerance tests: rerunning a sweep against its
 * result store must make a sweep killed at an arbitrary point
 * byte-identical to an uninterrupted one. The kill is a real one — the
 * sweep runs in a fork()ed child, the store's injected crash _Exit()s
 * it mid-grid (after a put is durable but before the sweep sees it
 * acknowledged, or halfway through writing the frame), and the parent
 * reruns against the surviving store.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "fault/injector.hh"
#include "fault/resilient_sweep.hh"
#include "fault/result_store.hh"
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
        dir = uniqueTempPath("resilient.store");
        removeStore();
    }

    void TearDown() override { removeStore(); }

    void
    removeStore()
    {
        if (DIR *handle = opendir(dir.c_str())) {
            while (struct dirent *entry = readdir(handle)) {
                std::string name = entry->d_name;
                if (name != "." && name != "..")
                    std::remove((dir + "/" + name).c_str());
            }
            closedir(handle);
        }
        rmdir(dir.c_str());
    }

    ResilientSweepOptions
    options(ResultStore &store)
    {
        ResilientSweepOptions opts(store);
        opts.backoffBaseSeconds = 0.0;
        opts.parallelism = 2;
        // Deterministic record: results + config, no timing.
        opts.makeRecord = [this](size_t index, const SimResults &results) {
            return makeRunRecord(results, specs[index].config);
        };
        return opts;
    }

    /** One sweep as one process would run it: open, sweep, close. */
    ResilientSweepResult
    sweepOnce()
    {
        ResultStore store;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        EXPECT_TRUE(store.open(storeOptions));
        ResilientSweepResult result =
            runResilientSweep(specs, options(store));
        EXPECT_TRUE(store.close());
        return result;
    }

    /** Open the store read-side and report what its scan found. */
    ResultStore::Stats
    inspect(size_t &size)
    {
        ResultStore store;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        EXPECT_TRUE(store.open(storeOptions));
        size = store.size();
        ResultStore::Stats stats = store.stats();
        store.close();
        return stats;
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
     * Run the sweep in a fork()ed child whose store fires
     * @p injectorSpec and expect the injected crash to kill it with
     * kCrashExitCode. The child forks before any sweep thread spawns,
     * so the fork is safe.
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
            ResultStore store;
            ResultStore::Options storeOptions;
            storeOptions.dir = dir;
            storeOptions.injector = &injector;
            if (!store.open(storeOptions))
                _Exit(4);
            ResilientSweepOptions opts = options(store);
            opts.parallelism = 1;    // deterministic put order
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
    std::string dir;
};

TEST_F(ResilientSweep, CleanRunStoresEveryRun)
{
    ResilientSweepResult result = sweepOnce();
    EXPECT_TRUE(result.allCompleted());
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_EQ(result.servedRuns, 0u);

    ResultStore store;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    ASSERT_TRUE(store.open(storeOptions));
    EXPECT_FALSE(store.stats().recovered);
    EXPECT_EQ(store.stats().corruptFrames, 0u);
    // The stored key set covers the grid exactly, and each record is
    // the one the sweep returned.
    std::vector<std::string> stored, expected;
    store.forEach([&](const std::string &key, const JsonValue &) {
        stored.push_back(key);
    });
    for (size_t i = 0; i < specs.size(); ++i) {
        expected.push_back(sweepRunKey(specs[i]));
        JsonValue record;
        ASSERT_TRUE(store.get(expected.back(), record));
        EXPECT_EQ(record.dump(), result.records[i].dump());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(stored, expected);
    EXPECT_TRUE(store.close());
}

TEST_F(ResilientSweep, FullResumeExecutesNothing)
{
    ResilientSweepResult clean = sweepOnce();
    ResilientSweepResult rerun = sweepOnce();

    EXPECT_EQ(rerun.servedRuns, specs.size());
    EXPECT_EQ(rerun.executedRuns, 0u);
    EXPECT_EQ(dumpRecords(rerun), dumpRecords(clean));
}

TEST_F(ResilientSweep, ForeignStoreDegradesToFullRun)
{
    {
        ResultStore store;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        ASSERT_TRUE(store.open(storeOptions));
        JsonValue record = JsonValue::object();
        record.set("record", JsonValue::string("run"));
        ASSERT_TRUE(store.put("someother:0123456789abcdef", record));
        ASSERT_TRUE(store.close());
    }
    ResilientSweepResult result = sweepOnce();
    EXPECT_EQ(result.servedRuns, 0u);
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_TRUE(result.allCompleted());

    // The foreign record is kept, not clobbered.
    size_t size = 0;
    inspect(size);
    EXPECT_EQ(size, specs.size() + 1);
}

TEST_F(ResilientSweep, KillAndResumeIsByteIdentical)
{
    // The acceptance bar: kill the sweep at three distinct puts; each
    // rerun must reproduce the uninterrupted output byte for byte.
    ResilientSweepResult clean = sweepOnce();
    std::string reference = dumpRecords(clean);
    ASSERT_TRUE(clean.allCompleted());

    for (size_t crashAt : {size_t(0), size_t(2), size_t(4)}) {
        removeStore();
        runChildExpectingCrash("crash@" + std::to_string(crashAt));
        if (HasFatalFailure())
            return;

        // The crash fires after put crashAt is durable: the store
        // holds exactly the runs up to and including it.
        size_t size = 0;
        EXPECT_TRUE(inspect(size).recovered);
        EXPECT_EQ(size, crashAt + 1) << "crash@" << crashAt;

        ResilientSweepResult resumed = sweepOnce();
        EXPECT_TRUE(resumed.allCompleted());
        EXPECT_EQ(resumed.servedRuns, crashAt + 1);
        EXPECT_EQ(resumed.executedRuns, specs.size() - crashAt - 1);
        EXPECT_EQ(dumpRecords(resumed), reference)
            << "resume after crash@" << crashAt
            << " is not byte-identical";
    }
}

TEST_F(ResilientSweep, TornTailHealsByCompaction)
{
    ResilientSweepResult clean = sweepOnce();
    std::string reference = dumpRecords(clean);

    removeStore();
    runChildExpectingCrash("tear@2");
    if (HasFatalFailure())
        return;

    // The child died mid-append: the tail line is torn, and the two
    // puts before it are durable.
    size_t size = 0;
    ResultStore::Stats torn = inspect(size);
    EXPECT_TRUE(torn.tornTail);
    EXPECT_EQ(size, 2u);

    ResilientSweepResult resumed = sweepOnce();
    EXPECT_TRUE(resumed.allCompleted());
    EXPECT_EQ(resumed.servedRuns, 2u);
    EXPECT_EQ(dumpRecords(resumed), reference);

    // The rerun compacted the store: the tear is gone, nothing was
    // quarantined, and one base holds the whole grid.
    ResultStore::Stats healed = inspect(size);
    EXPECT_FALSE(healed.tornTail);
    EXPECT_EQ(healed.corruptFrames, 0u);
    EXPECT_EQ(healed.segmentsLoaded, 1u);
    EXPECT_EQ(healed.generation, 2u);
    EXPECT_EQ(size, specs.size());
}

TEST_F(ResilientSweep, QuarantineDoesNotKillTheSweep)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@4x*", injector));
    ResilientSweepResult result;
    {
        ResultStore store;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        ASSERT_TRUE(store.open(storeOptions));
        ResilientSweepOptions opts = options(store);
        opts.injector = &injector;
        opts.parallelism = 1;
        opts.maxAttempts = 2;
        opts.rerunCommand = [](size_t index) {
            return "rerun --index=" + std::to_string(index);
        };
        result = runResilientSweep(specs, opts);
        ASSERT_TRUE(store.close());
    }
    EXPECT_FALSE(result.allCompleted());
    ASSERT_EQ(result.failures.size(), 1u);
    const SweepFailure &failure = result.failures.front();
    EXPECT_EQ(failure.index, 4u);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_EQ(failure.rerunCommand, "rerun --index=4");
    EXPECT_NE(failure.cause.find("injected fault"), std::string::npos);
    EXPECT_TRUE(result.records[4].isNull());

    // Every other run completed and was stored.
    size_t size = 0;
    inspect(size);
    EXPECT_EQ(size, specs.size() - 1);

    // A rerun picks up only the quarantined run (fault gone now).
    ResilientSweepResult rerun = sweepOnce();
    EXPECT_TRUE(rerun.allCompleted());
    EXPECT_EQ(rerun.servedRuns, specs.size() - 1);
    EXPECT_EQ(rerun.executedRuns, 1u);
}

} // namespace
