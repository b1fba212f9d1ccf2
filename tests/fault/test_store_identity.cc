/**
 * @file
 * Store <-> simulator byte-identity property (DESIGN.md §10): for the
 * full paper grid — 13 workloads × 5 policies × prefetch on/off — the
 * record the fault-tolerant sweep stores and serves is byte-for-byte
 * the record a fresh, serial runSimulation produces. The identity must
 * also hold after a crash-recovery reopen (no clean marker) and after
 * compaction, or a resumed sweep could silently change results.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "fault/resilient_sweep.hh"
#include "fault/result_store.hh"
#include "report/record.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

/** Small budget: the grid is 130 runs, simulated twice. */
constexpr uint64_t kBudget = 20'000;

void
wipeDir(const std::string &dir)
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

TEST(StoreIdentity, GridRecordsMatchSerialSimulation)
{
    std::string dir = uniqueTempPath("store");
    wipeDir(dir); // stale segments from a prior run would mask misses
    SimConfig base;
    base.instructionBudget = kBudget;

    // The bench_suite grid: profile-major, policy-minor, prefetch
    // innermost.
    const std::vector<std::string> &names = benchmarkNames();
    std::vector<RunSpec> specs;
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                specs.push_back(RunSpec{name, config});
            }
        }
    }
    ASSERT_EQ(specs.size(), names.size() * allPolicies().size() * 2);

    // Reference records: fresh serial simulation, one run at a time,
    // exactly as the report layer would export them.
    std::map<std::string, Classification> classifications;
    std::vector<std::string> expected;
    std::vector<std::string> keys;
    for (const RunSpec &spec : specs) {
        if (!classifications.count(spec.benchmark)) {
            Workload workload = buildWorkload(getProfile(spec.benchmark));
            classifications.emplace(spec.benchmark,
                                    classifyMisses(workload, base));
        }
        Workload workload = buildWorkload(getProfile(spec.benchmark));
        SimResults results = runSimulation(workload, spec.config);
        expected.push_back(
            makeRunRecord(results, spec.config, nullptr,
                          &classifications.at(spec.benchmark))
                .dump());
        keys.push_back(sweepRunKey(spec));
    }

    // Drive the same grid through the fault-tolerant sweep (parallel
    // workers, so the identity also covers scheduling nondeterminism).
    ResultStore store;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    ASSERT_TRUE(store.open(storeOptions));
    {
        ResilientSweepOptions options(store);
        options.parallelism = 4;
        options.makeRecord = [&](size_t index, const SimResults &results) {
            return makeRunRecord(results, specs[index].config, nullptr,
                                 &classifications.at(specs[index].benchmark));
        };
        ResilientSweepResult sweep = runResilientSweep(specs, options);
        ASSERT_TRUE(sweep.allCompleted());
        ASSERT_EQ(sweep.executedRuns, specs.size());
        ASSERT_EQ(store.stats().appendAttempts, specs.size());
        for (size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(sweep.records[i].dump(), expected[i]) << "run " << i;
    }

    // 1) Stored bytes == fresh serial bytes.
    for (size_t i = 0; i < specs.size(); ++i) {
        JsonValue record;
        ASSERT_TRUE(store.get(keys[i], record)) << keys[i];
        EXPECT_EQ(record.dump(), expected[i])
            << specs[i].benchmark << " run " << i;
    }

    // 2) Identity survives a crash-recovery reopen (no close()).
    ResultStore recovered;
    ASSERT_TRUE(recovered.open(storeOptions));
    EXPECT_TRUE(recovered.stats().recovered);
    ASSERT_EQ(recovered.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        JsonValue record;
        ASSERT_TRUE(recovered.get(keys[i], record));
        EXPECT_EQ(record.dump(), expected[i]) << "after recovery, run "
                                              << i;
    }

    // 3) Identity survives compaction and the reopen after it.
    ASSERT_TRUE(recovered.compact());
    for (size_t i = 0; i < specs.size(); ++i) {
        JsonValue record;
        ASSERT_TRUE(recovered.get(keys[i], record));
        EXPECT_EQ(record.dump(), expected[i]) << "after compact, run "
                                              << i;
    }
    ASSERT_TRUE(recovered.close());

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(storeOptions));
    EXPECT_FALSE(reopened.stats().recovered);
    ASSERT_EQ(reopened.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        JsonValue record;
        ASSERT_TRUE(reopened.get(keys[i], record));
        EXPECT_EQ(record.dump(), expected[i])
            << "after compacted reopen, run " << i;
    }
    ASSERT_TRUE(reopened.close());
}

} // namespace
