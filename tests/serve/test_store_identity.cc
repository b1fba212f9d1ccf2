/**
 * @file
 * Store <-> simulator byte-identity property (DESIGN.md §15): for the
 * full paper grid — 13 workloads × 5 policies × prefetch on/off — the
 * record a SweepService stores and serves is byte-for-byte the record
 * a fresh, serial runSimulation produces. The identity must also hold
 * after a crash-recovery reopen (no clean marker) and after
 * compaction, or a daemon restart could silently change results.
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
#include "metrics/metrics.hh"
#include "report/record.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
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

    // Drive the same grid through the service (parallel workers, so
    // the identity also covers scheduling nondeterminism) — with
    // telemetry armed: instrumentation must never change a stored or
    // served byte (DESIGN.md §16).
    MetricsRegistry registry;
    ResultStore store;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    storeOptions.metrics = &registry;
    ASSERT_TRUE(store.open(storeOptions));
    {
        SweepService::Options serviceOptions;
        serviceOptions.workers = 4;
        serviceOptions.queueBound = specs.size();
        serviceOptions.metrics = &registry;
        SweepService service(store, serviceOptions);
        service.start();
        for (const RunSpec &spec : specs) {
            JsonValue request = JsonValue::object();
            request.set("benchmark", JsonValue::string(spec.benchmark));
            request.set("config", toJson(spec.config));
            service.submit(request.dump(), [](const JsonValue &) {});
        }
        service.drain();
        ASSERT_EQ(service.statsSnapshot().executed, specs.size());
        // The instrumentation actually fired while the bytes stayed
        // identical below.
        ASSERT_EQ(service.statsSnapshot().accepted,
                  service.statsSnapshot().outcomeSum());
    }
    {
        MetricsSnapshot snapshot = registry.snapshot();
        uint64_t putCount = 0;
        for (const HistogramSnapshot &histogram : snapshot.histograms) {
            if (histogram.name == "store.put_us")
                putCount = histogram.count;
        }
        ASSERT_EQ(putCount, specs.size());
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
