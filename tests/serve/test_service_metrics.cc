/**
 * @file
 * Service telemetry tests (DESIGN.md §16): the `{"op":"stats"}`
 * control request, instrument population on the request path, and the
 * outcome conservation invariant
 *
 *   accepted == hits + executed + deduped + shed + expired
 *               + poisoned + failed + rejected
 *
 * which must hold at *every* snapshot taken while a duplicate-heavy
 * concurrent batch is in flight, not just after drain.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

/** Tiny budget: a service execution is a real simulation. */
constexpr uint64_t kBudget = 20'000;

std::string
request(uint64_t id, const std::string &benchmark,
        const std::string &configMembers = "")
{
    std::string config = "{\"instruction_budget\":" +
                         std::to_string(kBudget) +
                         (configMembers.empty() ? "" : "," + configMembers) +
                         "}";
    return "{\"id\":" + std::to_string(id) + ",\"benchmark\":\"" +
           benchmark + "\",\"config\":" + config + "}";
}

class Collector
{
  public:
    SweepService::Responder
    responder()
    {
        return [this](const JsonValue &response) {
            std::lock_guard<std::mutex> lock(mutex);
            responses.push_back(response);
            arrived.notify_all();
        };
    }

    std::vector<JsonValue>
    waitFor(size_t count)
    {
        std::unique_lock<std::mutex> lock(mutex);
        arrived.wait(lock, [&] { return responses.size() >= count; });
        return responses;
    }

  private:
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<JsonValue> responses;
};

uint64_t
member(const JsonValue &row, const char *name)
{
    const JsonValue *value = row.find(name);
    EXPECT_NE(value, nullptr) << name;
    return value ? value->asUint() : 0;
}

/** The invariant's right side, from a serialized service object. */
uint64_t
outcomeSumOf(const JsonValue &service)
{
    return member(service, "hits") + member(service, "executed") +
           member(service, "deduped") + member(service, "shed") +
           member(service, "expired") + member(service, "poisoned") +
           member(service, "failed") + member(service, "rejected");
}

class ServiceMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = uniqueTempPath("service_metrics");
        wipe();
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        storeOptions.metrics = &registry;
        ASSERT_TRUE(store.open(storeOptions));
    }

    void
    TearDown() override
    {
        store.close();
        wipe();
    }

    void
    wipe()
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

    MetricsRegistry registry;
    ResultStore store;
    std::string dir;
};

} // namespace

TEST_F(ServiceMetricsTest, StatsOpAnswersWithoutTouchingTheStore)
{
    SweepService::Options options;
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit("{\"id\":42,\"op\":\"stats\"}",
                   collector.responder());
    auto responses = collector.waitFor(1);
    service.drain();

    const JsonValue &response = responses[0];
    EXPECT_EQ(response.find("status")->asString(), "ok");
    EXPECT_EQ(response.find("id")->asUint(), 42u);
    const JsonValue *stats = response.find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue *serviceStats = stats->find("service");
    ASSERT_NE(serviceStats, nullptr);
    EXPECT_EQ(member(*serviceStats, "requests"), 1u);
    EXPECT_EQ(member(*serviceStats, "stats_ops"), 1u);
    EXPECT_EQ(member(*serviceStats, "accepted"), 0u);
    EXPECT_TRUE(serviceStats->find("conserved")->asBool());
    ASSERT_NE(stats->find("store"), nullptr);
    EXPECT_EQ(member(*stats->find("store"), "records"), 0u);
    // The registry sections exist even before any instrument fired.
    EXPECT_NE(stats->find("counters"), nullptr);
    EXPECT_NE(stats->find("gauges"), nullptr);
    EXPECT_NE(stats->find("histograms"), nullptr);
    // No run was looked up, executed, or stored.
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(service.statsSnapshot().accepted, 0u);
}

TEST_F(ServiceMetricsTest, StatsOpWorksWithoutARegistry)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit("{\"op\":\"stats\"}", collector.responder());
    auto responses = collector.waitFor(1);
    service.drain();
    const JsonValue *stats = responses[0].find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->find("service"), nullptr);
    EXPECT_NE(stats->find("counters"), nullptr);
    EXPECT_EQ(stats->find("counters")->members().size(), 0u);
}

TEST_F(ServiceMetricsTest, RequestPathPopulatesInstruments)
{
    SweepService::Options options;
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder()); // miss
    collector.waitFor(1);
    service.submit(request(2, "li"), collector.responder()); // hit
    collector.waitFor(2);
    service.submit("not json", collector.responder()); // rejected
    collector.waitFor(3);
    service.drain();

    MetricsSnapshot snapshot = registry.snapshot();
    auto histogramCount = [&](const std::string &name) -> uint64_t {
        for (const HistogramSnapshot &h : snapshot.histograms) {
            if (h.name == name)
                return h.count;
        }
        return 0;
    };
    auto gaugeValue = [&](const std::string &name) -> uint64_t {
        for (const auto &[gaugeName, value] : snapshot.gauges) {
            if (gaugeName == name)
                return value;
        }
        return 0;
    };
    EXPECT_EQ(histogramCount("service.execute_us.executed"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.executed"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.hit"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.rejected"), 1u);
    EXPECT_EQ(histogramCount("store.put_us"), 1u);
    EXPECT_GE(histogramCount("store.get_us"), 2u); // hit + rider-free get
    EXPECT_GE(histogramCount("store.fsync_us"), 1u);
    EXPECT_EQ(gaugeValue("store.records"), 1u);
    EXPECT_EQ(gaugeValue("service.workers"), 1u);

    // The worker spent measurable time on both sides of the loop.
    uint64_t busy = 0;
    uint64_t idle = 0;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "service.worker_busy_us")
            busy = value;
        if (name == "service.worker_idle_us")
            idle = value;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GT(idle, 0u);

    JsonValue health = JsonValue::object();
    service.healthMembers(health);
    EXPECT_EQ(member(health, "accepted"), 3u);
    EXPECT_EQ(member(health, "stats_ops"), 0u);
}

TEST_F(ServiceMetricsTest, ConservationHoldsAtEverySnapshotUnderLoad)
{
    SweepService::Options options;
    options.workers = 3;
    options.queueBound = 8; // small: force real shedding
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();

    // A duplicate-heavy mixed batch: 4 submitter threads hammer a
    // 3-key space (dedupe + hits), sprinkle malformed lines (rejected)
    // and stats ops, while a sampler thread checks the invariant on
    // both the typed snapshot and the serialized stats body.
    constexpr unsigned kSubmitters = 4;
    constexpr unsigned kPerThread = 40;
    const char *benchmarks[] = {"li", "gcc", "tex"};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> violations{0};
    std::atomic<uint64_t> samples{0};

    std::thread sampler([&] {
        while (!done.load()) {
            SweepService::Stats stats = service.statsSnapshot();
            if (stats.accepted != stats.outcomeSum())
                violations.fetch_add(1);
            JsonValue body = service.serviceStatsJson();
            if (member(body, "accepted") != outcomeSumOf(body) ||
                !body.find("conserved")->asBool())
                violations.fetch_add(1);
            samples.fetch_add(1);
        }
    });

    Collector collector;
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                if (i % 13 == 5) {
                    service.submit("broken {", collector.responder());
                } else if (i % 17 == 7) {
                    service.submit("{\"op\":\"stats\"}",
                                   collector.responder());
                } else {
                    service.submit(
                        request(t * 1000 + i, benchmarks[i % 3]),
                        collector.responder());
                }
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    collector.waitFor(kSubmitters * kPerThread);
    service.drain();
    done.store(true);
    sampler.join();

    EXPECT_GT(samples.load(), 0u);
    EXPECT_EQ(violations.load(), 0u);

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.requests, kSubmitters * kPerThread);
    // Every non-control request ended in exactly one outcome class.
    EXPECT_EQ(stats.accepted, stats.outcomeSum());
    EXPECT_EQ(stats.requests, stats.accepted + stats.statsOps);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.executed, 3u); // one real run per distinct key
    EXPECT_GT(stats.hits + stats.deduped, 0u);
}
