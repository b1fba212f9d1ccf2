/**
 * @file
 * SweepService tests (DESIGN.md §15): request validation surface,
 * store hits vs. executions, single-flight dedupe, admission control
 * and load shedding, poison quarantine, deadlines, graceful drain,
 * and the socket round trip.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "serve/socket.hh"
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

/** Collects responses; submit() may answer from a worker thread. */
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
        arrived.wait(lock,
                     [&] { return responses.size() >= count; });
        return responses;
    }

  private:
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<JsonValue> responses;
};

std::string
statusOf(const JsonValue &response)
{
    const JsonValue *status = response.find("status");
    return status ? status->asString() : "";
}

std::string
errorTypeOf(const JsonValue &response)
{
    const JsonValue *error = response.find("error");
    if (!error)
        return "";
    const JsonValue *type = error->find("type");
    return type ? type->asString() : "";
}

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = uniqueTempPath("service_store");
        // A previous run (ctest re-executes each test in its own
        // process) may have left store segments behind; a stale hit
        // would turn the first miss of this test into a cache hit.
        wipe();
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
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

    ResultStore store;
    std::string dir;
};

TEST_F(ServiceTest, TypedErrorsNeverCrash)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit("not json at all", collector.responder());
    service.submit("[1,2,3]", collector.responder());
    service.submit("{\"id\":9,\"benchmark\":\"no-such\"}",
                   collector.responder());
    service.submit("{\"id\":10,\"benchmark\":\"gcc\",\"bogus\":1}",
                   collector.responder());
    service.submit("{\"id\":11,\"benchmark\":\"gcc\","
                   "\"config\":{\"no_such_member\":1}}",
                   collector.responder());
    service.submit("{\"id\":12,\"benchmark\":\"gcc\","
                   "\"config\":{\"issue_width\":0}}",
                   collector.responder());
    auto responses = collector.waitFor(6);
    EXPECT_EQ(errorTypeOf(responses[0]), "malformed_json");
    EXPECT_EQ(errorTypeOf(responses[1]), "malformed_json");
    EXPECT_EQ(errorTypeOf(responses[2]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[3]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[4]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[5]), "bad_request");
    // Rejections echo the id they could salvage.
    const JsonValue *id = responses[2].find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->asUint(), 9u);
    service.drain();
    EXPECT_EQ(service.statsSnapshot().rejected, 6u);
    EXPECT_EQ(service.statsSnapshot().executed, 0u);
}

TEST_F(ServiceTest, MissExecutesThenHitServes)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    auto first = collector.waitFor(1);
    ASSERT_EQ(statusOf(first[0]), "ok");
    EXPECT_FALSE(first[0].find("cached")->asBool());
    const JsonValue *run = first[0].find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_NE(run->find("counters"), nullptr);

    service.submit(request(2, "li"), collector.responder());
    auto second = collector.waitFor(2);
    ASSERT_EQ(statusOf(second[1]), "ok");
    EXPECT_TRUE(second[1].find("cached")->asBool());
    EXPECT_EQ(*second[1].find("run"), *run);
    service.drain();

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(store.size(), 1u);
}

TEST_F(ServiceTest, SingleFlightDedupe)
{
    // Gate the worker so duplicates pile up behind one leader.
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> executionsStarted{0};

    SweepService::Options options;
    options.workers = 2;
    options.testBeforeExecute = [&] {
        ++executionsStarted;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    for (uint64_t i = 0; i < 5; ++i)
        service.submit(request(i, "li"), collector.responder());
    while (executionsStarted.load() == 0)
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(5);
    service.drain();

    for (const JsonValue &response : responses)
        EXPECT_EQ(statusOf(response), "ok");
    SweepService::Stats stats = service.statsSnapshot();
    // One execution; every duplicate rode it or hit the store.
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.deduped + stats.hits, 4u);
    EXPECT_EQ(executionsStarted.load(), 1u);
}

TEST_F(ServiceTest, OverloadShedsBeyondQueueBound)
{
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> started{0};

    SweepService::Options options;
    options.workers = 1;
    options.queueBound = 3;
    options.testBeforeExecute = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    // Distinct keys so nothing dedupes: only queueBound are admitted.
    const char *benchmarks[] = {"li", "gcc", "tex", "doduc",
                                "groff", "idl"};
    for (uint64_t i = 0; i < 6; ++i)
        service.submit(request(i, benchmarks[i]), collector.responder());
    while (started.load() == 0)
        std::this_thread::yield();

    // The overflow was answered immediately with backoff hints.
    auto early = collector.waitFor(3);
    size_t shed = 0;
    for (const JsonValue &response : early) {
        if (statusOf(response) != "error")
            continue;
        EXPECT_EQ(errorTypeOf(response), "overloaded");
        const JsonValue *backoff =
            response.find("error")->find("backoff_seconds");
        ASSERT_NE(backoff, nullptr);
        EXPECT_GT(backoff->asDouble(), 0.0);
        ++shed;
    }
    EXPECT_EQ(shed, 3u);

    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(6);
    service.drain();

    size_t completed = 0;
    for (const JsonValue &response : responses) {
        if (statusOf(response) == "ok")
            ++completed;
    }
    // Everything admitted completed; everything shed stayed shed.
    EXPECT_EQ(completed, 3u);
    EXPECT_EQ(service.statsSnapshot().shed, 3u);
    EXPECT_EQ(service.statsSnapshot().executed, 3u);
}

TEST_F(ServiceTest, PoisonAfterRepeatedFailures)
{
    SweepService::Options options;
    options.maxAttempts = 1;
    options.poisonThreshold = 2;
    FaultInjector injector;
    // Every executed-run ordinal throws on every attempt.
    ASSERT_TRUE(FaultInjector::parse(
        "throw@0x*,throw@1x*,throw@2x*,throw@3x*", injector));
    options.injector = &injector;
    SweepService service(store, options);
    service.start();
    Collector collector;

    service.submit(request(1, "li"), collector.responder());
    auto first = collector.waitFor(1);
    EXPECT_EQ(errorTypeOf(first[0]), "run_failed");
    const JsonValue *attempts = first[0].find("error")->find("attempts");
    ASSERT_NE(attempts, nullptr);
    EXPECT_EQ(attempts->asUint(), 1u);

    service.submit(request(2, "li"), collector.responder());
    auto second = collector.waitFor(2);
    EXPECT_EQ(errorTypeOf(second[1]), "poisoned");

    // Once poisoned, the key is refused without executing.
    service.submit(request(3, "li"), collector.responder());
    auto third = collector.waitFor(3);
    EXPECT_EQ(errorTypeOf(third[2]), "poisoned");
    service.drain();

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.poisoned, 2u);
    EXPECT_EQ(store.size(), 0u);
}

TEST_F(ServiceTest, DeadlineExpiryAnswersWithBackoff)
{
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> started{0};

    SweepService::Options options;
    options.workers = 1;
    options.requestDeadlineSeconds = 0.05;
    options.testBeforeExecute = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    service.submit(request(2, "gcc"), collector.responder());
    while (started.load() == 0)
        std::this_thread::yield();
    // Hold the worker until the queued request's deadline expires.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(2);
    service.drain();

    size_t expired = 0;
    for (const JsonValue &response : responses) {
        if (errorTypeOf(response) == "deadline_exceeded") {
            const JsonValue *backoff =
                response.find("error")->find("backoff_seconds");
            ASSERT_NE(backoff, nullptr);
            EXPECT_GT(backoff->asDouble(), 0.0);
            ++expired;
        }
    }
    EXPECT_EQ(expired, 1u);
    EXPECT_EQ(service.statsSnapshot().expired, 1u);
}

TEST_F(ServiceTest, DrainRefusesNewWorkAndFinishesAdmitted)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    collector.waitFor(1);
    service.drain();

    service.submit(request(2, "gcc"), collector.responder());
    auto responses = collector.waitFor(2);
    EXPECT_EQ(errorTypeOf(responses[1]), "shutting_down");
    EXPECT_EQ(service.statsSnapshot().executed, 1u);

    // Drained service + closed store = durable, clean shutdown.
    EXPECT_TRUE(store.close());
}

TEST_F(ServiceTest, HealthMembersExposeCounters)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    collector.waitFor(1);
    service.drain();

    JsonValue row = JsonValue::object();
    service.healthMembers(row);
    ASSERT_NE(row.find("requests"), nullptr);
    EXPECT_EQ(row.find("requests")->asUint(), 1u);
    EXPECT_EQ(row.find("executed")->asUint(), 1u);
    EXPECT_EQ(row.find("store_records")->asUint(), 1u);
    ASSERT_NE(row.find("queue_depth"), nullptr);
    EXPECT_EQ(row.find("queue_depth")->asUint(), 0u);
}

TEST_F(ServiceTest, SocketRoundTripInRequestOrder)
{
    SweepService::Options options;
    options.workers = 2;
    SweepService service(store, options);
    service.start();

    std::string socketPath = dir + ".sock";
    UnixSocketServer listener;
    std::string error;
    ASSERT_TRUE(listener.listen(socketPath, &error)) << error;

    std::atomic<bool> stop{false};
    std::thread acceptor([&] {
        int client = listener.accept(/*pollSeconds=*/5.0);
        ASSERT_GE(client, 0);
        serveStream(client, client, service, &stop);
        ::close(client);
    });

    // Mixed batch: two real runs, a duplicate, and two rejects.
    std::vector<std::string> requests = {
        request(0, "li"),
        "garbage",
        request(2, "gcc"),
        request(3, "li"),
        "{\"id\":4,\"benchmark\":\"no-such\"}",
    };
    std::vector<std::string> responses;
    ASSERT_TRUE(serviceBatch(socketPath, requests, responses, &error))
        << error;
    acceptor.join();
    listener.close();
    service.drain();

    ASSERT_EQ(responses.size(), requests.size());
    // Responses land in request order regardless of completion order.
    for (size_t i = 0; i < responses.size(); ++i) {
        JsonValue response;
        ASSERT_TRUE(JsonValue::parse(responses[i], response));
        const JsonValue *id = response.find("id");
        if (id && id->isUint()) {
            EXPECT_EQ(id->asUint(), i);
        }
        EXPECT_EQ(statusOf(response), i == 1 || i == 4 ? "error" : "ok");
    }
    EXPECT_EQ(service.statsSnapshot().executed, 2u);
    EXPECT_EQ(service.statsSnapshot().deduped +
                  service.statsSnapshot().hits,
              1u);
}

} // namespace
