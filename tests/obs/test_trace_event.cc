/**
 * @file
 * Tests for the Chrome trace-event sink (src/obs): span buffering,
 * the document written on close, thread-id mapping, and the
 * disabled-path no-op guarantees. The sink is a process global, so
 * every test leaves it closed.
 */

#include "obs/trace_event.hh"
#include "temp_path.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace specfetch;

namespace {

std::string
tempTracePath(const char *tag)
{
    return uniqueTempPath(std::string(tag) + ".json");
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class TraceEventTest : public testing::Test
{
  protected:
    /** The singleton must not leak an open sink between tests. */
    void TearDown() override { TraceEventSink::global().close(); }
};

TEST_F(TraceEventTest, DisabledSinkRecordsNothing)
{
    TraceEventSink &sink = TraceEventSink::global();
    ASSERT_FALSE(sink.enabled());
    {
        TraceSpan span("ignored", "test");
    }
    EXPECT_EQ(sink.pendingSpans(), 0u);
    // Closing a never-opened sink is a harmless no-op.
    EXPECT_TRUE(sink.close());
}

TEST_F(TraceEventTest, SpansLandInTheDocument)
{
    std::string path = tempTracePath("basic");
    TraceEventSink &sink = TraceEventSink::global();
    sink.open(path);
    ASSERT_TRUE(sink.enabled());
    {
        TraceSpan outer("sweep", "test");
        TraceSpan inner("run", "test", "li Optimistic");
    }
    EXPECT_EQ(sink.pendingSpans(), 2u);
    ASSERT_TRUE(sink.close());
    EXPECT_FALSE(sink.enabled());

    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"run\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"detail\":\"li Optimistic\""),
              std::string::npos);
    // The span without detail must not carry an empty args object.
    EXPECT_EQ(doc.find("\"detail\":\"\""), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceEventTest, ThreadsGetSmallDistinctTids)
{
    std::string path = tempTracePath("tids");
    TraceEventSink &sink = TraceEventSink::global();
    sink.open(path);
    {
        TraceSpan main_span("main_work", "test");
        std::thread worker([] { TraceSpan span("worker_work", "test"); });
        worker.join();
    }
    ASSERT_TRUE(sink.close());

    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\":2"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceEventTest, CloseStopsCollection)
{
    std::string path = tempTracePath("stop");
    TraceEventSink &sink = TraceEventSink::global();
    sink.open(path);
    {
        TraceSpan span("before_close", "test");
    }
    ASSERT_TRUE(sink.close());
    {
        TraceSpan span("after_close", "test");
    }
    EXPECT_EQ(sink.pendingSpans(), 0u);

    std::string doc = slurp(path);
    EXPECT_NE(doc.find("before_close"), std::string::npos);
    EXPECT_EQ(doc.find("after_close"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceEventTest, UnwritablePathFailsOnClose)
{
    TraceEventSink &sink = TraceEventSink::global();
    sink.open("/nonexistent-dir/trace.json");
    {
        TraceSpan span("doomed", "test");
    }
    testing::internal::CaptureStderr();
    EXPECT_FALSE(sink.close());
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("trace"), std::string::npos);
}

} // namespace
