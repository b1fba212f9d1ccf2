/**
 * @file
 * Tests for the sweep progress heartbeat (src/obs): the final JSONL
 * row, event counting, multi-sweep appends, and the disabled-path
 * no-ops. The reporter is a process global, so every test pairs its
 * begin() with end().
 */

#include "obs/progress.hh"

#include <gtest/gtest.h>

#include <cstdio>

#include "report/json.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

std::string
tempProgressPath(const char *tag)
{
    return uniqueTempPath(std::string(tag) + ".jsonl");
}

ProgressReporter::Options
fileOnly(const std::string &path)
{
    ProgressReporter::Options options;
    options.toStderr = false;
    options.filePath = path;
    // Heartbeats far apart: the tests assert on the final row only.
    options.intervalSeconds = 3600.0;
    return options;
}

uint64_t
integerMember(const JsonValue &row, const char *name)
{
    const JsonValue *member = row.find(name);
    EXPECT_NE(member, nullptr) << "row lacks '" << name << "'";
    return member ? member->asUint() : 0;
}

TEST(ProgressReporter, FinalRowSummarizesTheSweep)
{
    std::string path = tempProgressPath("final");
    ProgressReporter &reporter = ProgressReporter::global();
    reporter.begin(fileOnly(path), 5, "unit_sweep");
    ASSERT_TRUE(reporter.enabled());
    for (int i = 0; i < 3; ++i)
        reporter.runCompleted();
    reporter.runResumed();
    reporter.runRetried();
    reporter.runQuarantined();
    reporter.end();
    EXPECT_FALSE(reporter.enabled());

    std::vector<JsonValue> rows;
    std::string error;
    ASSERT_TRUE(readJsonl(path, rows, &error)) << error;
    ASSERT_FALSE(rows.empty());
    const JsonValue &final_row = rows.back();
    EXPECT_EQ(integerMember(final_row, "schema_version"), 1u);
    EXPECT_EQ(final_row.find("record")->asString(), "progress");
    EXPECT_EQ(final_row.find("sweep")->asString(), "unit_sweep");
    // runResumed() counts as completed too: 3 + 1.
    EXPECT_EQ(integerMember(final_row, "completed"), 4u);
    EXPECT_EQ(integerMember(final_row, "total"), 5u);
    EXPECT_EQ(integerMember(final_row, "resumed"), 1u);
    EXPECT_EQ(integerMember(final_row, "retried"), 1u);
    EXPECT_EQ(integerMember(final_row, "quarantined"), 1u);
    EXPECT_TRUE(final_row.find("final")->asBool());
    EXPECT_NE(final_row.find("elapsed_seconds"), nullptr);
    EXPECT_NE(final_row.find("eta_seconds"), nullptr);
    std::remove(path.c_str());
}

TEST(ProgressReporter, EventsBeforeBeginAreIgnored)
{
    ProgressReporter &reporter = ProgressReporter::global();
    ASSERT_FALSE(reporter.enabled());
    reporter.runCompleted();
    reporter.runQuarantined();

    std::string path = tempProgressPath("clean");
    reporter.begin(fileOnly(path), 2, "clean_sweep");
    reporter.runCompleted();
    reporter.end();

    std::vector<JsonValue> rows;
    std::string error;
    ASSERT_TRUE(readJsonl(path, rows, &error)) << error;
    EXPECT_EQ(integerMember(rows.back(), "completed"), 1u);
    EXPECT_EQ(integerMember(rows.back(), "quarantined"), 0u);
    std::remove(path.c_str());
}

TEST(ProgressReporter, LaterSweepsAppendToTheSameFile)
{
    std::string path = tempProgressPath("append");
    ProgressReporter &reporter = ProgressReporter::global();

    reporter.begin(fileOnly(path), 1, "first");
    reporter.runCompleted();
    reporter.end();
    reporter.begin(fileOnly(path), 1, "second");
    reporter.runCompleted();
    reporter.end();

    std::vector<JsonValue> rows;
    std::string error;
    ASSERT_TRUE(readJsonl(path, rows, &error)) << error;
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows.front().find("sweep")->asString(), "first");
    EXPECT_EQ(rows.back().find("sweep")->asString(), "second");
    std::remove(path.c_str());
}

TEST(ProgressReporter, DoubleBeginPanics)
{
    std::string path = tempProgressPath("double");
    ProgressReporter &reporter = ProgressReporter::global();
    reporter.begin(fileOnly(path), 1, "outer");
    {
        ScopedThrowOnError guard;
        EXPECT_THROW(reporter.begin(fileOnly(path), 1, "inner"),
                     SimulationError);
    }
    reporter.end();
    std::remove(path.c_str());
}

TEST(ProgressReporter, EndWithoutBeginIsANoOp)
{
    ProgressReporter &reporter = ProgressReporter::global();
    ASSERT_FALSE(reporter.enabled());
    reporter.end();
    EXPECT_FALSE(reporter.enabled());
}

} // namespace
