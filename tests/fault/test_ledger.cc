/**
 * @file
 * Write-ahead ledger tests: append/load round trips, CRC rejection of
 * flipped bytes, torn-tail recovery (the kill-during-append case), and
 * tolerance of corrupt interior lines.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/injector.hh"
#include "fault/ledger.hh"
#include "report/json.hh"
#include "util/checksum.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

class LedgerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = uniqueTempPath("sweep.ledger");
        std::remove(path.c_str());
    }

    void TearDown() override { std::remove(path.c_str()); }

    JsonValue
    record(uint64_t value)
    {
        JsonValue out = JsonValue::object();
        out.set("record", JsonValue::string("run"));
        out.set("value", JsonValue::integer(value));
        return out;
    }

    std::string
    slurp()
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    void
    spill(const std::string &content)
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    }

    std::string path;
};

TEST_F(LedgerTest, AppendLoadRoundTrip)
{
    {
        SweepLedger ledger(path);
        ASSERT_TRUE(ledger.ok());
        EXPECT_TRUE(ledger.append("k0", record(10)));
        EXPECT_TRUE(ledger.append("k1", record(11)));
        EXPECT_EQ(ledger.entriesWritten(), 2u);
    }
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_EQ(load.entries[1].key, "k1");
    EXPECT_EQ(load.entries[0].record, record(10));
    EXPECT_EQ(load.entries[1].record, record(11));
    EXPECT_EQ(load.corruptLines, 0u);
    EXPECT_FALSE(load.tornTail);
}

TEST_F(LedgerTest, MissingFileFailsWithReason)
{
    LedgerLoad load;
    std::string error;
    EXPECT_FALSE(loadLedger(path + ".nope", load, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(LedgerTest, EmptyFileLoadsEmpty)
{
    spill("");
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    EXPECT_TRUE(load.entries.empty());
    EXPECT_FALSE(load.tornTail);
}

TEST_F(LedgerTest, TornTailIsDroppedNotFatal)
{
    {
        SweepLedger ledger(path);
        ledger.append("k0", record(10));
        ledger.appendTorn("k1", record(11));
    }
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 1u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_TRUE(load.tornTail);
    EXPECT_EQ(load.corruptLines, 0u);
}

TEST_F(LedgerTest, FlippedByteFailsTheLineOnly)
{
    {
        SweepLedger ledger(path);
        ledger.append("k0", record(10));
        ledger.append("k1", record(11));
        ledger.append("k2", record(12));
    }
    std::string content = slurp();
    // Flip one payload byte of the middle line.
    size_t second_line = content.find('\n') + 1;
    content[second_line + 15] ^= 0x04;
    spill(content);

    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_EQ(load.entries[1].key, "k2");
    EXPECT_EQ(load.corruptLines, 1u);
    EXPECT_FALSE(load.tornTail);
}

TEST_F(LedgerTest, GarbageLinesAreSkipped)
{
    {
        SweepLedger ledger(path);
        ledger.append("k0", record(10));
    }
    std::string content = "not a ledger line\nzz\n" + slurp() +
        "deadbeef {\"key\":\"x\"}\n";
    spill(content);

    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 1u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_EQ(load.corruptLines, 3u);
}

TEST_F(LedgerTest, ChecksummedButMisshapenEntryIsRejected)
{
    // Lines whose CRC is honest but whose payload lacks the
    // {key: string, record: object} shape: rejected on shape, not
    // crashed on downstream.
    {
        SweepLedger ledger(path);
        ledger.append("good", record(1));
    }
    std::string content = slurp();
    for (const char *payload :
         {"[1,2,3]", "{\"key\":\"x\"}", "{\"key\":7,\"record\":{}}",
          "{\"key\":\"x\",\"record\":\"not an object\"}"}) {
        std::string text = payload;
        content += crcHex(crc32(text)) + " " + text + "\n";
    }
    spill(content);

    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    EXPECT_EQ(load.entries.size(), 1u);
    EXPECT_EQ(load.corruptLines, 4u);
}

TEST_F(LedgerTest, UnwritablePathReportsNotOk)
{
    SweepLedger ledger("/nonexistent-dir/sweep.ledger");
    EXPECT_FALSE(ledger.ok());
    EXPECT_FALSE(ledger.append("k", record(1)));
}

TEST_F(LedgerTest, InjectedEnospcFailsWithoutCorrupting)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("enospc@1", injector));
    {
        SweepLedger ledger(path);
        ledger.setInjector(&injector);
        EXPECT_TRUE(ledger.append("k0", record(0)));
        EXPECT_FALSE(ledger.append("k1", record(1))); // injected
        EXPECT_TRUE(ledger.append("k2", record(2)));
        EXPECT_EQ(ledger.entriesWritten(), 2u);
    }
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_EQ(load.entries[1].key, "k2");
    EXPECT_EQ(load.corruptLines, 0u);
    EXPECT_FALSE(load.tornTail);
}

TEST_F(LedgerTest, InjectedShortWriteResyncsNextAppend)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        SweepLedger ledger(path);
        ledger.setInjector(&injector);
        EXPECT_TRUE(ledger.append("k0", record(0)));
        EXPECT_FALSE(ledger.append("k1", record(1))); // torn prefix
        // The resync newline fences the torn frame off from this one.
        EXPECT_TRUE(ledger.append("k2", record(2)));
    }
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 2u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_EQ(load.entries[1].key, "k2");
    EXPECT_EQ(load.corruptLines, 1u); // the fenced torn prefix
    EXPECT_FALSE(load.tornTail);
}

TEST_F(LedgerTest, ShortWriteAtTailIsDroppedAsTorn)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        SweepLedger ledger(path);
        ledger.setInjector(&injector);
        EXPECT_TRUE(ledger.append("k0", record(0)));
        EXPECT_FALSE(ledger.append("k1", record(1)));
        // Process dies here: the torn frame is the final line.
    }
    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    ASSERT_EQ(load.entries.size(), 1u);
    EXPECT_EQ(load.entries[0].key, "k0");
    EXPECT_TRUE(load.tornTail);
}

TEST_F(LedgerTest, SigtermFlushKeepsJournaledRuns)
{
    // An orchestrator SIGTERM must not lose runs that already
    // completed: the signal-flush handler fsyncs the ledger before
    // the default disposition kills the process.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        SweepLedger ledger(path);
        SweepLedger::installSignalFlush();
        for (uint64_t i = 0; i < 5; ++i) {
            std::string key = "k";
            key += std::to_string(i);
            ledger.append(key, record(i));
        }
        std::raise(SIGTERM);
        _exit(0); // unreachable: SIGTERM terminates after the flush
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    LedgerLoad load;
    ASSERT_TRUE(loadLedger(path, load));
    EXPECT_EQ(load.entries.size(), 5u);
    EXPECT_EQ(load.corruptLines, 0u);
    EXPECT_FALSE(load.tornTail);
}

} // namespace
