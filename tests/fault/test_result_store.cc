/**
 * @file
 * ResultStore tests (DESIGN.md §10): durability round trips, clean
 * vs. recovered opens, torn-tail and corrupt-frame handling, segment
 * rotation, file-name parsing, injected write failures, and
 * kill-anywhere compaction (death tests at every crash point assert
 * reopen loses nothing).
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "fault/result_store.hh"
#include "util/checksum.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = uniqueTempPath("result_store");
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        for (const std::string &name : listFiles())
            std::remove((dir + "/" + name).c_str());
        rmdir(dir.c_str());
    }

    std::vector<std::string>
    listFiles() const
    {
        std::vector<std::string> names;
        // Readdir via a shell-free scan: reuse opendir through the
        // store's own observable behaviour instead would be circular,
        // so go straight at the directory.
        if (DIR *handle = opendir(dir.c_str())) {
            while (struct dirent *entry = readdir(handle)) {
                std::string name = entry->d_name;
                if (name != "." && name != "..")
                    names.push_back(name);
            }
            closedir(handle);
        }
        return names;
    }

    bool
    fileExists(const std::string &name) const
    {
        struct stat info;
        return stat((dir + "/" + name).c_str(), &info) == 0;
    }

    JsonValue
    record(uint64_t value)
    {
        JsonValue out = JsonValue::object();
        out.set("record", JsonValue::string("run"));
        out.set("value", JsonValue::integer(value));
        return out;
    }

    ResultStore::Options
    options()
    {
        ResultStore::Options opts;
        opts.dir = dir;
        return opts;
    }

    /** Populate a store with @p count records and close it cleanly. */
    void
    seed(size_t count)
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        for (size_t i = 0; i < count; ++i) {
            ASSERT_TRUE(
                store.put("key" + std::to_string(i), record(i)));
        }
        ASSERT_TRUE(store.close());
    }

    std::string dir;
};

TEST_F(ResultStoreTest, PutGetRoundTrip)
{
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(options(), &error)) << error;
    EXPECT_FALSE(store.stats().recovered);

    JsonValue out;
    EXPECT_FALSE(store.get("missing", out));
    EXPECT_TRUE(store.put("a", record(1)));
    EXPECT_TRUE(store.put("b", record(2)));
    EXPECT_EQ(store.size(), 2u);
    ASSERT_TRUE(store.get("a", out));
    EXPECT_EQ(out, record(1));

    // Duplicate puts are free hits, not appends.
    EXPECT_TRUE(store.put("a", record(1)));
    EXPECT_EQ(store.stats().duplicatePuts, 1u);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.close());
    EXPECT_TRUE(fileExists("CLEAN"));
}

TEST_F(ResultStoreTest, CleanReopenKeepsRecords)
{
    seed(5);
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_FALSE(store.stats().recovered);
    EXPECT_FALSE(fileExists("CLEAN")); // consumed at open
    EXPECT_EQ(store.size(), 5u);
    JsonValue out;
    ASSERT_TRUE(store.get("key3", out));
    EXPECT_EQ(out, record(3));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, ReopenWithoutCloseIsRecovery)
{
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        ASSERT_TRUE(store.put("a", record(7)));
        // Destruction without close(): a crash as far as the next
        // open is concerned.
    }
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    JsonValue out;
    ASSERT_TRUE(store.get("a", out));
    EXPECT_EQ(out, record(7));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, TornTailLineIsDropped)
{
    seed(3);
    // Append a half-written frame to the newest tail, as a crash
    // mid-append would leave it.
    std::string tailPath;
    for (const std::string &name : listFiles()) {
        if (name.rfind("tail-", 0) == 0)
            tailPath = dir + "/" + name;
    }
    ASSERT_FALSE(tailPath.empty());
    {
        std::ofstream out(tailPath, std::ios::binary | std::ios::app);
        out << "deadbeef {\"key\":\"torn\",\"rec";
    }
    std::remove((dir + "/CLEAN").c_str());

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().tornTail);
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(store.stats().corruptFrames, 0u); // torn != corrupt
    EXPECT_EQ(store.size(), 3u);
    JsonValue out;
    EXPECT_FALSE(store.get("torn", out));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, CorruptInteriorFrameIsQuarantined)
{
    seed(3);
    // Flip a byte inside the middle record's JSON, then append lines
    // that fail in every other way an interior frame can: a flipped
    // CRC digit, garbage, and checksummed payloads of the wrong shape.
    std::string tailPath;
    for (const std::string &name : listFiles()) {
        if (name.rfind("tail-", 0) == 0)
            tailPath = dir + "/" + name;
    }
    ASSERT_FALSE(tailPath.empty());
    std::string content;
    {
        std::ifstream in(tailPath, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
    size_t key1 = content.find("key1");
    ASSERT_NE(key1, std::string::npos);
    content[key1 + 3] = '?';
    std::string good = "{\"key\":\"key9\",\"record\":{\"value\":9}}";
    std::string flippedCrc = crcHex(crc32(good)) + " " + good;
    flippedCrc[0] = flippedCrc[0] == '0' ? '1' : '0';
    content += flippedCrc + "\nnot a store frame\nzz\n";
    for (const char *payload :
         {"[1,2,3]", "{\"key\":\"x\"}", "{\"key\":7,\"record\":{}}",
          "{\"key\":\"x\",\"record\":\"not an object\"}"}) {
        std::string text = payload;
        content += crcHex(crc32(text)) + " " + text + "\n";
    }
    {
        std::ofstream out(tailPath, std::ios::binary | std::ios::trunc);
        out << content;
    }

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.stats().corruptFrames, 8u);
    EXPECT_FALSE(store.stats().tornTail);
    EXPECT_EQ(store.size(), 2u);
    JsonValue out;
    EXPECT_TRUE(store.get("key0", out));
    EXPECT_FALSE(store.get("key1", out));
    EXPECT_TRUE(store.get("key2", out));
    EXPECT_FALSE(store.get("key9", out));
    EXPECT_FALSE(store.get("x", out));
    // The dropped frame is preserved for forensics, not discarded.
    ASSERT_TRUE(fileExists(kStoreQuarantineFile));
    std::ifstream sidecar(dir + "/" + kStoreQuarantineFile);
    std::string row;
    ASSERT_TRUE(std::getline(sidecar, row));
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(row, parsed));
    EXPECT_NE(parsed.find("reason"), nullptr);
    EXPECT_NE(parsed.find("raw"), nullptr);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, OpenOnARegularFileFailsWithReason)
{
    {
        std::ofstream out(dir, std::ios::binary);
        out << "not a directory\n";
    }
    ResultStore store;
    std::string error;
    EXPECT_FALSE(store.open(options(), &error));
    EXPECT_FALSE(store.isOpen());
    EXPECT_NE(error.find(dir), std::string::npos) << error;
    std::remove(dir.c_str());
}

TEST_F(ResultStoreTest, OverflowingGenerationIsNotAStoreFile)
{
    seed(2);
    // 2^64 + 1 would wrap to generation 1 and shadow the live data.
    std::string stray = "base-18446744073709551617.log";
    {
        std::ofstream out(dir + "/" + stray, std::ios::binary);
        out << "00000000 {}\n";
    }
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats().generation, 1u);
    EXPECT_EQ(store.stats().segmentsLoaded, 1u);
    EXPECT_EQ(store.stats().corruptFrames, 0u);
    EXPECT_TRUE(fileExists(stray)); // unrecognised names are left alone
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(store.stats().generation, 2u);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, SegmentRotation)
{
    ResultStore::Options opts = options();
    opts.maxSegmentBytes = 256; // force a rotation every few puts
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    for (uint64_t i = 0; i < 20; ++i)
        ASSERT_TRUE(store.put("key" + std::to_string(i), record(i)));
    ASSERT_TRUE(store.close());

    size_t tailCount = 0;
    for (const std::string &name : listFiles()) {
        if (name.rfind("tail-", 0) == 0)
            ++tailCount;
    }
    EXPECT_GT(tailCount, 1u);

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 20u);
    EXPECT_GT(reopened.stats().segmentsLoaded, 1u);
    JsonValue out;
    ASSERT_TRUE(reopened.get("key19", out));
    EXPECT_EQ(out, record(19));
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, CompactionFoldsSegments)
{
    ResultStore::Options opts = options();
    opts.maxSegmentBytes = 256;
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    for (uint64_t i = 0; i < 12; ++i)
        ASSERT_TRUE(store.put("key" + std::to_string(i), record(i)));
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(store.stats().generation, 2u);
    EXPECT_EQ(store.stats().compactions, 1u);
    EXPECT_EQ(store.size(), 12u);

    // Only the new base remains on disk.
    size_t baseCount = 0;
    size_t tailCount = 0;
    for (const std::string &name : listFiles()) {
        if (name.rfind("base-", 0) == 0)
            ++baseCount;
        if (name.rfind("tail-", 0) == 0)
            ++tailCount;
    }
    EXPECT_EQ(baseCount, 1u);
    EXPECT_EQ(tailCount, 0u);
    EXPECT_TRUE(fileExists("base-2.log"));

    // The store accepts appends after compaction...
    ASSERT_TRUE(store.put("after", record(99)));
    EXPECT_TRUE(fileExists("tail-2-1.log"));
    ASSERT_TRUE(store.close());

    // ...and a reopen sees compacted + appended records.
    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 13u);
    EXPECT_EQ(reopened.stats().generation, 2u);
    JsonValue out;
    ASSERT_TRUE(reopened.get("after", out));
    EXPECT_EQ(out, record(99));
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, ForEachVisitsKeySorted)
{
    seed(3);
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    std::vector<std::string> keys;
    store.forEach([&](const std::string &key, const JsonValue &) {
        keys.push_back(key);
    });
    EXPECT_EQ(keys, (std::vector<std::string>{"key0", "key1", "key2"}));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, InjectedEnospcFailsCleanly)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("enospc@1", injector));
    ResultStore::Options opts = options();
    opts.injector = &injector;
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    EXPECT_TRUE(store.put("a", record(1)));
    std::string error;
    EXPECT_FALSE(store.put("b", record(2), &error));
    EXPECT_NE(error.find("disk full"), std::string::npos);
    // The store stays usable; the failed key can be retried.
    EXPECT_TRUE(store.put("b", record(2)));
    EXPECT_TRUE(store.put("c", record(3)));
    ASSERT_TRUE(store.close());

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.stats().corruptFrames, 0u);
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, InjectedShortWriteResyncs)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    ResultStore::Options opts = options();
    opts.injector = &injector;
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    EXPECT_TRUE(store.put("a", record(1)));
    std::string error;
    EXPECT_FALSE(store.put("b", record(2), &error));
    EXPECT_NE(error.find("short write"), std::string::npos);
    // The next append resyncs past the torn prefix.
    EXPECT_TRUE(store.put("b", record(2)));
    ASSERT_TRUE(store.close());

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 2u);
    // The torn prefix became one quarantined interior frame.
    EXPECT_EQ(reopened.stats().corruptFrames, 1u);
    JsonValue out;
    ASSERT_TRUE(reopened.get("b", out));
    EXPECT_EQ(out, record(2));
    EXPECT_TRUE(reopened.close());
}

using ResultStoreDeathTest = ResultStoreTest;

TEST_F(ResultStoreDeathTest, InjectedTearLosesOnlyInFlightPut)
{
    seed(0);
    EXPECT_EXIT(
        {
            FaultInjector injector;
            FaultInjector::parse("tear@1", injector);
            ResultStore::Options opts = options();
            opts.injector = &injector;
            ResultStore store;
            store.open(opts);
            store.put("a", record(1));
            store.put("b", record(2)); // tears + dies
        },
        ::testing::ExitedWithCode(137), "");

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_TRUE(store.stats().tornTail);
    EXPECT_EQ(store.size(), 1u);
    JsonValue out;
    EXPECT_TRUE(store.get("a", out));
    EXPECT_FALSE(store.get("b", out));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreDeathTest, InjectedCrashAfterPutKeepsRecord)
{
    seed(0);
    EXPECT_EXIT(
        {
            FaultInjector injector;
            FaultInjector::parse("crash@1", injector);
            ResultStore::Options opts = options();
            opts.injector = &injector;
            ResultStore store;
            store.open(opts);
            store.put("a", record(1));
            store.put("b", record(2)); // durable, then dies unacked
        },
        ::testing::ExitedWithCode(137), "");

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(store.size(), 2u);
    JsonValue out;
    EXPECT_TRUE(store.get("b", out)); // the unacked put survived
    EXPECT_TRUE(store.close());
}

/** Crash a compaction at @p point over a 6-record store. */
void
crashCompaction(const std::string &dir,
                ResultStore::Options::CompactCrash point)
{
    ResultStore::Options opts;
    opts.dir = dir;
    opts.testCompactCrash = point;
    ResultStore store;
    store.open(opts);
    store.compact();
}

TEST_F(ResultStoreDeathTest, CompactionCrashBeforeCommit)
{
    seed(6);
    EXPECT_EXIT(crashCompaction(
                    dir, ResultStore::Options::CompactCrash::BeforeCommit),
                ::testing::ExitedWithCode(137), "");

    // The tmp (no commit frame) is discarded; generation 1 is intact.
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(store.size(), 6u);
    EXPECT_EQ(store.stats().generation, 1u);
    EXPECT_FALSE(fileExists("base-2.tmp"));
    // The aborted generation number is burned, never reused.
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(store.stats().generation, 3u);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreDeathTest, CompactionCrashBeforeRename)
{
    seed(6);
    EXPECT_EXIT(crashCompaction(
                    dir, ResultStore::Options::CompactCrash::BeforeRename),
                ::testing::ExitedWithCode(137), "");

    // The tmp is complete but never renamed: still discarded.
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.size(), 6u);
    EXPECT_EQ(store.stats().generation, 1u);
    EXPECT_FALSE(fileExists("base-2.tmp"));
    EXPECT_FALSE(fileExists("base-2.log"));
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(store.stats().generation, 3u);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreDeathTest, CompactionCrashBeforeCleanup)
{
    seed(6);
    EXPECT_EXIT(crashCompaction(
                    dir,
                    ResultStore::Options::CompactCrash::BeforeCleanup),
                ::testing::ExitedWithCode(137), "");

    // The new base is durable; the stale generation is swept at open.
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.size(), 6u);
    EXPECT_EQ(store.stats().generation, 2u);
    for (const std::string &name : listFiles()) {
        EXPECT_EQ(name.rfind("tail-1-", 0), std::string::npos)
            << "stale segment survived: " << name;
        EXPECT_NE(name, "base-1.log");
    }
    JsonValue out;
    EXPECT_TRUE(store.get("key5", out));
    EXPECT_TRUE(store.close());
}

} // namespace
