/**
 * @file
 * Trace write/read round-trip tests: the replayed stream must be
 * bit-identical to the live execution, and a simulation driven from
 * the trace must produce identical results.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/fetch_engine.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/snapshot.hh"
#include "trace/writer.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

namespace specfetch {
namespace {

class TraceRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = uniqueTempPath("roundtrip.sftrace");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

Workload
smallWorkload()
{
    WorkloadProfile profile;
    profile.structureSeed = 5;
    profile.numFunctions = 8;
    profile.meanFuncBlocks = 14;
    profile.meanBlockLen = 4.0;
    return buildWorkload(profile);
}

TEST_F(TraceRoundTrip, StreamIsIdentical)
{
    Workload w = smallWorkload();
    const uint64_t n = 100000;

    Executor executor(w.cfg, 42);
    DynInst first;
    std::vector<DynInst> reference;
    {
        Executor source(w.cfg, 42);
        DynInst inst;
        source.next(inst);
        TraceWriter writer(path, w.image, inst.pc);
        writer.append(inst);
        reference.push_back(inst);
        for (uint64_t i = 1; i < n; ++i) {
            source.next(inst);
            writer.append(inst);
            reference.push_back(inst);
        }
    }

    TraceReader reader(path);
    EXPECT_EQ(reader.startPc(), reference.front().pc);
    DynInst inst;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(reader.next(inst)) << "record " << i;
        ASSERT_EQ(inst.pc, reference[i].pc) << "record " << i;
        ASSERT_EQ(inst.cls, reference[i].cls) << "record " << i;
        ASSERT_EQ(inst.taken, reference[i].taken) << "record " << i;
        if (isControl(inst.cls)) {
            ASSERT_EQ(inst.target, reference[i].target) << i;
        }
    }
    EXPECT_FALSE(reader.next(inst));
    EXPECT_EQ(reader.recordsRead(), n);
}

TEST_F(TraceRoundTrip, ImageIsIdentical)
{
    Workload w = smallWorkload();
    {
        Executor source(w.cfg, 42);
        DynInst inst;
        source.next(inst);
        TraceWriter writer(path, w.image, inst.pc);
        writer.append(inst);
    }
    TraceReader reader(path);
    const ProgramImage &restored = reader.image();
    ASSERT_EQ(restored.size(), w.image.size());
    ASSERT_EQ(restored.base(), w.image.base());
    for (size_t i = 0; i < restored.size(); ++i) {
        ASSERT_EQ(restored[i].cls, w.image[i].cls) << "index " << i;
        if (hasStaticTarget(restored[i].cls)) {
            ASSERT_EQ(restored[i].target, w.image[i].target) << i;
        }
    }
}

TEST_F(TraceRoundTrip, SimulationFromTraceMatchesLive)
{
    Workload w = smallWorkload();
    const uint64_t n = 150000;

    {
        Executor source(w.cfg, 42);
        DynInst inst;
        source.next(inst);
        TraceWriter writer(path, w.image, inst.pc);
        writer.append(inst);
        for (uint64_t i = 1; i < n; ++i) {
            source.next(inst);
            writer.append(inst);
        }
    }

    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.instructionBudget = n;

    // Live run.
    Executor live(w.cfg, 42);
    FetchEngine live_engine(config, w.image);
    SimResults live_results = live_engine.run(live);

    // Replay run: the trace reader feeds the streaming cursor.
    TraceReader reader(path);
    SnapshotReplaySource replay(reader);
    FetchEngine replay_engine(config, reader.image());
    SimResults replay_results = replay_engine.run(replay);

    EXPECT_EQ(replay_results.instructions, live_results.instructions);
    EXPECT_EQ(replay_results.finalSlot, live_results.finalSlot);
    EXPECT_EQ(replay_results.demandMisses, live_results.demandMisses);
    EXPECT_EQ(replay_results.dirMispredicts,
              live_results.dirMispredicts);
    EXPECT_EQ(replay_results.penalty.totalSlots(),
              live_results.penalty.totalSlots());
}

TEST_F(TraceRoundTrip, WriterCountsRecords)
{
    Workload w = smallWorkload();
    Executor source(w.cfg, 42);
    DynInst inst;
    source.next(inst);
    TraceWriter writer(path, w.image, inst.pc);
    writer.append(inst);
    for (int i = 1; i < 1000; ++i) {
        source.next(inst);
        writer.append(inst);
    }
    EXPECT_EQ(writer.recordsWritten(), 1000u);
}

TEST_F(TraceRoundTrip, ReaderRejectsGarbage)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace file at all, sorry", f);
    std::fclose(f);
    EXPECT_THROW({ TraceReader reader(path); }, TraceError);
}

TEST(TraceDeath, MissingFileThrows)
{
    EXPECT_THROW({ TraceReader reader("/nonexistent/nope.trace"); },
                 TraceError);
}

TEST(TraceDeath, NonContiguousAppendPanics)
{
    std::string path = uniqueTempPath("bad.sftrace");
    ProgramImage image(0x1000, 8);
    TraceWriter writer(path, image, 0x1000);
    writer.append(DynInst{0x1000, InstClass::Plain, false, 0});
    EXPECT_DEATH(
        writer.append(DynInst{0x2000, InstClass::Plain, false, 0}),
        "contiguous");
    std::remove(path.c_str());
}

} // namespace
} // namespace specfetch
