/**
 * @file
 * TraceSnapshot record/replay contract tests. The load-bearing
 * property is bit-identity: a simulation fed by a SnapshotReplaySource
 * — over a shared snapshot or streaming through its own chunk buffer —
 * must produce *exactly* the SimResults of the engine's scalar
 * reference path fed by the live executor, for every workload,
 * policy, prefetch setting and warmup. That equivalence is what lets
 * every run replay RLE records, and lets runSweep record each shared
 * correct-path stream once and replay it across a whole grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "check/check_level.hh"
#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

// Long enough that the streamed runs of most workloads refill their
// 4096-record chunk at least once.
constexpr uint64_t kBudget = 60'000;

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

/** Step @p replay against a fresh live executor for @p n
 *  instructions, then require the replay to end. */
void
expectMatchesLive(const Workload &w, SnapshotReplaySource &replay,
                  uint64_t n)
{
    Executor live(w.cfg, 42);
    DynInst expected, got;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(live.next(expected));
        ASSERT_TRUE(replay.next(got)) << "instruction " << i;
        ASSERT_EQ(got.pc, expected.pc) << "instruction " << i;
        ASSERT_EQ(got.cls, expected.cls) << "instruction " << i;
        ASSERT_EQ(got.taken, expected.taken) << "instruction " << i;
        if (isControl(expected.cls)) {
            ASSERT_EQ(got.target, expected.target) << "instruction " << i;
        }
    }
    EXPECT_FALSE(replay.next(got));
}

/** The first @p limit instructions of a live executor, forwarded
 *  through next() only (the base class's takePlainRun() says "use
 *  next()"). */
class FiniteSource : public InstructionSource
{
  public:
    FiniteSource(const Cfg &cfg, uint64_t _limit)
        : executor(cfg, 42), limit(_limit)
    {
    }

    bool
    next(DynInst &out) override
    {
        if (emitted == limit)
            return false;
        ++emitted;
        return executor.next(out);
    }

  private:
    Executor executor;
    uint64_t limit;
    uint64_t emitted = 0;
};

/** Same blocks, byte for byte. */
bool
sameBlocks(const TraceSnapshot &a, const TraceSnapshot &b)
{
    if (a.blocks().size() != b.blocks().size())
        return false;
    for (size_t i = 0; i < a.blocks().size(); ++i) {
        const TraceSnapshot::Block &x = a.blocks()[i];
        const TraceSnapshot::Block &y = b.blocks()[i];
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(),
                        x.size() * sizeof(TraceSnapshot::ControlRecord)) !=
                0) {
            return false;
        }
    }
    return true;
}

TEST(Snapshot, ReplayStreamMatchesLiveExecutor)
{
    Workload w = smallWorkload();
    const uint64_t n = 50'003;    // three plains past a branch

    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, n);
    ASSERT_EQ(snap.instructionCount(), n);
    // The streaming cursors refill their chunk several times and end
    // partway through one, on a run-only record of trailing plains.
    const size_t chunk = TraceSnapshot::kChunkRecords;
    ASSERT_GT(snap.recordCount(), 2 * chunk);
    ASSERT_NE(snap.recordCount() % chunk, 0u);
    ASSERT_EQ(snap.blocks().back().back().cls, TraceSnapshot::kRunOnly);

    SnapshotReplaySource replay(snap);
    expectMatchesLive(w, replay, n);

    Executor source(w.cfg, 42);
    SnapshotReplaySource streaming(source, n);
    expectMatchesLive(w, streaming, n);

    FiniteSource finite(w.cfg, n);
    SnapshotReplaySource exhausting(finite);
    expectMatchesLive(w, exhausting, n);
    Addr pc = 0;
    EXPECT_EQ(exhausting.takePlainRun(pc, 100), 0u);
}

TEST(Snapshot, EncodingIsCompact)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);
    // One 16-byte record per control instruction at the workloads'
    // ~20-25% control fraction: well under 8 bytes per instruction,
    // far under a DynInst-per-instruction encoding.
    EXPECT_LT(snap.byteSize(), snap.instructionCount() * 8);
    EXPECT_GT(snap.byteSize(), 0u);
}

TEST(Snapshot, ExhaustedReplayStopsTheRunEarly)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, 5'000);

    SimConfig config;
    config.instructionBudget = kBudget; // more than the snapshot holds
    SimResults results = runSimulation(w, config, snap);
    EXPECT_EQ(results.instructions, 5'000u);
}

TEST(Snapshot, EmptySnapshotYieldsNothing)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, 0);
    EXPECT_EQ(snap.instructionCount(), 0u);
    EXPECT_EQ(snap.byteSize(), 0u);

    SnapshotReplaySource replay(snap);
    DynInst inst;
    EXPECT_FALSE(replay.next(inst));
    Addr pc = 0;
    EXPECT_EQ(replay.takePlainRun(pc, 100), 0u);
}

TEST(Snapshot, BlocksAreTheStreamingCursorsChunks)
{
    // A snapshot's blocks are the very chunks the streaming cursor
    // fills from the same source: full 4096-record blocks, a short
    // last one, no empty one. Lengths cover an empty stream, streams
    // that end exactly on a block boundary (the cut right after the
    // control instruction closing record 4096k - 1), and one that
    // ends on trailing plains partway through a block.
    Workload w = smallWorkload();
    const size_t chunk = TraceSnapshot::kChunkRecords;
    Executor probe_source(w.cfg, 42);
    TraceSnapshot probe = TraceSnapshot::record(probe_source, 80'000);
    ASSERT_GT(probe.recordCount(), 3 * chunk);
    ASSERT_NE(probe.recordCount() % chunk, 0u);
    std::vector<uint64_t> lengths{0, 80'000};
    uint64_t population = 0;
    for (size_t b = 0; b < 3; ++b) {
        for (const TraceSnapshot::ControlRecord &rec : probe.blocks()[b])
            population += rec.plainBefore + 1;
        ASSERT_NE(probe.blocks()[b].back().cls, TraceSnapshot::kRunOnly);
        lengths.push_back(population);
    }

    for (uint64_t length : lengths) {
        Executor a(w.cfg, 42);
        TraceSnapshot snap = TraceSnapshot::record(a, length);
        ASSERT_EQ(snap.instructionCount(), length);
        EXPECT_TRUE(snap.verify()) << length;
        EXPECT_TRUE(snap.validate()) << length;
        if (length != 0 && length != 80'000) {
            EXPECT_EQ(snap.recordCount() % chunk, 0u) << length;
        }

        Executor b(w.cfg, 42);
        SnapshotEncoder encoder(b, length);
        std::vector<TraceSnapshot::ControlRecord> filled(chunk);
        size_t blocks = 0;
        for (;;) {
            size_t got = encoder.encode(filled.data(), chunk);
            if (got == 0)
                break;
            ASSERT_LT(blocks, snap.blocks().size()) << length;
            const TraceSnapshot::Block &block = snap.blocks()[blocks++];
            EXPECT_EQ(block.capacity(), chunk);
            ASSERT_EQ(block.size(), got) << length;
            EXPECT_EQ(std::memcmp(block.data(), filled.data(),
                                  got * sizeof(filled[0])),
                      0)
                << "length " << length << " block " << blocks - 1;
        }
        EXPECT_EQ(blocks, snap.blocks().size()) << length;

        // Both cursor forms replay across the block boundaries.
        SnapshotReplaySource replay(snap);
        expectMatchesLive(w, replay, length);
        Executor c(w.cfg, 42);
        SnapshotReplaySource streaming(c, length);
        expectMatchesLive(w, streaming, length);
    }
}

TEST(Snapshot, ChunkedPlainRunsReplayIdentically)
{
    Workload w = smallWorkload();
    const uint64_t n = 30'000;

    Executor a(w.cfg, 42);
    TraceSnapshot whole = TraceSnapshot::record(a, n);
    Executor b(w.cfg, 42);
    TraceSnapshot chunked =
        TraceSnapshot::record(b, n, /*max_plain_run=*/3);

    // Chunking costs extra run-only records but must not change the
    // replayed stream.
    EXPECT_GT(chunked.recordCount(), whole.recordCount());
    SnapshotReplaySource lhs(whole), rhs(chunked);
    DynInst x, y;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(lhs.next(x));
        ASSERT_TRUE(rhs.next(y)) << "instruction " << i;
        ASSERT_EQ(x.pc, y.pc) << "instruction " << i;
        ASSERT_EQ(x.cls, y.cls) << "instruction " << i;
        ASSERT_EQ(x.taken, y.taken) << "instruction " << i;
        ASSERT_EQ(x.target, y.target) << "instruction " << i;
    }
    EXPECT_FALSE(rhs.next(y));
}

TEST(Snapshot, BulkRecordingMatchesScalarRecording)
{
    // The encoder takes an executor's plains a block body at a time;
    // a next()-only source must yield the very same records, under
    // run chunking and with the length cut partway through a block.
    const uint64_t unlimited = std::numeric_limits<uint64_t>::max();
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        auto inOneBody = [&w](Addr pc) {
            for (const BasicBlock &block : w.cfg.blocks) {
                Addr body_end =
                    block.startAddr + Addr(block.bodyLen) * kInstBytes;
                if (pc >= block.startAddr && pc + kInstBytes < body_end)
                    return true;
            }
            return false;
        };
        // The first length >= 20K whose last instruction and the one
        // after it are plains of the same block body.
        Executor probe(w.cfg, 42);
        DynInst last, after;
        uint64_t length = 20'000;
        for (uint64_t i = 0; i < length; ++i)
            probe.next(last);
        probe.next(after);
        while (last.cls != InstClass::Plain ||
               after.cls != InstClass::Plain || !inOneBody(last.pc)) {
            last = after;
            probe.next(after);
            ++length;
        }

        for (uint32_t max_plain_run : {3u, 7u, TraceSnapshot::kMaxPlainRun}) {
            Executor bulk_source(w.cfg, 42);
            FiniteSource scalar_source(w.cfg, unlimited);
            TraceSnapshot bulk =
                TraceSnapshot::record(bulk_source, length, max_plain_run);
            TraceSnapshot scalar =
                TraceSnapshot::record(scalar_source, length, max_plain_run);
            EXPECT_EQ(bulk.instructionCount(), length) << name;
            EXPECT_EQ(bulk.instructionCount(), scalar.instructionCount());
            EXPECT_EQ(bulk.startPc(), scalar.startPc()) << name;
            ASSERT_EQ(bulk.recordCount(), scalar.recordCount())
                << name << " max_plain_run " << max_plain_run;
            EXPECT_TRUE(sameBlocks(bulk, scalar))
                << name << " max_plain_run " << max_plain_run;
            EXPECT_EQ(bulk.blocks().back().back().cls,
                      TraceSnapshot::kRunOnly);
            EXPECT_TRUE(bulk.verify()) << name;
            EXPECT_TRUE(scalar.verify()) << name;
            EXPECT_TRUE(bulk.validate()) << name;
        }
    }
}

TEST(Snapshot, TakePlainRunInterleavesWithNext)
{
    Workload w = smallWorkload();
    const uint64_t n = 30'000;
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, n);

    // Consume one cursor instruction-by-instruction and the other via
    // the bulk API; the streams must agree exactly.
    SnapshotReplaySource scalar(snap), bulk(snap);
    DynInst expected, got;
    uint64_t seen = 0;
    while (seen < n) {
        Addr run_pc = 0;
        uint32_t run = bulk.takePlainRun(run_pc, 7);
        if (run > 0) {
            for (uint32_t i = 0; i < run; ++i) {
                ASSERT_TRUE(scalar.next(expected));
                ASSERT_EQ(expected.cls, InstClass::Plain);
                ASSERT_EQ(expected.pc, run_pc + Addr(i) * kInstBytes)
                    << "instruction " << seen + i;
            }
            seen += run;
            continue;
        }
        ASSERT_TRUE(bulk.next(got));
        ASSERT_TRUE(scalar.next(expected));
        ASSERT_EQ(got.pc, expected.pc) << "instruction " << seen;
        ASSERT_EQ(got.cls, expected.cls) << "instruction " << seen;
        ASSERT_EQ(got.taken, expected.taken) << "instruction " << seen;
        ASSERT_EQ(got.target, expected.target) << "instruction " << seen;
        ++seen;
    }
    EXPECT_FALSE(bulk.next(got));
    EXPECT_FALSE(scalar.next(expected));
}

TEST(SnapshotDeath, NonContinuousSourcePanics)
{
    /**
     * A jump-to-self loop (one record per instruction) whose
     * instruction @p teleportAt lands somewhere else.
     */
    class BrokenSource : public InstructionSource
    {
      public:
        explicit BrokenSource(uint64_t _teleportAt)
            : teleportAt(_teleportAt)
        {
        }

        bool
        next(DynInst &out) override
        {
            Addr pc = count == teleportAt ? Addr{0x9000} : Addr{0x1000};
            out = DynInst{pc, InstClass::Jump, true, Addr{0x1000}};
            ++count;
            return true;
        }

      private:
        uint64_t teleportAt;
        uint64_t count = 0;
    };
    BrokenSource source(1);
    EXPECT_DEATH(TraceSnapshot::record(source, 10),
                 "not path-continuous");

    // The streaming cursor panics mid-replay, when the refill that
    // reaches the discontinuity encodes it.
    const uint64_t late = 2 * TraceSnapshot::kChunkRecords + 5;
    EXPECT_DEATH(
        {
            BrokenSource broken(late);
            SnapshotReplaySource streaming(broken);
            DynInst inst;
            for (uint64_t i = 0; i <= late; ++i)
                streaming.next(inst);
        },
        "not path-continuous at instruction 8197");

    /**
     * Four plains and a jump back to them, the plains handed out in
     * bulk; bulk run @p teleportAt starts somewhere else.
     */
    class BrokenBulkSource : public InstructionSource
    {
      public:
        explicit BrokenBulkSource(uint64_t _teleportAt)
            : teleportAt(_teleportAt)
        {
        }

        uint32_t
        takePlainRun(Addr &pc_out, uint32_t max) override
        {
            uint32_t n = std::min(4 - pos, max);
            pc_out = runs == teleportAt ? Addr{0x9000}
                                        : Addr{0x1000} + pos * kInstBytes;
            if (pos == 0)
                ++runs;
            pos += n;
            return n;
        }

        /** Reached only once the plains were all taken in bulk. */
        bool
        next(DynInst &out) override
        {
            out = DynInst{0x1010, InstClass::Jump, true, 0x1000};
            pos = 0;
            return true;
        }

      private:
        uint64_t teleportAt;
        uint64_t runs = 0;
        uint32_t pos = 0;
    };
    BrokenBulkSource bulk_source(1);
    EXPECT_DEATH(TraceSnapshot::record(bulk_source, 100),
                 "not path-continuous at instruction 5: pc 9000");

    // Each loop trip is one record, so bulk run 8197 sits in the
    // third chunk and starts at instruction 5 * 8197.
    EXPECT_DEATH(
        {
            BrokenBulkSource broken(late);
            SnapshotReplaySource streaming(broken);
            DynInst inst;
            for (uint64_t i = 0; i <= 5 * late; ++i)
                streaming.next(inst);
        },
        "not path-continuous at instruction 40985: pc 9000");
}

TEST(SnapshotDeath, ZeroPlainRunLimitPanics)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    EXPECT_DEATH(TraceSnapshot::record(recorder, 10, 0),
                 "plain runs cannot be empty");
}

/**
 * The headline guarantee, benchmark by benchmark: replayed and
 * streamed simulation results are bit-identical to the scalar
 * reference over a live executor for every policy and prefetch
 * setting (the exact grid bench_suite sweeps).
 */
class SnapshotEquivalence : public ::testing::TestWithParam<std::string>
{};

/** The engine's scalar reference path over a live executor. */
SimResults
runLive(const Workload &workload, const SimConfig &config)
{
    Executor executor(workload.cfg, config.runSeed);
    FetchEngine engine(config, workload.image);
    SimResults results = engine.run(executor);
    results.workload = workload.profile.name;
    return results;
}

TEST_P(SnapshotEquivalence, ReplayedRunsMatchLiveBitExactly)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);

    for (int p = 0; p < 5; ++p) {
        for (bool prefetch : {false, true}) {
            SimConfig config;
            config.policy = static_cast<FetchPolicy>(p);
            config.nextLinePrefetch = prefetch;
            config.instructionBudget = kBudget;
            SimResults live = runLive(*workload, config);
            SimResults replay = runSimulation(*workload, config, snap);
            SimResults streamed = runSimulation(*workload, config);
            EXPECT_EQ(replay, live)
                << GetParam() << ", " << toString(config.policy)
                << (prefetch ? ", prefetch" : "");
            EXPECT_EQ(streamed, live)
                << GetParam() << ", " << toString(config.policy)
                << (prefetch ? ", prefetch" : "") << ", streamed";
        }
    }
}

TEST_P(SnapshotEquivalence, WarmupConsumesTheSnapshotPrefix)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    SimConfig config;
    config.warmupInstructions = 5'000;
    config.instructionBudget = kBudget;

    // The engine consumes warmup + budget instructions from its
    // source, so that is what the snapshot must cover.
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(
        recorder, config.warmupInstructions + config.instructionBudget);

    SimResults live = runLive(*workload, config);
    SimResults replay = runSimulation(*workload, config, snap);
    SimResults streamed = runSimulation(*workload, config);
    EXPECT_EQ(replay, live) << GetParam();
    EXPECT_EQ(streamed, live) << GetParam() << ", streamed";
}

TEST_P(SnapshotEquivalence, ParanoidAuditPassesOverReplay)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);

    SimConfig config;
    config.instructionBudget = kBudget;
    config.checkLevel = CheckLevel::Paranoid;
    SimResults audited = runSimulation(*workload, config, snap);

    SimConfig plain = config;
    plain.checkLevel = CheckLevel::Off;
    EXPECT_EQ(audited, runSimulation(*workload, plain, snap))
        << GetParam() << ": audits must observe, never perturb";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SnapshotEquivalence,
    ::testing::ValuesIn(benchmarkNames()),
    [](const auto &param_info) {
        std::string name = param_info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace specfetch
