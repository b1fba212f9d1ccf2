/**
 * @file
 * In-memory run-length encoding of a workload's dynamic correct-path
 * stream, and the replay cursor that is the fetch engine's one
 * production input (DESIGN.md §9).
 *
 * A sweep runs the same benchmark under many machine configurations,
 * and every one of those runs consumes the *identical* correct-path
 * stream: the stream depends only on (program, run seed), never on
 * the machine being simulated. A TraceSnapshot captures that stream
 * from one architectural-executor pass so every subsequent run can
 * replay it instead of re-interpreting the CFG.
 *
 * The encoding exploits the same correct-path property as the on-disk
 * trace format (trace/format.hh): PCs never need to be stored, because
 * the next correct-path PC is always the previous instruction's
 * nextPc(). A snapshot is therefore just the start PC plus one packed
 * 16-byte ControlRecord per control instruction, each carrying the
 * run of sequential plain instructions preceding it. On the paper
 * workloads that is one record per ~8.5 instructions, ~1.9 bytes per
 * dynamic instruction (the 13 seed-42 streams of 2M instructions hold
 * 46.8 MiB), and replay is a branch-predictable run-length walk that
 * is much cheaper than CFG interpretation.
 */

#ifndef SPECFETCH_TRACE_SNAPSHOT_HH_
#define SPECFETCH_TRACE_SNAPSHOT_HH_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "isa/instruction.hh"
#include "trace/format.hh"
#include "workload/executor.hh"

namespace specfetch {

/**
 * Immutable packed encoding of a finite correct-path prefix, stored
 * as a list of fixed 64 KiB blocks. Record once (from any
 * InstructionSource), replay concurrently from any number of
 * SnapshotReplaySource cursors — the snapshot itself is never mutated
 * after record() returns, so sharing it across sweep worker threads
 * is safe.
 */
class TraceSnapshot
{
  public:
    /**
     * @ref plainBefore sequential plain instructions followed by one
     * control instruction — or by nothing when @ref cls is kRunOnly
     * (a continuation chunk of an over-long plain run, or the
     * trailing plains after the stream's last control instruction).
     */
    struct ControlRecord
    {
        /** Dynamic destination if taken (executor resolve-time truth;
         *  kept for not-taken conditionals too — the engine trains
         *  the BTB and walks misfetch paths with it). */
        Addr target = 0;
        /** Sequential plain instructions preceding this control. */
        uint32_t plainBefore = 0;
        /** 3-bit wire encoding (trace/format.hh), or kRunOnly. */
        uint8_t cls = 0;
        /** Dynamic direction (always 1 for unconditional control). */
        uint8_t taken = 0;
        /** Explicit (always-zero) padding so the packed bytes are
         *  fully defined and content hashing can treat records as raw
         *  memory. */
        uint16_t pad = 0;
    };
    static_assert(sizeof(ControlRecord) == 16,
                  "records are packed for cache-friendly replay");

    /** @ref ControlRecord::cls value meaning "no control follows". */
    static constexpr uint8_t kRunOnly = 0xff;

    /** Longest plain run one record may carry before chunking. */
    static constexpr uint32_t kMaxPlainRun =
        std::numeric_limits<uint32_t>::max();

    /** Records per block, and per streaming cursor chunk. */
    static constexpr size_t kChunkRecords = 4096;
    static_assert(kChunkRecords * sizeof(ControlRecord) == 64 * 1024);

    /**
     * One block of records. record() allocates every block at
     * kChunkRecords and fills all but the last, so the allocator
     * reuses a freed snapshot's blocks for the next recording.
     */
    using Block = std::vector<ControlRecord>;

    TraceSnapshot() = default;

    /**
     * Record up to @p length instructions from @p source through a
     * SnapshotEncoder. @p max_plain_run exists for tests that exercise
     * run chunking without billions of instructions.
     */
    static TraceSnapshot record(InstructionSource &source, uint64_t length,
                                uint32_t max_plain_run = kMaxPlainRun);

    /** Dynamic instructions captured (min of requested and available). */
    uint64_t instructionCount() const { return count; }

    /** PC of the first recorded instruction. */
    Addr startPc() const { return start; }

    /** Packed records stored, over all blocks. */
    size_t
    recordCount() const
    {
        return chunks.empty()
            ? 0
            : (chunks.size() - 1) * kChunkRecords + chunks.back().size();
    }

    /** Memory footprint of the packed stream. */
    uint64_t
    byteSize() const
    {
        return static_cast<uint64_t>(recordCount()) * sizeof(ControlRecord);
    }

    /** The blocks in stream order; none is empty. */
    const std::vector<Block> &blocks() const { return chunks; }

    /**
     * Recompute the xxhash-style content digest (the blocks in order,
     * start PC and instruction count) and compare with the one record()
     * stored. Returns false — never panics — on mismatch, naming the
     * expected/actual digests in @p error; the guarded sweep then
     * re-records a private stream instead of replaying garbage.
     */
    bool verify(std::string *error = nullptr) const;

    /**
     * Structural sanity independent of the digest: every record of
     * every block has a valid wire class or kRunOnly, and the
     * per-record populations add up to instructionCount(). Catches
     * logic bugs that a correctly-rehashed mutation would not.
     */
    bool validate(std::string *error = nullptr) const;

    /**
     * Fault-injection hook: flip one bit of the packed stream (bit
     * @p bitIndex modulo byteSize() * 8, counted across the blocks in
     * order) so integrity checking can be exercised deterministically.
     * Panics on an empty snapshot. Testing only — a production
     * snapshot is immutable after record().
     */
    void corruptBitForTesting(size_t bitIndex);

  private:
    uint64_t computeHash() const;

    std::vector<Block> chunks;
    Addr start = 0;
    uint64_t count = 0;
    uint64_t hash = 0;
};

/**
 * The one encoder of a correct-path InstructionSource into
 * ControlRecords, chunk by chunk, behind both TraceSnapshot::record
 * and the streaming SnapshotReplaySource. Plain instructions are taken
 * through the source's bulk step (a whole block body per call from an
 * Executor) and everything else through next(), in one loop; the
 * records are the same either way. A path-discontinuous source (an
 * instruction or plain run starting anywhere but the previous
 * instruction's nextPc()) panics. Over-long plain runs are split into
 * run-only records, and trailing plains end the stream (source
 * exhausted or @p length reached) as a run-only record.
 */
class SnapshotEncoder
{
  public:
    SnapshotEncoder(InstructionSource &source, uint64_t length,
                    uint32_t max_plain_run = TraceSnapshot::kMaxPlainRun);

    /** Encode up to @p capacity records into @p out; fewer only
     *  once the stream has ended, 0 after its last record. */
    size_t encode(TraceSnapshot::ControlRecord *out, size_t capacity);

    uint64_t instructionCount() const { return count; }
    /** PC of the first instruction (0 until one is consumed). */
    Addr startPc() const { return start; }

  private:
    InstructionSource &source;
    const uint64_t length;
    const uint32_t maxPlainRun;
    uint64_t count = 0;
    uint32_t plainRun = 0;
    Addr start = 0;
    Addr expected = 0;
    bool ended = false;
};

/**
 * Replay cursor over ControlRecords, the engine's one production
 * input. The class is final and next() is defined inline so
 * FetchEngine::run(SnapshotReplaySource &) statically binds and
 * inlines the per-instruction source step — the replay fast path is a
 * decrement, three stores and an add.
 *
 * Both forms walk one chunk of records at a time through one refill
 * step. Over a shared TraceSnapshot the chunks are its blocks, and
 * replay ends with the snapshot: record at least the longest
 * consumer's (warmup + budget) instructions. Over an
 * InstructionSource, the cursor records the stream itself into a
 * private 64 KiB chunk that it refills whenever it drains.
 */
class SnapshotReplaySource final : public InstructionSource
{
  public:
    /** Replay @p snapshot (borrowed; must outlive the cursor). */
    explicit SnapshotReplaySource(const TraceSnapshot &snapshot)
        : pc(snapshot.startPc()), shared(&snapshot)
    {
        if (refill())
            loadRecord();
    }

    /** Streaming form over the first @p length instructions of
     *  @p source (borrowed; must outlive the cursor). */
    explicit SnapshotReplaySource(
        InstructionSource &source,
        uint64_t length = std::numeric_limits<uint64_t>::max());

    /**
     * The engine's plain fast path (InstructionSource::takePlainRun):
     * consume up to @p max instructions of the pending plain run; 0
     * when the next record is a control instruction or the stream is
     * exhausted.
     */
    uint32_t
    takePlainRun(Addr &pc_out, uint32_t max) override
    {
        uint32_t n = plainLeft < max ? plainLeft : max;
        pc_out = pc;
        plainLeft -= n;
        pc += Addr(n) * kInstBytes;
        return n;
    }

    bool
    next(DynInst &out) override
    {
        for (;;) {
            if (plainLeft > 0) {
                --plainLeft;
                out = DynInst{pc, InstClass::Plain, false, 0};
                pc += kInstBytes;
                return true;
            }
            if (cur == end)
                return false;
            if (controlPending) {
                controlPending = false;
                // Direct cast, not classFromWire(): records never
                // cross a process boundary, the encoder wrote a
                // genuine InstClass, and this is the per-control hot
                // path.
                out = DynInst{pc, static_cast<InstClass>(cur->cls),
                              cur->taken != 0, cur->target};
                pc = cur->taken ? cur->target : pc + kInstBytes;
                advance();
                return true;
            }
            // A run-only record whose plains are drained: move on.
            advance();
        }
    }

  private:
    void
    loadRecord()
    {
        plainLeft = cur->plainBefore;
        controlPending = cur->cls != TraceSnapshot::kRunOnly;
    }

    /** Step past the current record, refilling a drained chunk. */
    void
    advance()
    {
        if (++cur != end || refill())
            loadRecord();
    }

    /** Point at the next block or encode the next chunk; false
     *  (cur == end) at the end. */
    bool refill();

    const TraceSnapshot::ControlRecord *cur = nullptr;
    const TraceSnapshot::ControlRecord *end = nullptr;
    Addr pc = 0;
    uint32_t plainLeft = 0;
    bool controlPending = false;
    /** Shared form only. */
    const TraceSnapshot *shared = nullptr;
    size_t nextBlock = 0;
    /** Streaming form only. */
    std::optional<SnapshotEncoder> encoder;
    std::unique_ptr<TraceSnapshot::ControlRecord[]> chunk;
};

} // namespace specfetch

#endif // SPECFETCH_TRACE_SNAPSHOT_HH_
