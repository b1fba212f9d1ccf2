/**
 * @file
 * The architectural executor: walks the CFG and produces the dynamic
 * correct-path instruction stream, either one DynInst at a time
 * (next()) or, for the plain bodies of basic blocks, a whole run of
 * sequential instructions per call (takePlainRun()).
 *
 * This plays the role ATOM-instrumented execution plays in the paper:
 * it defines ground truth — where the program really goes — against
 * which the fetch engine speculates. It is a pull-based generator so
 * multi-billion-instruction runs need no trace storage, and it is
 * deterministic given (program, run seed), so every policy sees the
 * identical correct path.
 */

#ifndef SPECFETCH_WORKLOAD_EXECUTOR_HH_
#define SPECFETCH_WORKLOAD_EXECUTOR_HH_

#include <vector>

#include "isa/instruction.hh"
#include "isa/program_image.hh"
#include "stats/stats.hh"
#include "util/random.hh"
#include "workload/cfg.hh"

namespace specfetch {

/**
 * Abstract source of the correct-path stream (executor, trace file,
 * snapshot replay, or scripted test input). next() is the whole
 * contract; takePlainRun() is an optional bulk step over plain
 * instructions that the snapshot encoder tries first.
 */
class InstructionSource
{
  public:
    virtual ~InstructionSource() = default;

    /**
     * Produce the next correct-path instruction.
     * @return false when the source is exhausted (the executor never
     *         is; trace replay and test scripts are).
     */
    virtual bool next(DynInst &out) = 0;

    /**
     * Bulk variant of next(): consume up to @p max of the plain
     * instructions that come next in one call. Returns the count
     * consumed and the PC of the first in @p pc_out; the run is
     * contiguous from there at kInstBytes stride. 0 means "use
     * next()": the next instruction is control flow, the stream is
     * exhausted, or — the default — the source has no bulk step.
     * Interleaves freely with next(): consuming a stream either way
     * yields the same instructions.
     */
    virtual uint32_t takePlainRun(Addr &, uint32_t) { return 0; }
};

/**
 * CFG interpreter. Runs consume its stream through a
 * SnapshotReplaySource (trace/snapshot.hh).
 */
class Executor final : public InstructionSource
{
  public:
    /**
     * @param cfg      Validated, laid-out program graph.
     * @param run_seed Seed for dynamic choices (biased branches,
     *                 trip-count jitter, switch arms).
     */
    Executor(const Cfg &cfg, uint64_t run_seed);

    /** Always returns true: the synthetic program runs forever. */
    bool next(DynInst &out) override;

    /**
     * Hand out the rest of the current block body, continuing through
     * FallThrough successors (laid out back to back), up to @p max
     * instructions. Updates the dynamic-mix counters and
     * blockVisits() exactly as the same number of next() calls would.
     */
    uint32_t takePlainRun(Addr &pc_out, uint32_t max) override;

    /** @name Dynamic-mix statistics @{ */
    Counter instructions;       ///< everything emitted
    Counter controlInsts;       ///< all control-flow instructions
    Counter condBranches;       ///< conditional branches
    Counter condTaken;          ///< conditionals that were taken
    Counter calls;
    Counter returns;
    Counter indirectJumps;
    Counter indirectCalls;
    /** @} */

    /** Fraction of emitted instructions that were control flow. */
    double branchFraction() const;

    /** Dynamic entry count per basic block (profile-guided layout,
     *  paper §6 "software techniques"). Indexed by block id. */
    const std::vector<uint64_t> &blockVisits() const { return visits; }

  private:
    /** Evaluate the direction of the conditional ending @p block. */
    bool evalCondBranch(const BasicBlock &block);

    const Cfg &cfg;
    Rng rng;

    uint32_t curBlock = 0;
    uint32_t instInBlock = 0;
    /** Architectural outcome history feeding Correlated branches. */
    uint64_t archHistory = 0;
    std::vector<uint32_t> callStack;        ///< return block ids
    std::vector<uint32_t> loopRemaining;    ///< 0 = loop not active
    std::vector<uint64_t> patternCount;     ///< per-branch occurrence
    std::vector<uint64_t> visits;           ///< block entry counts
};

} // namespace specfetch

#endif // SPECFETCH_WORKLOAD_EXECUTOR_HH_
