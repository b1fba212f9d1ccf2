/**
 * @file
 * The slot-driven front-end model (DESIGN.md §3).
 *
 * The engine consumes the correct-path instruction stream and charges
 * every lost issue slot to one of the paper's penalty components. It
 * models the machine at issue-slot granularity: on the 4-wide
 * baseline, 4 slots = 1 cycle, a misfetch costs decodeSlots = 8 lost
 * slots and a mispredict resolveSlots = 16, and an I-cache miss
 * penalty of 5 cycles occupies the bus for 20 slots — the paper's own
 * arithmetic (§4.1), which is why this model reproduces its ISPI
 * accounting exactly while remaining fast enough for
 * hundreds-of-millions-of-instruction runs.
 */

#ifndef SPECFETCH_CORE_FETCH_ENGINE_HH_
#define SPECFETCH_CORE_FETCH_ENGINE_HH_

#include <memory>

#include "adaptive/adaptive_log.hh"
#include "branch/predictor.hh"
#include "cache/bus.hh"
#include "cache/icache.hh"
#include "cache/line_buffer.hh"
#include "cache/prefetch_unit.hh"
#include "cache/victim_cache.hh"
#include "core/branch_unit.hh"
#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "core/wrong_path_walker.hh"
#include "isa/program_image.hh"
#include "util/ring_buffer.hh"
#include "workload/executor.hh"

#include "obs/observations.hh"

namespace specfetch {

class InvariantAuditor;
class IntervalSampler;
class PolicySelector;
class SnapshotReplaySource;

/**
 * One simulated front end. Construct per run (state is not reusable
 * across runs).
 */
class FetchEngine
{
  public:
    /**
     * @param config Machine + run configuration (validated here).
     * @param image  Static program image for wrong-path fetches.
     */
    FetchEngine(const SimConfig &config, const ProgramImage &image);
    ~FetchEngine();

    /**
     * Arm the Table-4 collector (MissClassifier) for this run; fatal
     * unless the config passes requireClassifiable.
     */
    void armClassifier();

    /**
     * Run until the configured instruction budget is retired or the
     * source is exhausted. The production path: a statically bound
     * source step and plain runs retired in per-line batches
     * (DESIGN.md §14).
     */
    SimResults run(SnapshotReplaySource &source);

    /**
     * The scalar reference path with identical results: one virtual
     * next() and one fetchOne() per instruction. Tests and the
     * paranoid sweep cross-check compare against it.
     */
    SimResults run(InstructionSource &source);

    /**
     * Move whatever the armed collectors gathered (epoch series,
     * heatmap, Table-4 taxonomy) out of the engine. Call after run()
     * with the (labelled) results it returned: the classifier hands
     * its taxonomy over against them. A disarmed engine yields an
     * empty object.
     */
    void takeObservations(RunObservations &out, const SimResults &run);

  private:
    /**
     * @name Compile-time policy/prefetch slots
     * The hot-path methods below are templated on the fetch policy
     * and the prefetch on/off flag so a static run resolves both at
     * compile time. kDynamic in either slot falls back to reading the
     * live configuration — required for adaptive runs, whose policy
     * changes at epoch boundaries. @{
     */
    static constexpr int kDynamic = -1;

    /** The policy governing this access (folds to a constant when
     *  @p P names one). */
    template <int P>
    FetchPolicy
    activePolicy() const
    {
        if constexpr (P == kDynamic)
            return config.policy;
        else
            return static_cast<FetchPolicy>(P);
    }

    /** Whether a prefetch unit is armed (folds likewise). */
    template <int PF>
    bool
    prefetchArmed() const
    {
        return PF == kDynamic ? prefetcher.enabled() : PF != 0;
    }
    /** @} */

    /** Advance the slot clock to @p target, charging lost slots. */
    void
    advanceTo(Slot target, PenaltyKind kind)
    {
        if (target <= now)
            return;
        stats.penalty.charge(kind, static_cast<uint64_t>(target - now));
        now = target;
        drainResolves();
    }

    /**
     * Apply resolve-time predictor updates due by the current slot.
     * Polled once per fetched control instruction and on every clock
     * advance, so the not-due check inlines at every call site; the
     * training loop itself (one iteration per resolved control) stays
     * out of line.
     */
    void
    drainResolves()
    {
        if (!pendingResolves.empty() && pendingResolves.front().at <= now)
            drainResolvesDue();
    }

    /** The training loop behind drainResolves(); call only when the
     *  front entry is due. */
    void drainResolvesDue();

    /** Handle the correct-path access to @p line_addr (may stall). */
    template <int P, int PF>
    void handleLineAccess(Addr line_addr);

    /**
     * The miss continuation of handleLineAccess (fill buffers, victim
     * swap, conservative-policy tax, bus fill). Split out so the hit
     * path — one probe and a likely-taken branch — stays small enough
     * to inline into the per-line batch loop.
     */
    template <int P, int PF>
    void handleLineMiss(Addr line_addr);

    /** Issue one correct-path instruction; returns its issue slot. */
    template <int P, int PF>
    void fetchOne(const DynInst &inst);

    /**
     * Issue @p count contiguous correct-path plain instructions
     * starting at @p pc (the replay fast path). Equivalent to count
     * fetchOne() calls on plain instructions: the run is grouped into
     * per-line probe batches — one tag probe per cache line crossed,
     * then one add per batch for the retired-instruction count and
     * the slot clock (plains charge no penalties and never read the
     * predictor). DESIGN.md §14 states the batching invariants.
     */
    template <int P, int PF>
    void fetchPlainRun(Addr pc, uint32_t count);

    /** Handle a control instruction's outcome after issue. */
    template <int PF>
    void handleControl(const DynInst &inst, Slot issue);

    /** Trigger next-line prefetching for a correct-path access. */
    template <int PF>
    void maybePrefetch(Addr line_addr);

    /**
     * Body of both run() overloads (DESIGN.md §14): switches once on
     * (config.policy, prefetch on/off) into a runLoop instantiation
     * where both are compile-time constants. Adaptive runs, whose
     * policy changes at epoch boundaries, take the dynamic-policy
     * instantiation.
     */
    template <typename Source>
    SimResults runWith(Source &source);

    /**
     * The fetch loop proper, shared by every dispatch target of
     * runWith(). @p P and @p PF are the compile-time policy/prefetch
     * slots threaded through to the per-instruction helpers.
     */
    template <typename Source, int P, int PF>
    SimResults runLoop(Source &source);

    /** Zero the statistics after warmup (machine state persists). */
    void resetStats();

    /**
     * Adaptive decision point (config.adaptiveSelector != Off): close
     * the epoch that just ended, log the policy that governed it, and
     * apply the selector's choice for the next epoch. Called only at
     * exact multiples of config.adaptiveInterval, so the policy can
     * change nowhere else (DESIGN.md §12 switching contract).
     */
    void onAdaptiveBoundary();

    /**
     * Run the registered invariants (config.checkLevel != Off). On any
     * violation: emit the structured report and stop the run.
     */
    void runAudit(bool end_of_run);

    SimConfig config;
    const ProgramImage &image;

    BranchPredictor predictor;
    ICache cache;
    MemoryBus bus;
    LineBuffer resumeBuffer;
    MemoryHierarchy hierarchy;
    VictimCache victimCache;
    PrefetchUnit prefetcher;
    BranchUnit branchUnit;
    WrongPathWalker walker;

    /** Pending resolve-time predictor updates, in issue order. */
    struct PendingResolve
    {
        Slot at = 0;
        DynInst inst;
    };
    RingQueue<PendingResolve> pendingResolves;

    Slot now = 0;
    Slot lastIssue = -1;
    Addr curLine = 0;
    SimResults stats;
    /** Prefetch count at the last stats reset (warmup boundary). */
    uint64_t prefetchBaseline = 0;
    /** Slot clock at the last stats reset (audit identity base). */
    Slot statsBaseSlot = 0;
    /** Bus transactions at the last stats reset. */
    uint64_t busBaseline = 0;
    /** Non-null iff config.checkLevel != Off. */
    std::unique_ptr<InvariantAuditor> auditor;
    /** Non-null iff config.sampleInterval > 0 (src/obs). */
    std::unique_ptr<IntervalSampler> sampler;
    /** Non-null iff config.setHeatmap (src/obs). */
    std::unique_ptr<SetHeatmap> heatmap;
    /** @name Adaptive selection (src/adaptive) @{ */
    /** Non-null iff config.adaptiveSelector != Off. */
    std::unique_ptr<PolicySelector> selector;
    /** Epoch ticker of the decision point: reuses the interval
     *  sampler's delta machinery, independent of the obs sampler. */
    std::unique_ptr<IntervalSampler> adaptiveTicker;
    AdaptiveLog adaptiveLog;
    /** @} */
    /** Non-null iff armClassifier() was called. */
    std::unique_ptr<MissClassifier> classifier;
};

} // namespace specfetch

#endif // SPECFETCH_CORE_FETCH_ENGINE_HH_
