/**
 * @file
 * Simulation configuration (paper §4.1 baseline + the axes §5 varies).
 */

#ifndef SPECFETCH_CORE_CONFIG_HH_
#define SPECFETCH_CORE_CONFIG_HH_

#include <algorithm>
#include <string>

#include "adaptive/selector_kind.hh"
#include "branch/predictor.hh"
#include "cache/icache.hh"
#include "cache/memory_hierarchy.hh"
#include "cache/prefetch_unit.hh"
#include "check/check_level.hh"
#include "core/policy.hh"
#include "isa/types.hh"

namespace specfetch {

/**
 * Everything that defines one simulated machine + run.
 *
 * Baseline (paper §4.1 / §5): 4-wide issue, depth-4 speculation,
 * 8K direct-mapped 32-byte-line I-cache, 5-cycle miss penalty,
 * 2-cycle decode / 4-cycle resolve, no prefetching.
 */
struct SimConfig
{
    FetchPolicy policy = FetchPolicy::Resume;

    /** @name Pipeline @{ */
    unsigned issueWidth = 4;        ///< slots per cycle
    unsigned maxUnresolved = 4;     ///< in-flight conditional branches
    unsigned decodeCycles = 2;      ///< fetch -> decoded (misfetch found)
    unsigned resolveCycles = 4;     ///< fetch -> resolved (mispredict found)
    /** @} */

    /** @name Memory system @{ */
    ICacheConfig icache;            ///< 8K / DM / 32B default
    unsigned missPenaltyCycles = 5; ///< fill latency (5 or 20)
    /** Overlapping memory transactions; 1 = the paper's blocking
     *  interface ("pipelining miss requests" is §6 further study). */
    unsigned memoryChannels = 1;
    /** Explicit L2 behind the I-cache (extension): when enabled, a
     *  fill costs l2HitCycles or l2MissCycles depending on L2 state,
     *  instead of the flat missPenaltyCycles — placing the workload
     *  between the paper's Figure 1 and Figure 2 regimes. */
    bool l2Enabled = false;
    ICacheConfig l2Cache = [] {
        ICacheConfig c;
        c.sizeBytes = 64 * 1024;
        c.ways = 4;
        return c;
    }();
    unsigned l2HitCycles = 5;
    unsigned l2MissCycles = 20;
    /** Victim cache entries behind the L1 (Jouppi 90 extension;
     *  0 = none, the paper's baseline). A victim hit swaps the line
     *  back in victimHitCycles without touching the bus. */
    unsigned victimEntries = 0;
    unsigned victimHitCycles = 1;

    /** Assemble the memory-side configuration. */
    MemoryConfig
    memoryConfig() const
    {
        MemoryConfig m;
        m.missPenaltyCycles = missPenaltyCycles;
        m.l2Enabled = l2Enabled;
        m.l2 = l2Cache;
        m.l2HitCycles = l2HitCycles;
        m.l2MissCycles = l2MissCycles;
        return m;
    }
    /** Shorthand for the paper's evaluated prefetcher; equivalent to
     *  prefetchKind = NextLine when prefetchKind is None. */
    // SPECFETCH-ALLOW(config-plumbing): manifest serializes effectivePrefetchKind(), which folds this in
    bool nextLinePrefetch = false;
    /** Prefetch mechanism; overrides nextLinePrefetch when not None
     *  (Target/Combined are §2.2 related-work extensions). */
    // SPECFETCH-ALLOW(config-plumbing): manifest serializes effectivePrefetchKind(), the resolved alias
    PrefetchKind prefetchKind = PrefetchKind::None;
    /** Target-prefetch table entries (power of two). */
    unsigned targetTableEntries = 64;

    /** The mechanism actually in effect. */
    PrefetchKind
    effectivePrefetchKind() const
    {
        if (prefetchKind != PrefetchKind::None)
            return prefetchKind;
        return nextLinePrefetch ? PrefetchKind::NextLine
                                : PrefetchKind::None;
    }
    /** @} */

    PredictorConfig predictor;

    /** @name Run control @{ */
    uint64_t instructionBudget = 10'000'000;
    uint64_t warmupInstructions = 0;  ///< retired before stats reset
    uint64_t runSeed = 42;            ///< dynamic-behavior seed

    /** Instructions a run consumes from its source: warmup + budget,
     *  saturating. */
    uint64_t
    streamInstructions() const
    {
        return instructionBudget +
            std::min(warmupInstructions, UINT64_MAX - instructionBudget);
    }
    /** @} */

    /** @name Correctness auditing (src/check; never affects results) @{ */
    /** Invariant-audit level: off (default), cheap (end-of-run
     *  identities), paranoid (adds checkpoint audits and sweep
     *  cross-validation). */
    CheckLevel checkLevel = CheckLevel::Off;
    /** Paranoid-mode audit cadence in retired instructions
     *  (0 = end-of-run only). */
    uint64_t checkpointInterval = 100'000;
    /** @} */

    /** @name Observability (src/obs; never affects results) @{ */
    /** Interval-sampler epoch length in retired correct-path
     *  instructions (0 = sampling off). */
    uint64_t sampleInterval = 0;
    /** Collect the per-set occupancy/conflict heatmap. */
    bool setHeatmap = false;
    /** @} */

    /** @name Adaptive policy selection (src/adaptive) @{ */
    /** Per-epoch selector; Off (the default) runs `policy` statically
     *  for the whole budget. When on, `policy` is the base policy of
     *  epoch 0 and the selector re-decides at every epoch boundary. */
    SelectorKind adaptiveSelector = SelectorKind::Off;
    /** Adaptive epoch length in retired correct-path instructions;
     *  the policy may change only at multiples of this count. */
    uint64_t adaptiveInterval = 50'000;
    /** Seed of the bandit selector's exploration stream. */
    uint64_t adaptiveSeed = 1;
    /** Exploration probability of the bandit selector, in [0, 1]. */
    double adaptiveEpsilon = 0.1;
    /** @} */

    /** @name Slot-unit conversions (4 slots = 1 cycle at width 4) @{ */
    Slot decodeSlots() const { return Slot(decodeCycles) * issueWidth; }
    Slot resolveSlots() const { return Slot(resolveCycles) * issueWidth; }
    Slot missPenaltySlots() const
    {
        return Slot(missPenaltyCycles) * issueWidth;
    }
    /** @} */

    /** One-line summary for logs and bench headers. */
    std::string describe() const;

    /** Sanity-check parameter consistency; fatal() on bad configs. */
    void validate() const;
};

} // namespace specfetch

#endif // SPECFETCH_CORE_CONFIG_HH_
