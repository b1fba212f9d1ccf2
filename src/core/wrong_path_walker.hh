/**
 * @file
 * Wrong-path instruction walker.
 *
 * After a misfetch or mispredict, the fetch unit keeps fetching real
 * instructions from the predicted-but-incorrect address until the
 * branch decodes/resolves. This walker models that window: it walks
 * the static program image one instruction per issue slot, probes the
 * I-cache, and applies the policy-specific miss handling — which is
 * exactly where the five policies differ:
 *
 *  - Oracle / Pessimistic: never service a wrong-path miss (walk ends);
 *  - Optimistic: fill, blocking the front end — if the fill outlasts
 *    the window, the redirect itself is delayed (wrong_icache);
 *  - Resume: fill into the resume buffer; the redirect is never
 *    delayed, but the bus stays busy;
 *  - Decode: fill only after the preceding instruction's decode proves
 *    the path was not misfetched (so misfetch-window misses are never
 *    serviced, mispredict-window misses are serviced late).
 *
 * Wrong-path fills *install lines* — the pollution/prefetch effects of
 * paper Table 4 — and wrong-path accesses trigger next-line prefetches
 * for the aggressive policies (Table 7's traffic ordering).
 */

#ifndef SPECFETCH_CORE_WRONG_PATH_WALKER_HH_
#define SPECFETCH_CORE_WRONG_PATH_WALKER_HH_

#include "branch/predictor.hh"
#include "cache/bus.hh"
#include "cache/icache.hh"
#include "cache/line_buffer.hh"
#include "cache/prefetch_unit.hh"
#include "cache/victim_cache.hh"
#include "core/config.hh"
#include "core/results.hh"
#include "isa/program_image.hh"

namespace specfetch {

class MissClassifier;
class SetHeatmap;

/**
 * Walks wrong paths on behalf of the fetch engine. Stateless across
 * calls; all machine state is shared with the engine by reference.
 */
class WrongPathWalker
{
  public:
    /**
     * @param config      Simulation configuration (policy, latencies).
     * @param image       Static program image.
     * @param predictor   Live predictor (wrong-path fetches predict
     *                    and speculatively update the BTB).
     * @param cache       The policy's I-cache array.
     * @param bus         The shared memory bus.
     * @param resume_buf  The resume buffer (used when policy==Resume).
     * @param hierarchy   Fill-latency provider (L2 model or flat).
     * @param prefetcher  Prefetch unit, or null when disabled.
     */
    WrongPathWalker(const SimConfig &_config, const ProgramImage &_image,
                    BranchPredictor &_predictor, ICache &_cache,
                    MemoryBus &_bus, LineBuffer &resume_buf,
                    MemoryHierarchy &_hierarchy, PrefetchUnit *_prefetcher)
        : config(_config), image(_image), predictor(_predictor),
          cache(_cache), bus(_bus), resumeBuffer(resume_buf),
          hierarchy(_hierarchy), prefetcher(_prefetcher)
    {
    }

    void setStats(SimResults *s) { stats = s; }
    /** Attach the Table-4 collector (null = off). */
    void setClassifier(MissClassifier *c) { classifier = c; }
    /** Attach the per-set heatmap collector (null = off). */
    void setHeatmap(SetHeatmap *map) { heatmap = map; }

    /** Attach a victim cache (null = none). Only policies that may
     *  service wrong-path misses perform the swap. */
    void
    setVictim(VictimCache *victim, Slot hit_slots)
    {
        victimCache = victim;
        victimHitSlots = hit_slots;
    }

    /**
     * Walk the wrong path starting at @p start_pc for the window
     * [@p from, @p window_end).
     *
     * @param start_pc    First wrong-path address.
     * @param from        First slot of the window.
     * @param window_end  Redirect slot (decode or resolve completion).
     * @param unresolved  In-flight conditional branches at window
     *                    start, including the causing branch; the
     *                    walk stops if speculation depth is exhausted.
     * @return The slot until which the *front end* stays blocked: ==
     *         window_end normally; greater when a blocking wrong-path
     *         fill (Optimistic/Decode) outlasts the window.
     */
    Slot walk(Addr start_pc, Slot from, Slot window_end,
              size_t unresolved);

  private:
    const SimConfig &config;
    const ProgramImage &image;
    BranchPredictor &predictor;
    ICache &cache;
    MemoryBus &bus;
    LineBuffer &resumeBuffer;
    MemoryHierarchy &hierarchy;
    PrefetchUnit *prefetcher;
    VictimCache *victimCache = nullptr;
    Slot victimHitSlots = 0;
    MissClassifier *classifier = nullptr;
    SimResults *stats = nullptr;
    SetHeatmap *heatmap = nullptr;
};

} // namespace specfetch

#endif // SPECFETCH_CORE_WRONG_PATH_WALKER_HH_
