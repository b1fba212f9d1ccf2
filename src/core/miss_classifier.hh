/**
 * @file
 * Miss classification (paper §5.1.1, Table 4).
 *
 * The paper partitions misses by comparing Oracle and Optimistic runs
 * of the same trace:
 *
 *  - Both Miss      — misses under both policies;
 *  - Spec Pollute   — Optimistic-only correct-path misses (wrong-path
 *                     fills displaced useful lines);
 *  - Spec Prefetch  — Oracle-only misses (wrong-path fills usefully
 *                     prefetched the line for Optimistic);
 *  - Wrong Path     — Optimistic misses on the wrong path (their main
 *                     cost is memory bandwidth);
 *  - Traffic Ratio  — Optimistic misses / Oracle misses.
 *
 * We obtain all five in a single Optimistic-timed run by keeping a
 * lockstep *oracle shadow cache* that is filled only by correct-path
 * misses: for every correct-path access both images are probed and
 * the (hit,hit) pair indexes the category. The shadow cache is a
 * collector the engine owns, armed per run (RunSpec::classify or the
 * observing runSimulation overloads), so the grid's own Optimistic
 * run can carry the taxonomy.
 */

#ifndef SPECFETCH_CORE_MISS_CLASSIFIER_HH_
#define SPECFETCH_CORE_MISS_CLASSIFIER_HH_

#include <string>

#include "cache/icache.hh"
#include "core/config.hh"
#include "workload/workload.hh"

namespace specfetch {

struct SimResults;

/** Table 4 results for one workload. */
struct Classification
{
    std::string workload;
    uint64_t instructions = 0;

    uint64_t bothMiss = 0;
    uint64_t specPollute = 0;
    uint64_t specPrefetch = 0;
    uint64_t wrongPath = 0;    ///< serviced wrong-path fills

    /** Oracle misses = Both Miss + Spec Prefetch. */
    uint64_t oracleMisses() const { return bothMiss + specPrefetch; }
    /** Optimistic misses = Both Miss + Spec Pollute + Wrong Path. */
    uint64_t
    optimisticMisses() const
    {
        return bothMiss + specPollute + wrongPath;
    }

    /** Percent-of-instructions views (the paper's units). @{ */
    double bothMissPercent() const;
    double specPollutePercent() const;
    double specPrefetchPercent() const;
    double wrongPathPercent() const;
    /** @} */

    /** Optimistic/Oracle miss (= memory traffic) ratio. */
    double trafficRatio() const;

    bool operator==(const Classification &) const = default;
};

/**
 * The Table-4 collector: the lockstep Oracle shadow cache. The engine
 * owns one when armed and reports every correct-path access and every
 * serviced wrong-path fill to it; it never touches the policy's state.
 */
class MissClassifier
{
  public:
    explicit MissClassifier(const ICacheConfig &geometry) : oracle(geometry)
    {
    }

    /**
     * A correct-path line access completed; @p policy_hit says whether
     * the policy's cache (plus buffers) supplied it without a fill.
     */
    void
    correctAccess(Addr line_addr, bool policy_hit)
    {
        bool oracle_hit = oracle.access(line_addr);
        if (!oracle_hit)
            oracle.insert(line_addr);
        if (!oracle_hit && !policy_hit)
            ++counts.bothMiss;
        else if (oracle_hit && !policy_hit)
            ++counts.specPollute;
        else if (!oracle_hit && policy_hit)
            ++counts.specPrefetch;
    }

    /** A wrong-path miss was serviced (a fill went to memory). */
    void wrongPathFill() { ++counts.wrongPath; }

    /**
     * Hand the taxonomy of the finished run over. When
     * config.checkLevel != Off it is first audited against the run's
     * counters (Table 4 conservation); a violation emits the audit
     * report and aborts.
     */
    Classification handOver(const SimResults &run, uint64_t bus_transactions,
                             const SimConfig &config) const;

  private:
    ICache oracle;
    Classification counts;
};

/**
 * Fail (fatal) unless a run under @p config may arm the collector: the
 * taxonomy is defined for an Optimistic run without prefetching or a
 * per-epoch selector, as in the paper, and without warmup (the shadow
 * cache counts from the first access, so a warmup would desynchronize
 * it from the run's counters).
 */
void requireClassifiable(const SimConfig &config);

/**
 * Classify misses for @p workload under @p config's cache geometry
 * and branch architecture: one armed runSimulation with the policy
 * forced to Optimistic and prefetching, warmup and adaptive selection
 * off (the comparison is Optimistic vs Oracle without prefetching, as
 * in the paper).
 *
 * The run is audited like every armed run (MissClassifier::handOver).
 * @p timed_results, when non-null, receives that Optimistic run's
 * results, with an empty workload label, so callers (tests) can
 * re-verify the conservation identities.
 */
Classification classifyMisses(const Workload &workload,
                              const SimConfig &config,
                              SimResults *timed_results = nullptr);

} // namespace specfetch

#endif // SPECFETCH_CORE_MISS_CLASSIFIER_HH_
