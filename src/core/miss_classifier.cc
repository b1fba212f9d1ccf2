#include "core/miss_classifier.hh"

#include <utility>

#include "check/invariant.hh"
#include "core/simulator.hh"
#include "stats/stats.hh"
#include "util/logging.hh"

namespace specfetch {

double
Classification::bothMissPercent() const
{
    return 100.0 * ratioOf(bothMiss, instructions);
}

double
Classification::specPollutePercent() const
{
    return 100.0 * ratioOf(specPollute, instructions);
}

double
Classification::specPrefetchPercent() const
{
    return 100.0 * ratioOf(specPrefetch, instructions);
}

double
Classification::wrongPathPercent() const
{
    return 100.0 * ratioOf(wrongPath, instructions);
}

double
Classification::trafficRatio() const
{
    return ratioOf(optimisticMisses(), oracleMisses());
}

Classification
MissClassifier::handOver(const SimResults &run, uint64_t bus_transactions,
                         const SimConfig &config) const
{
    Classification out = counts;
    out.workload = run.workload;
    out.instructions = run.instructions;
    if (config.checkLevel != CheckLevel::Off) {
        InvariantAuditor auditor(config.checkLevel);
        auditClassification(out, run, bus_transactions, auditor);
        if (!auditor.clean()) {
            auditor.emitReport(config);
            panic("Table 4 conservation violated for workload '%s': %s",
                  out.workload.c_str(),
                  auditor.violations().front().detail.c_str());
        }
    }
    return out;
}

void
requireClassifiable(const SimConfig &config)
{
    if (config.policy != FetchPolicy::Optimistic ||
        config.effectivePrefetchKind() != PrefetchKind::None ||
        config.warmupInstructions != 0 ||
        config.adaptiveSelector != SelectorKind::Off) {
        fatal("the miss classifier needs an Optimistic run without "
              "prefetch, warmup or selector, not: %s",
              config.describe().c_str());
    }
}

Classification
classifyMisses(const Workload &workload, const SimConfig &config,
               SimResults *timed_results)
{
    SimConfig cfg = config;
    cfg.policy = FetchPolicy::Optimistic;
    cfg.nextLinePrefetch = false;
    cfg.prefetchKind = PrefetchKind::None;
    cfg.warmupInstructions = 0;
    cfg.adaptiveSelector = SelectorKind::Off;

    RunObservations observations;
    SimResults results = runSimulation(workload, cfg, observations, true);
    if (timed_results) {
        *timed_results = results;
        // Empty, as it has always been: specbench's stored counter
        // digests hash this label, so filling it waits for a change
        // to the benchmark.
        timed_results->workload.clear();
    }
    return std::move(*observations.classification);
}

} // namespace specfetch
