/**
 * @file
 * High-level simulation entry points: the one-call public API most
 * users (and all examples/benches) go through. Every overload feeds
 * the engine through a SnapshotReplaySource (DESIGN.md §9).
 */

#ifndef SPECFETCH_CORE_SIMULATOR_HH_
#define SPECFETCH_CORE_SIMULATOR_HH_

#include <string>

#include "core/config.hh"
#include "core/results.hh"
#include "obs/observations.hh"
#include "trace/snapshot.hh"
#include "workload/workload.hh"

namespace specfetch {

/**
 * Run one policy on an already-built workload, recording its
 * correct-path stream through the streaming cursor.
 *
 * @param workload Built workload (buildWorkload or trace-loaded).
 * @param config   Machine configuration; the run seed drives the
 *                 workload's dynamic behavior.
 */
SimResults runSimulation(const Workload &workload, const SimConfig &config);

/**
 * Run one policy on an already-built workload, replaying a recorded
 * shared snapshot. Results are bit-identical to the streaming
 * overload provided the snapshot was recorded from (workload,
 * config.runSeed) and covers at least config.streamInstructions()
 * instructions (tests/trace/test_snapshot.cc pins this).
 */
SimResults runSimulation(const Workload &workload, const SimConfig &config,
                         const TraceSnapshot &snapshot);

/**
 * @name Observing variants
 * Identical results to the overloads above; additionally fill
 * @p observations with whatever collectors the config armed
 * (sampleInterval > 0 and/or setHeatmap) and, when @p classify is
 * set, with the run's Table-4 taxonomy (MissClassifier; the config
 * must pass requireClassifiable). With no collector armed
 * @p observations comes back empty. @{
 */
SimResults runSimulation(const Workload &workload, const SimConfig &config,
                         RunObservations &observations,
                         bool classify = false);

SimResults runSimulation(const Workload &workload, const SimConfig &config,
                         const TraceSnapshot &snapshot,
                         RunObservations &observations,
                         bool classify = false);
/** @} */

/**
 * Convenience: run the named benchmark. The built workload comes from
 * the process-wide memoized store (sharedWorkload), so repeated
 * single-run calls don't pay the CFG build each time.
 */
SimResults runBenchmark(const std::string &benchmark,
                        const SimConfig &config);

} // namespace specfetch

#endif // SPECFETCH_CORE_SIMULATOR_HH_
