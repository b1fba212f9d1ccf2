/**
 * @file
 * Parameter-sweep driver used by the benchmark harnesses: runs
 * (benchmark × configuration) grids, in parallel across hardware
 * threads, and returns results in submission order.
 */

#ifndef SPECFETCH_CORE_SWEEP_HH_
#define SPECFETCH_CORE_SWEEP_HH_

#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/results.hh"
#include "obs/observations.hh"

namespace specfetch {

class FaultInjector;

/** One run request. */
struct RunSpec
{
    std::string benchmark;
    SimConfig config;
    /**
     * Arm the Table-4 collector (MissClassifier): the run's
     * observations carry its classification. The config must pass
     * requireClassifiable, and the sweep must be a runSweep given
     * observations. Not part of SimConfig: classifying never changes
     * a run's results, manifest or run key.
     */
    bool classify = false;
};

/**
 * Wall-clock attribution of one sweep, split by stage. Filled by
 * runSweep when requested; feeds the run manifests of the report
 * layer. Timing never influences results — sweeps stay deterministic.
 */
struct SweepTiming
{
    /** Building the distinct workloads (shared across specs). */
    double workloadBuildSeconds = 0.0;
    /** Worker-seconds spent recording the shared correct-path
     *  snapshots (see trace/snapshot.hh), summed over the recording
     *  tasks. They run inside the task stage, beside other streams'
     *  runs, so this time overlaps runSeconds. */
    double snapshotRecordSeconds = 0.0;
    /** Wall clock of the one task stage: every recording and every
     *  run. */
    double runSeconds = 0.0;
    /** The whole sweep, build + task stage. */
    double totalSeconds = 0.0;
    /** Per-spec simulation seconds, in submission order. */
    std::vector<double> perRunSeconds;
    /** Shared snapshots recorded (one per shared stream). */
    size_t snapshotsRecorded = 0;
    /** Most shared snapshots alive at once (at most workers + 2);
     *  not exported to run records. */
    size_t peakLiveSnapshots = 0;
};

/**
 * Streams longer than this are not shared (each consumer records its
 * own in 64 KiB chunks). The schedule bounds how many shared snapshots
 * are alive (workers + 2), not how large one is: at the measured ~1.9
 * bytes per instruction the cap keeps each under ~120 MB, so a sweep's
 * snapshot memory stays bounded by its workers whatever its budget.
 */
constexpr uint64_t kSweepSnapshotMaxInstructions = 64'000'000;

/**
 * Execute every spec and return results in the same order.
 *
 * Shared work is hoisted out of the per-spec runs: each benchmark's
 * workload is built (or fetched from the process-wide store) once,
 * and each distinct (benchmark, run seed) correct-path stream that
 * more than one spec consumes is recorded once into a shared
 * TraceSnapshot and replayed by all of them; every other run records
 * its own in 64 KiB chunks. Shared streams are recorded stream-major,
 * each one just ahead of its runs and freed after its last run, so at
 * most workers + 2 snapshots are alive at once. Results are
 * bit-identical to single runs at any parallelism, which paranoid
 * sweeps check against the engine's scalar reference path over a live
 * executor.
 *
 * @param specs        Requests.
 * @param parallelism  Worker threads; 0 = hardware concurrency.
 * @param timing       When non-null, filled with per-stage and
 *                     per-spec wall-clock times.
 * @param observations When non-null, resized to specs.size() and
 *                     filled with each run's armed-collector output
 *                     (src/obs, and the classification of specs that
 *                     set RunSpec::classify), in submission order —
 *                     identical at any parallelism. Required when any
 *                     spec sets classify; a missing one is fatal.
 */
std::vector<SimResults>
runSweep(const std::vector<RunSpec> &specs, unsigned parallelism = 0,
         SweepTiming *timing = nullptr,
         std::vector<RunObservations> *observations = nullptr);

/**
 * One quarantined run: the sweep completed without it after
 * exhausting its retry budget. Enough context to reproduce the
 * failure standalone is carried along (the bench layer fills in
 * rerunCommand with an exact command line).
 */
struct SweepFailure
{
    /** Submission index within the sweep that quarantined it. */
    size_t index = 0;
    std::string benchmark;
    /** SimConfig::describe() of the failing configuration. */
    std::string config;
    /** What the last attempt died of (exception message). */
    std::string cause;
    /** Attempts consumed (== the guard's maxAttempts). */
    unsigned attempts = 0;
    /** Exact command to reproduce the run standalone. */
    std::string rerunCommand;
};

/**
 * Per-run fault-tolerance policy for runSweepGuarded. The zero-cost
 * default (maxAttempts 1, no timeout, no injector) degenerates to
 * plain runSweep behaviour except that a failing run is quarantined
 * instead of killing the process.
 */
struct SweepGuard
{
    /** Attempts per run before quarantine (>= 1). */
    unsigned maxAttempts = 3;
    /** Base of the exponential retry backoff (seconds). */
    double backoffBaseSeconds = 0.05;
    /** Per-run wall-clock watchdog budget; 0 disables. */
    double runTimeoutSeconds = 0.0;
    /** Borrowed; may be null. Forces faults at chosen run indices. */
    const FaultInjector *injector = nullptr;
    /**
     * Invoked — possibly from a sweep worker thread, never twice for
     * one index — the moment a run completes. The fault-tolerant
     * sweep puts the run's record in the result store here, so a
     * crash an instant later loses nothing.
     */
    std::function<void(size_t index, const SimResults &results)>
        onRunComplete;
};

/** What a guarded sweep produced: results plus the failure ledger. */
struct SweepOutcome
{
    /** Indexed like specs; quarantined slots hold default results. */
    std::vector<SimResults> results;
    /** Quarantined runs, in submission order. */
    std::vector<SweepFailure> failures;
    /** completed[i] != 0 iff specs[i] produced results[i]. */
    std::vector<uint8_t> completed;

    bool allCompleted() const { return failures.empty(); }
};

/**
 * Fault-tolerant variant of runSweep: each run executes behind an
 * exception boundary (panic/fatal throw instead of killing the
 * process), an optional cooperative watchdog, and a retry loop with
 * exponential backoff. The first attempt may replay the shared
 * correct-path snapshot (after verifying its content digest); every
 * retry re-records a private stream. Runs follow runSweep's schedule;
 * recording a shared snapshot stays outside the guard, so a failed
 * recording aborts the sweep. A run that exhausts
 * guard.maxAttempts is quarantined into the outcome's failures array
 * and the sweep carries on.
 *
 * Completed runs are bit-identical to an unguarded sweep's — the
 * guard only adds recovery, never perturbs simulation state. It
 * returns no observations, so a spec that sets RunSpec::classify is
 * fatal here.
 */
SweepOutcome runSweepGuarded(const std::vector<RunSpec> &specs,
                             const SweepGuard &guard,
                             unsigned parallelism = 0,
                             SweepTiming *timing = nullptr);

/**
 * The instruction budget benches should use: the SPECFETCH_BUDGET
 * environment variable (count with K/M/G suffixes) or @p fallback.
 */
uint64_t benchBudget(uint64_t fallback);

} // namespace specfetch

#endif // SPECFETCH_CORE_SWEEP_HH_
