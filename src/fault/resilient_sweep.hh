/**
 * @file
 * The fault-tolerant sweep driver (DESIGN.md §10): runSweepGuarded
 * backed by the durable ResultStore, glued into implicit resume.
 *
 * Every spec whose run key is already in the store is served from it
 * without executing; only the misses run (guarded: retries, watchdog,
 * quarantine), and each completed run's record is put (fsync'd) the
 * moment it finishes. Records come back in grid order either way,
 * and — because simulation is deterministic and the stored records
 * carry no timing — a sweep killed at any point and rerun against
 * the same store produces output byte-identical to an uninterrupted
 * one.
 *
 * The run key is content-addressed (benchmark name + a 64-bit digest
 * of the full configuration manifest), so a store filled by a
 * *different* grid silently degrades to re-running: mismatched keys
 * just never match.
 */

#ifndef SPECFETCH_FAULT_RESILIENT_SWEEP_HH_
#define SPECFETCH_FAULT_RESILIENT_SWEEP_HH_

#include <functional>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "report/json.hh"

namespace specfetch {

class FaultInjector;
class ResultStore;

/**
 * Content-addressed identity of one run: benchmark name plus a hash
 * of the serialized configuration manifest. Stable across processes
 * and machines; two specs collide only if they would produce the
 * same results anyway.
 */
std::string sweepRunKey(const RunSpec &spec);

/** Policy + plumbing for one fault-tolerant sweep. */
struct ResilientSweepOptions
{
    explicit ResilientSweepOptions(ResultStore &resultStore)
        : store(resultStore)
    {
    }

    /**
     * Borrowed, already open. Serves stored runs and receives every
     * executed one; its own injector drives the crash/tear/shortwrite/
     * enospc hooks.
     */
    ResultStore &store;
    /** Attempts per run before quarantine. */
    unsigned maxAttempts = 3;
    /** Base of the exponential retry backoff (seconds). */
    double backoffBaseSeconds = 0.05;
    /** Per-run wall-clock watchdog budget; 0 disables. */
    double runTimeoutSeconds = 0.0;
    /** Borrowed; may be null. Drives the per-run guard faults. */
    const FaultInjector *injector = nullptr;
    /** Sweep worker threads; 0 = hardware concurrency. */
    unsigned parallelism = 0;
    /**
     * Build the stored (and returned) record for a completed run.
     * Must be deterministic — no timing — or a rerun cannot reproduce
     * the clean run's bytes. Called from sweep worker threads.
     */
    std::function<JsonValue(size_t index, const SimResults &results)>
        makeRecord;
    /** Optional: exact command line reproducing run @p index. */
    std::function<std::string(size_t index)> rerunCommand;
};

/** What a fault-tolerant sweep produced. */
struct ResilientSweepResult
{
    /** Indexed like specs; quarantined slots hold JSON null. */
    std::vector<JsonValue> records;
    /** completed[i] != 0 iff records[i] is a real record. */
    std::vector<uint8_t> completed;
    /** Quarantined runs (original indices, rerunCommand filled). */
    std::vector<SweepFailure> failures;
    /** Runs served from the store without executing. */
    size_t servedRuns = 0;
    /** Runs actually executed this process. */
    size_t executedRuns = 0;
    /** Timing of the executed portion. */
    SweepTiming timing;

    bool allCompleted() const { return failures.empty(); }
};

/**
 * Run @p specs fault-tolerantly per @p options. Never aborts on a
 * failing run — it quarantines — and a failed store put only warns.
 * When the store's open scan dropped a torn tail, quarantined a frame
 * or read more than one segment file, the store is compacted once
 * after the sweep, so the next open reads one clean base.
 */
ResilientSweepResult
runResilientSweep(const std::vector<RunSpec> &specs,
                  const ResilientSweepOptions &options);

} // namespace specfetch

#endif // SPECFETCH_FAULT_RESILIENT_SWEEP_HH_
