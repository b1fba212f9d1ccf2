#include "fault/resilient_sweep.hh"

#include <mutex>

#include "fault/result_store.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "report/record.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

std::string
sweepRunKey(const RunSpec &spec)
{
    // The manifest serialization is byte-deterministic (report/json),
    // so the digest is stable across processes and machines.
    return spec.benchmark + ":" + hexString(hash64(toJson(spec.config).dump()));
}

ResilientSweepResult
runResilientSweep(const std::vector<RunSpec> &specs,
                  const ResilientSweepOptions &options)
{
    panic_if(!options.makeRecord,
             "resilient sweep needs a makeRecord callback");
    ResultStore &store = options.store;
    panic_if(!store.isOpen(), "resilient sweep needs an open store");

    const size_t n = specs.size();
    ResilientSweepResult result;
    result.records.resize(n);
    result.completed.assign(n, 0);

    // Stored runs are served; only the misses execute.
    std::vector<std::string> keys(n);
    std::vector<size_t> remaining;
    std::vector<RunSpec> subSpecs;
    {
        TraceSpan span("store_lookup", "fault");
        for (size_t i = 0; i < n; ++i) {
            keys[i] = sweepRunKey(specs[i]);
            if (store.get(keys[i], result.records[i])) {
                result.completed[i] = 1;
                ++result.servedRuns;
                ProgressReporter::global().runResumed();
            } else {
                remaining.push_back(i);
                subSpecs.push_back(specs[i]);
            }
        }
    }

    std::mutex resultMutex;
    SweepGuard guard;
    guard.maxAttempts = options.maxAttempts;
    guard.backoffBaseSeconds = options.backoffBaseSeconds;
    guard.runTimeoutSeconds = options.runTimeoutSeconds;
    guard.injector = options.injector;
    // SPECFETCH-ALLOW(error-boundary): put() panics only on JsonValue misuse, a programming error; its I/O failures return false and only warn
    guard.onRunComplete = [&](size_t subIndex, const SimResults &results) {
        size_t index = remaining[subIndex];
        JsonValue record = options.makeRecord(index, results);
        // A lost put only costs a re-execution next time; it must
        // never kill the sweep it protects.
        std::string error;
        if (!store.put(keys[index], record, &error))
            warn("run %zu not stored: %s", index, error.c_str());
        std::lock_guard<std::mutex> lock(resultMutex);
        result.records[index] = std::move(record);
        result.completed[index] = 1;
        ++result.executedRuns;
    };

    SweepOutcome outcome = runSweepGuarded(subSpecs, guard,
                                           options.parallelism,
                                           &result.timing);

    for (SweepFailure failure : outcome.failures) {
        failure.index = remaining[failure.index];
        if (options.rerunCommand)
            failure.rerunCommand = options.rerunCommand(failure.index);
        result.failures.push_back(std::move(failure));
    }

    // Heal what the open scan tolerated: a torn tail or quarantined
    // frame would otherwise sit mid-log once later tails follow it.
    ResultStore::Stats stats = store.stats();
    if (stats.tornTail || stats.corruptFrames > 0 ||
        stats.segmentsLoaded > 1) {
        std::string error;
        if (!store.compact(&error))
            warn("result store compaction failed: %s", error.c_str());
    }
    return result;
}

} // namespace specfetch
