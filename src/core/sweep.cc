#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "check/invariant.hh"
#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "fault/guard.hh"
#include "fault/injector.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "workload/executor.hh"
#include "workload/workload.hh"

namespace specfetch {

namespace {

using SweepClock = std::chrono::steady_clock;

double
secondsSince(SweepClock::time_point start)
{
    return std::chrono::duration<double>(SweepClock::now() - start)
        .count();
}

/** Run fn(0..count-1) across @p workers threads (work-stealing). */
void
parallelFor(size_t count, unsigned workers,
            const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers > count)
        workers = static_cast<unsigned>(count);
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            size_t index = next.fetch_add(1);
            if (index >= count)
                return;
            fn(index);
        }
    };
    if (workers <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
}

unsigned
resolveWorkers(unsigned parallelism)
{
    return parallelism != 0
        ? parallelism
        : std::max(1u, std::thread::hardware_concurrency());
}

/** Identity of one correct-path stream: program + dynamic seed. */
using StreamKey = std::pair<std::string, uint64_t>;

using WorkloadMap =
    std::map<std::string, std::shared_ptr<const Workload>>;

/** One correct-path stream of a sweep and the specs that consume it. */
struct SweepStream
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    /** The hungriest consumer's streamInstructions(). */
    uint64_t length = 0;
    /** Consuming spec indices, in submission order. */
    std::vector<size_t> consumers;
    /** Recorded once and replayed by every consumer. */
    bool shared = false;

    /** @name Shared streams only; guarded by the schedule's mutex @{ */
    std::unique_ptr<const TraceSnapshot> snapshot;
    bool published = false;
    /** Consumers that have not finished yet. */
    size_t pending = 0;
    /** @} */
};

/** One claimable unit of work: record a stream, or run a spec of it. */
struct SweepTask
{
    bool record = false;
    size_t stream = 0;
    /** Spec index; unused when recording. */
    size_t spec = 0;
};

/** Executes spec @p index; @p snapshot is null for a private stream. */
using RunFn = std::function<void(size_t index, const Workload &workload,
                                 const TraceSnapshot *snapshot)>;

/**
 * The one task schedule behind both sweep entry points. Specs are
 * grouped by (benchmark, runSeed) stream in first-use order, and the
 * tasks are rec(0), rec(1), runs(0), rec(2), runs(1), ...: each
 * shared stream is recorded while the previous stream's runs are
 * claimed, just ahead of its own (streams of one consumer, or longer
 * than kSweepSnapshotMaxInstructions, are private and have no
 * recording). Workers claim tasks in order; a run of a shared stream
 * waits until its recording is published, and the last consumer to
 * finish drops the snapshot. At any moment at most two streams still
 * have unclaimed runs and every other live stream has a run in
 * flight, so at most workers + 2 snapshots are alive.
 *
 * Resets and fills @p timing (all but perRunSeconds' entries, which
 * @p run owns) and returns the sweep's workloads.
 */
WorkloadMap
runStreamMajor(const std::vector<RunSpec> &specs, unsigned parallelism,
               SweepTiming *timing, const RunFn &run)
{
    SweepClock::time_point sweepStart = SweepClock::now();
    if (timing) {
        *timing = SweepTiming{};
        timing->perRunSeconds.assign(specs.size(), 0.0);
    }
    // Fetch each distinct workload once (process-wide memoized store);
    // runs only read them.
    WorkloadMap workloads;
    {
        TraceSpan span("workload_build", "sweep");
        for (const RunSpec &spec : specs) {
            if (!workloads.count(spec.benchmark))
                workloads[spec.benchmark] = sharedWorkload(spec.benchmark);
        }
    }
    if (timing)
        timing->workloadBuildSeconds = secondsSince(sweepStart);

    std::vector<SweepStream> streams;
    {
        std::map<StreamKey, size_t> byKey;
        for (size_t i = 0; i < specs.size(); ++i) {
            const RunSpec &spec = specs[i];
            auto [it, fresh] = byKey.try_emplace(
                StreamKey{spec.benchmark, spec.config.runSeed},
                streams.size());
            if (fresh) {
                streams.emplace_back();
                streams.back().workload =
                    workloads.at(spec.benchmark).get();
                streams.back().seed = spec.config.runSeed;
            }
            SweepStream &stream = streams[it->second];
            stream.length = std::max(stream.length,
                                     spec.config.streamInstructions());
            stream.consumers.push_back(i);
        }
    }
    for (SweepStream &stream : streams) {
        stream.shared = stream.consumers.size() >= 2 &&
            stream.length <= kSweepSnapshotMaxInstructions;
        stream.pending = stream.consumers.size();
    }

    std::vector<SweepTask> tasks;
    tasks.reserve(specs.size() + streams.size());
    auto recordAhead = [&](size_t s) {
        if (s < streams.size() && streams[s].shared)
            tasks.push_back(SweepTask{true, s, 0});
    };
    recordAhead(0);
    for (size_t s = 0; s < streams.size(); ++s) {
        recordAhead(s + 1);
        for (size_t spec : streams[s].consumers)
            tasks.push_back(SweepTask{false, s, spec});
    }

    std::mutex mutex;
    std::condition_variable publishedCv;
    size_t live = 0;
    size_t peakLive = 0;
    std::vector<double> recordSeconds(streams.size(), 0.0);

    SweepClock::time_point runStart = SweepClock::now();
    // SPECFETCH-ALLOW(error-boundary): a failed recording aborts the sweep by design, so no run is left waiting on it; each run's boundary is the caller's RunFn (none for runSweep, runOneGuarded's for runSweepGuarded)
    parallelFor(tasks.size(), resolveWorkers(parallelism), [&](size_t t) {
        const SweepTask &task = tasks[t];
        SweepStream &stream = streams[task.stream];
        if (task.record) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                peakLive = std::max(peakLive, ++live);
            }
            SweepClock::time_point start = SweepClock::now();
            TraceSpan span("snapshot_record", "sweep",
                           specs[stream.consumers.front()].benchmark);
            Executor executor(stream.workload->cfg, stream.seed);
            // lint: allow(loop-alloc) one allocation per shared stream
            auto snapshot = std::make_unique<const TraceSnapshot>(
                TraceSnapshot::record(executor, stream.length));
            recordSeconds[task.stream] = secondsSince(start);
            {
                std::lock_guard<std::mutex> lock(mutex);
                stream.snapshot = std::move(snapshot);
                stream.published = true;
            }
            publishedCv.notify_all();
            return;
        }

        if (!stream.shared) {
            run(task.spec, *stream.workload, nullptr);
            return;
        }
        const TraceSnapshot *snapshot = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex);
            publishedCv.wait(lock, [&] { return stream.published; });
            snapshot = stream.snapshot.get();
        }
        run(task.spec, *stream.workload, snapshot);
        // Freed outside the lock, by the stream's last consumer.
        std::unique_ptr<const TraceSnapshot> last;
        std::lock_guard<std::mutex> lock(mutex);
        if (--stream.pending == 0) {
            last = std::move(stream.snapshot);
            --live;
        }
    });

    if (timing) {
        timing->runSeconds = secondsSince(runStart);
        timing->totalSeconds = secondsSince(sweepStart);
        for (double seconds : recordSeconds)
            timing->snapshotRecordSeconds += seconds;
        for (const SweepStream &stream : streams)
            timing->snapshotsRecorded += stream.shared;
        timing->peakLiveSnapshots = peakLive;
    }
    return workloads;
}

/**
 * Paranoid sweeps cross-validate the whole production path: every run
 * is repeated serially on the engine's scalar reference path over a
 * live executor (no encoder, cursor or batching) and must be
 * bit-identical. Quarantined runs (when @p completed is non-null) are
 * excluded — they have no result to validate.
 */
void
paranoidCrossValidate(const std::vector<RunSpec> &specs,
                      const std::vector<SimResults> &results,
                      const WorkloadMap &workloads,
                      const std::vector<uint8_t> *completed)
{
    bool paranoid =
        std::any_of(specs.begin(), specs.end(), [](const RunSpec &s) {
            return s.config.checkLevel == CheckLevel::Paranoid;
        });
    if (!paranoid)
        return;

    std::vector<SimResults> checkedResults;
    std::vector<SimResults> serial;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (completed && !(*completed)[i])
            continue;
        checkedResults.push_back(results[i]);
        const Workload &workload = *workloads.at(specs[i].benchmark);
        Executor executor(workload.cfg, specs[i].config.runSeed);
        FetchEngine engine(specs[i].config, workload.image);
        SimResults reference = engine.run(executor);
        reference.workload = workload.profile.name;
        serial.push_back(std::move(reference));
    }
    InvariantAuditor auditor(CheckLevel::Paranoid);
    auditSweepDeterminism(checkedResults, serial, auditor);
    if (!auditor.clean()) {
        auditor.emitReport(specs.front().config);
        panic("parallel sweep diverged from its serial re-run "
              "(%zu of %zu runs differ)",
              auditor.violations().size(), checkedResults.size());
    }
}

/** Span argument for one run; empty (no alloc) when tracing is off. */
std::string
runSpanDetail(const RunSpec &spec)
{
    if (!TraceEventSink::global().enabled())
        return {};
    return spec.benchmark + " " + toString(spec.config.policy);
}

/** Outcome of one guarded run. */
struct GuardedRun
{
    bool ok = false;
    SimResults results;
    std::string cause;
};

/**
 * Execute one spec behind the guard: exception boundary, optional
 * watchdog, snapshot-integrity check, retry with exponential backoff
 * degrading from the shared snapshot to a privately re-recorded
 * stream.
 */
GuardedRun
runOneGuarded(const Workload &workload, const RunSpec &spec,
              const TraceSnapshot *snapshot, const SweepGuard &guard,
              size_t index)
{
    GuardedRun out;
    unsigned attempts = std::max(1u, guard.maxAttempts);
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            ProgressReporter::global().runRetried();
            TraceSpan backoff("backoff", "fault", runSpanDetail(spec));
            sleepSeconds(
                backoffSeconds(attempt, guard.backoffBaseSeconds));
        }
        TraceSpan span(attempt == 1 ? "attempt" : "retry", "fault",
                       runSpanDetail(spec));
        try {
            const FaultInjector *injector = guard.injector;
            if (injector &&
                injector->fires(FaultKind::Throw, index, attempt)) {
                throw InjectedFault("injected fault: forced throw");
            }
            bool expireNow = injector &&
                injector->fires(FaultKind::Timeout, index, attempt);

            // Degraded retry: only the first attempt may replay the
            // shared snapshot; a rerun re-records a private stream in
            // case the snapshot itself is implicated.
            const TraceSnapshot *snap = attempt == 1 ? snapshot : nullptr;
            TraceSnapshot corrupted;
            if (snap && injector &&
                injector->fires(FaultKind::CorruptSnapshot, index,
                                attempt)) {
                corrupted = *snap;
                corrupted.corruptBitForTesting(index * 131 + 7);
                snap = &corrupted;
            }
            if (snap) {
                std::string why;
                if (!snap->verify(&why)) {
                    warn("sweep run %zu: %s; refusing replay, "
                         "re-recording a private stream",
                         index, why.c_str());
                    snap = nullptr;
                }
            }

            ScopedThrowOnError boundary;
            std::optional<Watchdog> watchdog;
            if (guard.runTimeoutSeconds > 0.0 || expireNow) {
                // Generous runaway tripwire: well past anything a
                // budget-respecting run can retire.
                watchdog.emplace(guard.runTimeoutSeconds,
                                 spec.config.streamInstructions() * 2 +
                                     1'000'000,
                                 expireNow);
            }
            out.results = snap ? runSimulation(workload, spec.config, *snap)
                               : runSimulation(workload, spec.config);
            out.ok = true;
            return out;
        } catch (const std::exception &e) {
            out.cause = e.what();
            warn("sweep run %zu attempt %u/%u failed: %s", index, attempt,
                 attempts, e.what());
        }
    }
    return out;
}

/**
 * Fail (fatal) before any work when a spec arms the classifier where
 * its taxonomy could not be returned (@p returned false) or on a run
 * it is not defined for.
 */
void
requireClassifierArms(const std::vector<RunSpec> &specs, bool returned,
                      const char *entry)
{
    for (const RunSpec &spec : specs) {
        if (!spec.classify)
            continue;
        if (!returned) {
            fatal("%s: a spec of %s arms the miss classifier, but the "
                  "sweep returns no observations",
                  entry, spec.benchmark.c_str());
        }
        requireClassifiable(spec.config);
    }
}

} // namespace

std::vector<SimResults>
runSweep(const std::vector<RunSpec> &specs, unsigned parallelism,
         SweepTiming *timing, std::vector<RunObservations> *observations)
{
    requireClassifierArms(specs, observations != nullptr, "runSweep");
    if (observations) {
        observations->clear();
        observations->resize(specs.size());
    }
    std::vector<SimResults> results(specs.size());

    WorkloadMap workloads = runStreamMajor(
        specs, parallelism, timing,
        [&](size_t index, const Workload &workload,
            const TraceSnapshot *snapshot) {
            const RunSpec &spec = specs[index];
            TraceSpan span("simulate", "run", runSpanDetail(spec));
            SweepClock::time_point start = SweepClock::now();
            // Each index is claimed by exactly one worker, so the
            // per-run slots (results, timing, observations) need no
            // synchronization.
            if (observations) {
                RunObservations &obs = (*observations)[index];
                results[index] = snapshot
                    ? runSimulation(workload, spec.config, *snapshot, obs,
                                    spec.classify)
                    : runSimulation(workload, spec.config, obs,
                                    spec.classify);
            } else {
                results[index] = snapshot
                    ? runSimulation(workload, spec.config, *snapshot)
                    : runSimulation(workload, spec.config);
            }
            if (timing)
                timing->perRunSeconds[index] = secondsSince(start);
            ProgressReporter::global().runCompleted();
        });

    paranoidCrossValidate(specs, results, workloads, nullptr);
    return results;
}

SweepOutcome
runSweepGuarded(const std::vector<RunSpec> &specs, const SweepGuard &guard,
                unsigned parallelism, SweepTiming *timing)
{
    requireClassifierArms(specs, false, "runSweepGuarded");
    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.completed.assign(specs.size(), 0);
    std::mutex failuresMutex;

    WorkloadMap workloads = runStreamMajor(
        specs, parallelism, timing,
        [&](size_t index, const Workload &workload,
            const TraceSnapshot *snapshot) {
            const RunSpec &spec = specs[index];
            SweepClock::time_point start = SweepClock::now();
            GuardedRun run =
                runOneGuarded(workload, spec, snapshot, guard, index);
            if (timing)
                timing->perRunSeconds[index] = secondsSince(start);

            if (run.ok) {
                outcome.results[index] = std::move(run.results);
                outcome.completed[index] = 1;
                if (guard.onRunComplete)
                    guard.onRunComplete(index, outcome.results[index]);
                ProgressReporter::global().runCompleted();
                return;
            }
            ProgressReporter::global().runQuarantined();

            SweepFailure failure;
            failure.index = index;
            failure.benchmark = spec.benchmark;
            failure.config = spec.config.describe();
            failure.cause = run.cause;
            failure.attempts = std::max(1u, guard.maxAttempts);
            std::lock_guard<std::mutex> lock(failuresMutex);
            outcome.failures.push_back(std::move(failure));
        });

    // Deterministic failure order regardless of worker interleaving.
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.index < b.index;
              });

    paranoidCrossValidate(specs, outcome.results, workloads,
                          &outcome.completed);
    return outcome;
}

uint64_t
benchBudget(uint64_t fallback)
{
    const char *env = std::getenv("SPECFETCH_BUDGET");
    if (!env)
        return fallback;
    uint64_t value;
    if (!parseCount(env, value) || value == 0)
        return fallback;
    return value;
}

} // namespace specfetch
