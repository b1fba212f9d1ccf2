/**
 * @file
 * The cross-PR trajectory runner: executes the full paper grid — all
 * 13 workload profiles × 5 fetch policies × {prefetch off, next-line
 * prefetch} — at a small fixed budget and exports one schema-v1 JSONL
 * record per run, each carrying the configuration manifest, every raw
 * counter, the ISPI decomposition, the workload's Table-4 miss
 * classification, and per-run wall-clock timing.
 *
 *   ./build/bench/bench_suite --json out.json
 *   ./build/bench/bench_suite                 # writes BENCH_results.json
 *
 * The grid, the Table-4 classification and the adaptive column run as
 * one runSweep, so each (benchmark, runSeed) stream is recorded once:
 * the grid's own Optimistic/no-prefetch runs carry the taxonomy.
 *
 * The output is what `BENCH_*.json` trajectory tracking consumes: 130
 * run records plus 26 adaptive records whose counters are
 * bit-reproducible for a given budget and seed, with only the
 * `timing` member varying between machines.
 */

#include <cstdio>
#include <span>
#include <utility>

#include "adaptive/oracle.hh"
#include "bench_support.hh"
#include "fault/resilient_sweep.hh"
#include "fault/result_store.hh"
#include "util/logging.hh"

using namespace specfetch;
using namespace specfetch::bench;

namespace {

/** Small default so the full grid stays CI-friendly. */
constexpr uint64_t kSuiteBudget = 500'000;

/**
 * Fault-tolerant mode (--store DIR): the grid runs through
 * runResilientSweep against the result store at DIR — runs already
 * stored are served, every executed run is stored (fsync'd) as it
 * completes, failing runs are quarantined, and a killed sweep resumes
 * by simply running again. Records deliberately omit the timing
 * member (the lone nondeterministic part), so an interrupted + rerun
 * sweep's JSONL output is byte-identical to a clean one. The records'
 * Table-4 taxonomy comes from a classification pre-pass, one armed
 * runSweep over the profiles.
 */
int
runStored(const std::vector<RunSpec> &specs,
          const std::vector<Classification> &classifications,
          size_t perProfile)
{
    const std::string &dir = benchMain().storeDir;
    ResultStore store;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    if (!benchMain().injector.empty())
        storeOptions.injector = &benchMain().injector;
    std::string error;
    if (!store.open(storeOptions, &error)) {
        std::fprintf(stderr, "bench_suite: --store: %s\n", error.c_str());
        return 1;
    }

    ResilientSweepOptions options(store);
    options.maxAttempts = benchMain().retries;
    options.runTimeoutSeconds = benchMain().runTimeoutSeconds;
    options.parallelism = benchMain().parallelism;
    options.injector = storeOptions.injector;
    options.makeRecord = [&](size_t index, const SimResults &results) {
        return makeRunRecord(results, specs[index].config, nullptr,
                             &classifications[index / perProfile]);
    };
    std::string rerun = "bench_suite --store=" + dir +
        " --budget=" + std::to_string(benchMain().budget);
    options.rerunCommand = [rerun](size_t) { return rerun; };

    benchMain().beginProgress(specs.size());
    ResilientSweepResult sweep = runResilientSweep(specs, options);
    benchMain().endProgress();
    if (!store.close(&error))
        warn("result store %s: %s", dir.c_str(), error.c_str());

    for (size_t i = 0; i < specs.size(); ++i) {
        if (sweep.completed[i])
            benchMain().emit(sweep.records[i]);
    }

    // Trailing manifest record: what ran and what was quarantined.
    // Deliberately free of timing and served-run counts so a clean
    // and a resumed sweep write identical bytes.
    JsonValue manifest = JsonValue::object();
    manifest.set("schema_version", JsonValue::integer(kReportSchemaVersion));
    manifest.set("record", JsonValue::string("sweep_manifest"));
    manifest.set("runs", JsonValue::integer(specs.size()));
    manifest.set("completed",
                 JsonValue::integer(specs.size() - sweep.failures.size()));
    JsonValue failures = JsonValue::array();
    for (const SweepFailure &failure : sweep.failures) {
        JsonValue entry = JsonValue::object();
        entry.set("index", JsonValue::integer(failure.index));
        entry.set("benchmark", JsonValue::string(failure.benchmark));
        entry.set("config", JsonValue::string(failure.config));
        entry.set("cause", JsonValue::string(failure.cause));
        entry.set("attempts", JsonValue::integer(failure.attempts));
        entry.set("rerun", JsonValue::string(failure.rerunCommand));
        failures.push(entry);
    }
    manifest.set("failures", failures);
    benchMain().emit(manifest);

    std::printf("\n%zu runs (%zu served from %s, %zu executed), "
                "%zu quarantined; %zu records -> %s\n",
                specs.size(), sweep.servedRuns, dir.c_str(),
                sweep.executedRuns, sweep.failures.size(),
                benchMain().json->recordsWritten(),
                benchMain().json->path().c_str());
    for (const SweepFailure &failure : sweep.failures) {
        std::printf("  quarantined run %zu (%s): %s after %u attempts\n"
                    "    rerun: %s\n",
                    failure.index, failure.benchmark.c_str(),
                    failure.cause.c_str(), failure.attempts,
                    failure.rerunCommand.c_str());
    }
    // Quarantine is the success path of fault tolerance: the sweep
    // finished and said exactly what it could not do.
    return 0;
}

/** Epoch length of the suite's adaptive column (20'000 retired
 *  instructions = 25 decision points at the column's 500K budget). */
constexpr uint64_t kAdaptiveInterval = 20'000;

/** Miss penalty of the adaptive column. The column runs a slightly
 *  faster memory than the paper-default 5-cycle grid: at 8 cycles the
 *  wrong-path traffic question is contested — the static policies
 *  finish close enough together that per-epoch selection is worth
 *  measuring — without the penalty dominating every other effect. */
constexpr unsigned kAdaptivePenalty = 8;

/** Exploration rate of the column's bandit runs. */
constexpr double kAdaptiveEpsilon = 0.05;

/** The column's online selectors, in table order. */
constexpr SelectorKind kSelectors[] = {SelectorKind::Threshold,
                                       SelectorKind::Bandit};

/**
 * The adaptive column of the grid (DESIGN.md §12): per profile, the
 * per-interval Oracle bound assembled from sampled static runs, plus
 * one Threshold and one Bandit adaptive run from the Resume base
 * policy. Each adaptive run is exported as a schema-v1 `adaptive`
 * record carrying its choice log and regret block; the stdout digest
 * reports the share of the (best static -> oracle) gap each selector
 * closed. On workloads where one policy wins every epoch the gap is
 * zero and 100% means the selector met the oracle bound exactly.
 *
 * The whole column (static reference runs included, so the bound and
 * the selectors see the same machine) runs at its own operating
 * point: kAdaptivePenalty, kAdaptiveInterval and a fixed 500K budget,
 * independent of the grid's --budget knob so the exported regret rows
 * are comparable across suite invocations. Its specs join the suite's
 * one sweep: appendAdaptiveColumn adds them to the plan, and
 * reportAdaptiveColumn reads their results back.
 */
void
appendAdaptiveColumn(std::vector<RunSpec> &plan,
                     const std::vector<std::string> &names,
                     const SimConfig &grid)
{
    SimConfig base = grid;
    base.instructionBudget = kSuiteBudget;
    base.missPenaltyCycles = kAdaptivePenalty;

    // Sampled static runs: the oracle's raw material.
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            SimConfig config = base;
            config.policy = policy;
            config.sampleInterval = kAdaptiveInterval;
            plan.push_back(RunSpec{name, config});
        }
    }
    // The online selectors, from the same Resume starting policy.
    for (const std::string &name : names) {
        for (SelectorKind kind : kSelectors) {
            SimConfig config = base;
            config.policy = FetchPolicy::Resume;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = kAdaptiveInterval;
            config.adaptiveEpsilon = kAdaptiveEpsilon;
            plan.push_back(RunSpec{name, config});
        }
    }
}

/** Export and tabulate the column whose specs start at plan[@p begin]. */
void
reportAdaptiveColumn(const std::vector<std::string> &names,
                     const std::vector<RunSpec> &plan,
                     const std::vector<SimResults> &results,
                     std::vector<RunObservations> &observations,
                     size_t begin)
{
    const std::vector<FetchPolicy> &policies = allPolicies();
    const size_t selectorBegin = begin + names.size() * policies.size();
    const size_t kinds = std::size(kSelectors);

    TextTable table;
    table.setColumns({"workload", "best static", "oracle", "thresh",
                      "gap%", "bandit", "gap%"});
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::vector<EpochRecord>> epochs;
        std::vector<double> staticIspi;
        for (size_t p = 0; p < policies.size(); ++p) {
            size_t i = begin + b * policies.size() + p;
            epochs.push_back(std::move(observations[i].epochs));
            staticIspi.push_back(results[i].ispi());
        }
        PerIntervalOracle oracle =
            buildPerIntervalOracle(policies, std::move(epochs),
                                   std::move(staticIspi),
                                   kAdaptiveInterval);

        double columnIspi[2] = {0.0, 0.0};
        double columnGap[2] = {0.0, 0.0};
        for (size_t k = 0; k < kinds; ++k) {
            size_t i = selectorBegin + b * kinds + k;
            AdaptiveRegret regret = computeRegret(results[i].ispi(), oracle);
            benchMain().json->write(
                makeAdaptiveRecord(observations[i].adaptive, results[i],
                                   plan[i].config, &regret));
            columnIspi[k] = regret.adaptiveIspi;
            columnGap[k] = 100.0 * regret.gapClosed;
        }
        table.addRow({names[b],
                      formatFixed(oracle.bestStaticIspi(), 3) + " (" +
                          shortName(oracle.bestStaticPolicy()) + ")",
                      formatFixed(oracle.oracleIspi, 3),
                      formatFixed(columnIspi[0], 3),
                      formatFixed(columnGap[0], 1),
                      formatFixed(columnIspi[1], 3),
                      formatFixed(columnGap[1], 1)});
    }
    std::printf("\nadaptive column (epoch %llu, penalty %u, base resume; "
                "gap%% = share of the best-static -> oracle gap closed):\n",
                static_cast<unsigned long long>(kAdaptiveInterval),
                kAdaptivePenalty);
    emitTable(table);
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchMain().parse(argc, argv, "bench_suite",
                           "full policy/prefetch grid with JSONL export",
                           kSuiteBudget, /*durable=*/true)) {
        return parseExitCode();
    }
    if (!benchMain().json && !benchMain().openJson("BENCH_results.json"))
        return 1;

    SimConfig base;
    base.instructionBudget = benchMain().budget;
    base.checkLevel = benchMain().checkLevel;
    base.checkpointInterval = benchMain().checkpointInterval;
    banner("Bench suite",
           "13 profiles x 5 policies x {no prefetch, next-line}", base);

    const auto &names = benchmarkNames();

    // Profile-major, policy-minor, prefetch-innermost grid.
    std::vector<RunSpec> plan;
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                plan.push_back(RunSpec{name, config});
            }
        }
    }
    const size_t gridSize = plan.size();
    const size_t perProfile = allPolicies().size() * 2;

    if (!benchMain().storeDir.empty())
        return runStored(plan, classifyProfiles(names, base), perProfile);
    if (!benchMain().injector.empty()) {
        warn("fault injection is active but no --store was given; "
             "directives are ignored in the unguarded path");
    }

    // The one plan: the grid, then the adaptive column, in a single
    // runSweep. The grid's Optimistic/no-prefetch runs carry the
    // Table-4 taxonomy; --adaptive makes them adaptive, so then plain
    // classification runs of the same streams join the plan instead.
    benchMain().applyObsConfig(plan);
    benchMain().applyAdaptiveConfig(plan);
    if (benchMain().adaptiveArmed()) {
        for (const std::string &name : names)
            plan.push_back(classificationSpec(name, base));
    } else {
        for (RunSpec &spec : plan) {
            spec.classify = spec.config.policy == FetchPolicy::Optimistic &&
                !spec.config.nextLinePrefetch;
        }
    }
    const size_t columnBegin = plan.size();
    appendAdaptiveColumn(plan, names, base);

    benchMain().beginProgress(plan.size());
    SweepTiming timing;
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(plan, benchMain().parallelism, &timing, &observations);
    benchMain().endProgress();

    // One taxonomy per profile, in profile order.
    std::vector<Classification> classifications;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].classify)
            classifications.push_back(*observations[i].classification);
    }

    for (size_t i = 0; i < gridSize; ++i) {
        RunTiming rt;
        rt.runSeconds = timing.perRunSeconds[i];
        rt.workloadBuildSeconds = timing.workloadBuildSeconds;
        rt.snapshotRecordSeconds = timing.snapshotRecordSeconds;
        rt.sweepTotalSeconds = timing.totalSeconds;
        benchMain().emit(makeRunRecord(results[i], plan[i].config, &rt,
                                       &classifications[i / perProfile]));
    }
    benchMain().emitObservations(std::span(plan).first(gridSize),
                                 results, observations);

    // Human-readable digest: suite-average ISPI per (policy, prefetch).
    TextTable table;
    table.setColumns({"policy", "ISPI", "ISPI+pref", "pref delta%"});
    for (size_t p = 0; p < allPolicies().size(); ++p) {
        double off = 0.0, on = 0.0;
        for (size_t b = 0; b < names.size(); ++b) {
            off += results[b * perProfile + p * 2].ispi();
            on += results[b * perProfile + p * 2 + 1].ispi();
        }
        off /= static_cast<double>(names.size());
        on /= static_cast<double>(names.size());
        table.addRow({toString(allPolicies()[p]), formatFixed(off, 3),
                      formatFixed(on, 3),
                      formatFixed(off == 0.0
                                      ? 0.0
                                      : 100.0 * (on - off) / off,
                                  1)});
    }
    emitTable(table);

    reportAdaptiveColumn(names, plan, results, observations, columnBegin);

    std::printf("\n%zu runs in one sweep, %zu streams recorded, in %.2fs "
                "(workload build %.2fs, snapshot record %.2fs); "
                "%zu records -> %s\n",
                plan.size(), timing.snapshotsRecorded, timing.totalSeconds,
                timing.workloadBuildSeconds, timing.snapshotRecordSeconds,
                benchMain().json->recordsWritten(),
                benchMain().json->path().c_str());
    return 0;
}
