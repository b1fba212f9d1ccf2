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
 * The output is what `BENCH_*.json` trajectory tracking consumes: 130
 * records whose counters are bit-reproducible for a given budget and
 * seed, with only the `timing` member varying between machines.
 */

#include <cstdio>
#include <utility>

#include "adaptive/oracle.hh"
#include "bench_support.hh"
#include "core/miss_classifier.hh"
#include "fault/resilient_sweep.hh"
#include "fault/result_store.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

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
 * sweep's JSONL output is byte-identical to a clean one.
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
 * are comparable across suite invocations.
 */
void
runAdaptiveColumn(const std::vector<std::string> &names,
                  const SimConfig &grid)
{
    const std::vector<FetchPolicy> &policies = allPolicies();

    SimConfig base = grid;
    base.instructionBudget = kSuiteBudget;
    base.missPenaltyCycles = kAdaptivePenalty;

    // Sampled static runs: the oracle's raw material.
    std::vector<RunSpec> staticSpecs;
    staticSpecs.reserve(names.size() * policies.size());
    for (const std::string &name : names) {
        for (FetchPolicy policy : policies) {
            SimConfig config = base;
            config.policy = policy;
            config.sampleInterval = kAdaptiveInterval;
            staticSpecs.push_back(RunSpec{name, config});
        }
    }
    std::vector<RunObservations> staticObs;
    std::vector<SimResults> staticResults = runSweep(
        staticSpecs, benchMain().parallelism, nullptr, &staticObs);

    // The online selectors, from the same Resume starting policy.
    const SelectorKind kinds[] = {SelectorKind::Threshold,
                                  SelectorKind::Bandit};
    std::vector<RunSpec> adaptiveSpecs;
    adaptiveSpecs.reserve(names.size() * 2);
    for (const std::string &name : names) {
        for (SelectorKind kind : kinds) {
            SimConfig config = base;
            config.policy = FetchPolicy::Resume;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = kAdaptiveInterval;
            config.adaptiveEpsilon = kAdaptiveEpsilon;
            adaptiveSpecs.push_back(RunSpec{name, config});
        }
    }
    std::vector<RunObservations> adaptiveObs;
    std::vector<SimResults> adaptiveResults = runSweep(
        adaptiveSpecs, benchMain().parallelism, nullptr, &adaptiveObs);

    TextTable table;
    table.setColumns({"workload", "best static", "oracle", "thresh",
                      "gap%", "bandit", "gap%"});
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::vector<EpochRecord>> epochs;
        std::vector<double> staticIspi;
        for (size_t p = 0; p < policies.size(); ++p) {
            size_t i = b * policies.size() + p;
            epochs.push_back(std::move(staticObs[i].epochs));
            staticIspi.push_back(staticResults[i].ispi());
        }
        PerIntervalOracle oracle =
            buildPerIntervalOracle(policies, std::move(epochs),
                                   std::move(staticIspi),
                                   kAdaptiveInterval);

        double columnIspi[2] = {0.0, 0.0};
        double columnGap[2] = {0.0, 0.0};
        for (size_t k = 0; k < 2; ++k) {
            size_t i = b * 2 + k;
            AdaptiveRegret regret =
                computeRegret(adaptiveResults[i].ispi(), oracle);
            benchMain().json->write(
                makeAdaptiveRecord(adaptiveObs[i].adaptive,
                                   adaptiveResults[i],
                                   adaptiveSpecs[i].config, &regret));
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
                           kSuiteBudget)) {
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

    // One Table-4 classification per profile (policy-independent), so
    // every record of that profile can carry the taxonomy.
    std::vector<Classification> classifications;
    classifications.reserve(names.size());
    for (const std::string &name : names) {
        Workload w = buildWorkload(getProfile(name));
        classifications.push_back(classifyMisses(w, base));
    }

    // Profile-major, policy-minor, prefetch-innermost grid.
    std::vector<RunSpec> specs;
    specs.reserve(names.size() * allPolicies().size() * 2);
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                specs.push_back(RunSpec{name, config});
            }
        }
    }

    if (!benchMain().storeDir.empty()) {
        return runStored(specs, classifications,
                         allPolicies().size() * 2);
    }
    if (!benchMain().injector.empty()) {
        warn("fault injection is active but no --store was given; "
             "directives are ignored in the unguarded path");
    }

    benchMain().applyObsConfig(specs);
    benchMain().applyAdaptiveConfig(specs);
    benchMain().beginProgress(specs.size());
    SweepTiming timing;
    std::vector<RunObservations> observations;
    bool collect =
        benchMain().observing() || benchMain().adaptiveArmed();
    std::vector<SimResults> results =
        runSweep(specs, benchMain().parallelism, &timing,
                 collect ? &observations : nullptr);
    benchMain().endProgress();

    for (size_t i = 0; i < specs.size(); ++i) {
        RunTiming rt;
        rt.runSeconds = timing.perRunSeconds[i];
        rt.workloadBuildSeconds = timing.workloadBuildSeconds;
        rt.snapshotRecordSeconds = timing.snapshotRecordSeconds;
        rt.sweepTotalSeconds = timing.totalSeconds;
        size_t profileIndex = i / (allPolicies().size() * 2);
        benchMain().emit(makeRunRecord(results[i], specs[i].config, &rt,
                                       &classifications[profileIndex]));
    }
    benchMain().emitObservations(specs, results, observations);

    // Human-readable digest: suite-average ISPI per (policy, prefetch).
    TextTable table;
    table.setColumns({"policy", "ISPI", "ISPI+pref", "pref delta%"});
    size_t perProfile = allPolicies().size() * 2;
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

    runAdaptiveColumn(names, base);

    std::printf("\n%zu runs in %.2fs (workload build %.2fs, "
                "snapshot record %.2fs); %zu records -> %s\n",
                specs.size(), timing.totalSeconds,
                timing.workloadBuildSeconds,
                timing.snapshotRecordSeconds,
                benchMain().json->recordsWritten(),
                benchMain().json->path().c_str());
    return 0;
}
