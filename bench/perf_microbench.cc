/**
 * @file
 * Self-timed perf-regression harness for the simulator itself. It
 * times the stages the sweep pipeline is built from — workload
 * construction, the live executor, snapshot record, snapshot replay,
 * a streamed and a replayed full simulation, a 10-spec policy grid, and
 * the export of one run's epoch series and set heatmap — and reports
 * each as a throughput (work units per second, best of --repeats
 * wall-clock measurements).
 *
 * With --json it appends one schema-v1 "perf" record per stage:
 *
 *   {"schema_version":1,"record":"perf","stage":"sim_replay",
 *    "unit":"instructions","work":2000000,"seconds":0.05,
 *    "rate":4.0e7}
 *
 * preceded by one "perf_meta" record naming the benchmark, budget and
 * repeat count so a comparison (tools/perf_compare.py) can refuse to
 * diff runs measured under different settings. These guard the
 * "hundreds of millions of instructions per experiment" wall-clock
 * budget the table harnesses rely on; CI runs this as a warn-only
 * smoke check against bench/perf_baseline.json.
 *
 * Timing methodology (README "Performance methodology"): every stage
 * runs --repeats times and one statistic is kept — the minimum by
 * default (the least-contended observation; right for quick local A/B
 * runs) or the median with --stat median (robust against outliers in
 * both directions; what the gated CI comparison uses with >= 5
 * repeats). Stages run strictly sequentially, never overlapped.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_record.hh"
#include "report/json.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "trace/snapshot.hh"
#include "util/options.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

/** Seconds elapsed running @p fn once. */
template <typename Fn>
double
timeOnce(Fn &&fn)
{
    auto begin = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - begin).count();
}

/** Which statistic summarises the repeated timings of a stage. */
enum class Stat
{
    /** Minimum: the least-contended observation; the stable statistic
     *  for quick local A/B runs. */
    Best,
    /** Median: robust to the occasional fast outlier as well as the
     *  slow ones; what the gated CI comparison uses, with enough
     *  repeats to make it meaningful (>= 5). */
    Median,
};

/** The chosen statistic over @p repeats timed runs of @p fn. */
template <typename Fn>
double
measure(unsigned repeats, Stat stat, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(repeats);
    for (unsigned i = 0; i < repeats; ++i)
        samples.push_back(timeOnce(fn));
    std::sort(samples.begin(), samples.end());
    if (stat == Stat::Best)
        return samples.front();
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/** One measured stage, ready to print and export. */
struct StageResult
{
    std::string stage;
    std::string unit;
    /** Work units done per timed run; whole except for the export
     *  stage, which counts MB. */
    double work = 0.0;
    double seconds = 0.0;

    double rate() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

JsonValue
toRecord(const StageResult &r)
{
    JsonValue rec = JsonValue::object();
    rec.set("schema_version", JsonValue::integer(kReportSchemaVersion));
    rec.set("record", JsonValue::string("perf"));
    rec.set("stage", JsonValue::string(r.stage));
    rec.set("unit", JsonValue::string(r.unit));
    // Whole counts stay integers, so the records of the counting
    // stages keep their historical shape.
    rec.set("work", r.work == std::floor(r.work)
                        ? JsonValue::integer(static_cast<uint64_t>(r.work))
                        : JsonValue::number(r.work));
    rec.set("seconds", JsonValue::number(r.seconds));
    rec.set("rate", JsonValue::number(r.rate()));
    return rec;
}

/** Defeat dead-code elimination without a compiler intrinsic. */
volatile uint64_t gSink = 0;

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("perf_microbench",
                      "Time the simulator's pipeline stages and emit "
                      "schema-v1 perf records for regression tracking");
    opts.addCount("budget", benchBudget(2'000'000),
                  "instructions per stage (default honours "
                  "SPECFETCH_BUDGET)");
    opts.addCount("repeats", 3, "timed repetitions per stage");
    opts.addString("stat", "best",
                   "statistic over the repeats: 'best' (minimum; local "
                   "A/B runs) or 'median' (the gated CI comparison)");
    opts.addString("benchmark", "gcc", "workload profile to measure");
    opts.addString("json", "", "append schema-v1 perf records to this path");
    opts.addCount("sample-interval", 0,
                  "arm the interval sampler on the simulation stages "
                  "(0 = off; measures its overhead, see "
                  "tools/perf_compare.py --overhead)");
    if (!opts.parse(argc, argv))
        return 1;

    const uint64_t budget = opts.getCount("budget");
    const unsigned repeats = static_cast<unsigned>(
        std::max<uint64_t>(1, opts.getCount("repeats")));
    const std::string benchmark = opts.getString("benchmark");
    const uint64_t sampleInterval = opts.getCount("sample-interval");
    const std::string statName = opts.getString("stat");
    if (statName != "best" && statName != "median") {
        std::fprintf(stderr, "error: --stat must be 'best' or 'median', "
                     "not '%s'\n", statName.c_str());
        return 1;
    }
    const Stat stat = statName == "median" ? Stat::Median : Stat::Best;

    // Open the sink before spending minutes measuring.
    std::unique_ptr<JsonlWriter> writer;
    if (!opts.getString("json").empty()) {
        writer = std::make_unique<JsonlWriter>(opts.getString("json"));
        if (!writer->ok()) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.getString("json").c_str());
            return 1;
        }
    }

    const Workload &workload = *sharedWorkload(benchmark);
    SimConfig base;
    base.instructionBudget = budget;
    // Arms the sampler on sim_live/sim_replay/grid only; the epochs
    // are collected and dropped — this harness measures cost, not
    // content.
    base.sampleInterval = sampleInterval;

    std::vector<StageResult> results;
    const double instructions = static_cast<double>(budget);

    // Stage: build the workload CFG from its profile (what sweeps pay
    // once per benchmark thanks to sharedWorkload()).
    {
        StageResult r{"workload_build", "builds", 1.0, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Workload w = buildWorkload(getProfile(benchmark));
            gSink = gSink + w.image.size();
        });
        results.push_back(r);
    }

    // Stage: the live architectural executor alone (the correct-path
    // generator every recorded stream steps once per instruction).
    {
        StageResult r{"executor_step", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Executor executor(workload.cfg, base.runSeed);
            DynInst inst;
            uint64_t sum = 0;
            for (uint64_t i = 0; i < budget; ++i) {
                executor.next(inst);
                sum += inst.pc;
            }
            gSink = gSink + sum;
        });
        results.push_back(r);
    }

    // Stage: recording a correct-path snapshot from the executor.
    {
        StageResult r{"snapshot_record", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Executor executor(workload.cfg, base.runSeed);
            TraceSnapshot snap = TraceSnapshot::record(executor, budget);
            gSink = gSink + snap.byteSize();
        });
        results.push_back(r);
    }

    // Stage: replaying that snapshot through the replay cursor alone
    // (upper bound on how fast any replayed simulation can consume
    // its stream).
    Executor recorder(workload.cfg, base.runSeed);
    const TraceSnapshot snapshot = TraceSnapshot::record(recorder, budget);
    {
        StageResult r{"snapshot_replay", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SnapshotReplaySource source(snapshot);
            DynInst inst;
            uint64_t sum = 0;
            while (source.next(inst))
                sum += inst.pc;
            gSink = gSink + sum;
        });
        results.push_back(r);
    }

    // Stage: one full simulation that records its own stream from the
    // executor in 64 KiB chunks as it replays (the path of every run
    // without a shared snapshot). The stage keeps its historical name
    // so baselines stay comparable.
    {
        StageResult r{"sim_live", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, base);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: the same simulation fed by the recorded snapshot (the
    // sweep fast path; results are bit-identical to sim_live).
    {
        StageResult r{"sim_replay", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, base, snapshot);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: sim_live with the adaptive decision point armed via a
    // StaticSelector — the selector always re-picks the base policy,
    // so the wall-clock delta against sim_live is pure epoch-ticker
    // and choice-log bookkeeping, not policy-behavior differences
    // (tools/perf_compare.py --adaptive-overhead bounds it).
    {
        SimConfig adaptive = base;
        adaptive.adaptiveSelector = SelectorKind::Static;
        adaptive.adaptiveInterval = 50'000;
        StageResult r{"sim_adaptive", "instructions", instructions, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, adaptive);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: a serial 10-spec grid (5 policies x prefetch off/on) on
    // one benchmark — the record-once/replay-many sweep path end to
    // end, including the snapshot-record stage it amortizes.
    {
        std::vector<RunSpec> specs;
        for (int p = 0; p < 5; ++p) {
            for (int pf = 0; pf < 2; ++pf) {
                SimConfig config = base;
                config.policy = static_cast<FetchPolicy>(p);
                config.nextLinePrefetch = pf != 0;
                specs.push_back(RunSpec{benchmark, config});
            }
        }
        StageResult r{"grid", "instructions",
                      static_cast<double>(budget * specs.size()), 0.0};
        r.seconds = measure(repeats, stat, [&] {
            std::vector<SimResults> res = runSweep(specs, 1);
            gSink = gSink + res.back().finalSlot;
        });
        results.push_back(r);
    }

    // Stage: the export layer — one run's timeseries (1K-instruction
    // epochs) and set-heatmap records built and written through a
    // JsonlWriter, the work an epoch-level export repeats per run.
    // Reported in MB of JSONL per second.
    {
        SimConfig observed = base;
        observed.sampleInterval = 1'000;
        observed.setHeatmap = true;
        RunObservations observations;
        const SimResults res =
            runSimulation(workload, observed, snapshot, observations);
        char pathTemplate[] = "/tmp/specfetch-perf-export-XXXXXX";
        const int fd = ::mkstemp(pathTemplate);
        if (fd < 0) {
            std::fprintf(stderr, "error: mkstemp failed\n");
            return 1;
        }
        ::close(fd);
        const std::string exportPath = pathTemplate;
        StageResult r{"export", "MB", 0.0, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            JsonlWriter out(exportPath);
            out.write(makeTimeseriesRecord(observations, res, observed));
            out.write(
                makeHeatmapRecord(*observations.heatmap, res, observed));
        });
        std::error_code error;
        r.work = static_cast<double>(
                     std::filesystem::file_size(exportPath, error)) /
                 1e6;
        std::remove(exportPath.c_str());
        if (error) {
            std::fprintf(stderr, "error: cannot size %s\n",
                         exportPath.c_str());
            return 1;
        }
        results.push_back(r);
    }

    std::printf("perf_microbench: %s, budget %llu, %s of %u\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(budget),
                statName.c_str(), repeats);
    std::printf("%-16s %14s %12s %16s\n", "stage", "work", "seconds",
                "rate/s");
    for (const StageResult &r : results) {
        std::printf("%-16s %14.10g %12.6f %16.1f\n", r.stage.c_str(),
                    r.work, r.seconds, r.rate());
    }

    if (writer) {
        JsonValue meta = JsonValue::object();
        meta.set("schema_version", JsonValue::integer(kReportSchemaVersion));
        meta.set("record", JsonValue::string("perf_meta"));
        meta.set("benchmark", JsonValue::string(benchmark));
        meta.set("budget", JsonValue::integer(budget));
        meta.set("repeats", JsonValue::integer(repeats));
        meta.set("stat", JsonValue::string(statName));
        // Kept conditional so baselines measured without the sampler
        // keep their historical shape.
        if (sampleInterval > 0)
            meta.set("sample_interval", JsonValue::integer(sampleInterval));
        writer->write(meta);
        for (const StageResult &r : results)
            writer->write(toRecord(r));
        std::printf("%zu perf records -> %s\n", results.size() + 1,
                    writer->path().c_str());
    }
    return 0;
}
