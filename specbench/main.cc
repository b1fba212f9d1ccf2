/**
 * @file
 * specbench: the end-to-end and per-layer benchmark of specfetch.
 *
 *   specbench --workload paper_suite --seed 42 --seconds 20 --trace 0
 *
 * Runs iterations of one workload for about --seconds seconds, checks
 * every run's output, and prints every metric by name with its unit.
 * The last stdout line is one JSON object: correct, attempted,
 * failed and metrics (end-to-end metrics with --trace 0, per-layer
 * metrics with --trace 1). See NOTES.md and BENCHMARK.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "arithmetic.hh"
#include "check.hh"
#include "obs/trace_event.hh"
#include "paper_data.hh"
#include "report/json.hh"
#include "selftest.hh"
#include "spans.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"
#include "workloads.hh"

using namespace specfetch;
using namespace specbench;

namespace {

using Clock = std::chrono::steady_clock;

/** The default seed; expected_digests.json holds its digests. */
constexpr uint64_t kDefaultSeed = 42;
/** Repetitions of the set-up stage; its median is setup_s. */
/**
 * Set-up builds before the first iteration and after each one;
 * setup_s is the median of them all. Single-thread speed on a shared
 * host switches between modes within a second, so the builds are
 * spread over the whole run instead of bunched at its start.
 */
constexpr int kSetupRepetitions = 3;
/** Fewest iterations a run reports a median over, per mode. */
constexpr size_t kMinIterations = 3;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/specbench/out";
    std::string digests = "specbench/expected_digests.json";
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
    bool selfTest = false;
    bool printDigests = false;
};

bool
badValue(const std::string &flag, const std::string &value)
{
    std::fprintf(stderr, "specbench: bad value for %s: '%s'\n", flag.c_str(),
                 value.c_str());
    return false;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--self-test") {
            args.selfTest = true;
            continue;
        }
        if (flag == "--print-digests") {
            args.printDigests = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "specbench: %s needs a value\n", flag.c_str());
            return false;
        }
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end != '\0')
                return badValue(flag, value);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
                return badValue(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return badValue(flag, value);
            args.trace = value == "1";
        } else if (flag == "--out-dir") {
            args.outDir = value;
        } else if (flag == "--digests") {
            args.digests = value;
        } else if (flag == "--git-sha") {
            args.gitSha = value;
        } else if (flag == "--source-digest") {
            args.sourceDigest = value;
        } else {
            std::fprintf(stderr, "specbench: unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    return true;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                        &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model = brand;
        size_t first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

JsonValue
provenance(const Args &args, unsigned threads)
{
    JsonValue p = JsonValue::object();
    p.set("cpu_model", JsonValue::string(cpuModel()))
        .set("nproc", JsonValue::integer(std::thread::hardware_concurrency()))
        .set("compiler", JsonValue::string(compilerName()))
        .set("build_type", JsonValue::string(SPECBENCH_BUILD_TYPE))
        .set("git_sha", JsonValue::string(args.gitSha))
        .set("source_digest", JsonValue::string(args.sourceDigest))
        .set("threads", JsonValue::integer(threads))
        .set("seed", JsonValue::integer(args.seed))
        .set("workload", JsonValue::string(args.workload))
        .set("trace", JsonValue::boolean(args.trace))
        .set("run_seconds", JsonValue::number(args.seconds));
    return p;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Deterministic work counts of one iteration. */
struct Counts
{
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint64_t demandAccesses = 0;
    uint64_t wrongAccesses = 0;
    uint64_t demandMisses = 0;
    uint64_t wrongFills = 0;
    uint64_t busTransactions = 0;
    uint64_t bufferHits = 0;
    uint64_t prefetches = 0;
    uint64_t mispredicts = 0;
    uint64_t misfetches = 0;
    uint64_t specPrefetch = 0;
    uint64_t classifiedWrongPath = 0;
    uint64_t epochs = 0;
    uint64_t decisions = 0;
    double table5ErrorSum = 0.0;
    uint64_t table5Cells = 0;

    void
    add(const SimResults &r)
    {
        ++runs;
        instructions += r.instructions;
        demandAccesses += r.demandAccesses;
        wrongAccesses += r.wrongAccesses;
        demandMisses += r.demandMisses;
        wrongFills += r.wrongFills;
        busTransactions += r.memoryTransactions();
        bufferHits += r.bufferHits;
        prefetches += r.prefetchesIssued;
        mispredicts += r.dirMispredicts + r.targetMispredicts;
        misfetches += r.misfetches;
    }
};

/** Index of @p value in @p list (list.size() when absent). */
template <typename T>
size_t
indexOf(const std::vector<T> &list, const T &value)
{
    return static_cast<size_t>(std::find(list.begin(), list.end(), value) -
                               list.begin());
}

/**
 * Fold a paper-baseline run (8K direct-mapped, 5-cycle penalty, depth
 * 4, no prefetch, static policy) into the Table 5 error.
 */
void
addTable5(Counts &counts, const SimResults &r, const SimConfig &c)
{
    SimConfig paper;
    if (c.effectivePrefetchKind() != PrefetchKind::None ||
        c.adaptiveSelector != SelectorKind::Off ||
        c.missPenaltyCycles != paper.missPenaltyCycles ||
        c.maxUnresolved != paper.maxUnresolved ||
        c.icache.sizeBytes != paper.icache.sizeBytes ||
        c.icache.ways != paper.icache.ways)
        return;
    size_t b = indexOf(benchmarkNames(), r.workload);
    size_t p = indexOf(allPolicies(), r.policy);
    if (b >= paper::kNumBenchmarks || p >= 5)
        return;
    counts.table5ErrorSum += std::abs(r.ispi() - paper::kTable5[b].depth4[p]);
    ++counts.table5Cells;
}

/** Check every run of an iteration and fold it into the counts. */
void
account(const Iteration &it, OutputCheck &check, Digest &digest,
        Counts &counts)
{
    for (const Batch &batch : it.batches) {
        bool observed = !batch.observations.empty();
        for (size_t i = 0; i < batch.results.size(); ++i) {
            const SimResults &r = batch.results[i];
            const SimConfig &config = batch.specs[i].config;
            const RunObservations *obs =
                observed ? &batch.observations[i] : nullptr;
            check.run(r, config, obs);
            digest.add(r);
            counts.add(r);
            addTable5(counts, r, config);
            if (obs) {
                digest.add(*obs);
                counts.epochs += obs->epochs.size();
                counts.decisions += obs->adaptive.choices.size();
            }
        }
    }
    for (const Classified &c : it.classified) {
        check.classification(c.classification, c.timed, c.config);
        digest.add(c.classification);
        digest.add(c.timed);
        counts.add(c.timed);
        counts.specPrefetch += c.classification.specPrefetch;
        counts.classifiedWrongPath += c.classification.wrongPath;
    }
}

/** Expected digests of one seed; empty members when absent. */
struct Expected
{
    uint64_t seed = 0;
    std::string counters;
    std::string exportBytes;
};

/** Parse a whole JSON file; false when unreadable or malformed. */
bool
readJson(const std::string &path, JsonValue &doc)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return in && JsonValue::parse(text.str(), doc);
}

bool
loadExpected(const std::string &path, const std::string &workload,
             Expected &out)
{
    JsonValue doc;
    if (!readJson(path, doc) || !doc.isObject())
        return false;
    const JsonValue *seed = doc.find("seed");
    if (!seed || !seed->isUint())
        return false;
    out.seed = seed->asUint();
    const JsonValue *entry = doc.find(workload);
    if (!entry || !entry->isObject())
        return true;
    if (const JsonValue *v = entry->find("counters"); v && v->isString())
        out.counters = v->asString();
    if (const JsonValue *v = entry->find("export_bytes"); v && v->isString())
        out.exportBytes = v->asString();
    return true;
}

/** Count engine spans of one name in a Chrome trace the sink wrote. */
uint64_t
countEngineSpans(const std::string &path, const std::string &name)
{
    JsonValue doc;
    if (!readJson(path, doc))
        return 0;
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return 0;
    uint64_t count = 0;
    for (const JsonValue &event : events->elements()) {
        const JsonValue *n = event.find("name");
        if (n && n->isString() && n->asString() == name)
            ++count;
    }
    return count;
}

/** One measured iteration. */
struct Sample
{
    bool traced = false;
    double wall = 0.0;
    double cpu = 0.0;
    LayerTimes layers;
    Counts counts;
    std::map<std::string, double> selfByLayer;
    uint64_t snapshots = 0;
};

/** Host speed of the stream producers, stepped from outside. */
struct StreamRates
{
    double executorMinstPerSecond = 0.0;
    double replayMinstPerSecond = 0.0;
};

StreamRates
measureStreams(Tracer &tracer, uint64_t seed)
{
    double executorSeconds = 0.0, replaySeconds = 0.0;
    uint64_t executed = 0, replayed = 0;
    uint64_t fold = 0;
    for (const std::string &name : benchmarkNames()) {
        std::shared_ptr<const Workload> w = sharedWorkload(name);
        DynInst inst;
        {
            Scope span(&tracer, "Executor::next", "workload");
            Executor executor(w->cfg, seed);
            Clock::time_point start = Clock::now();
            for (uint64_t i = 0; i < kRunBudget; ++i) {
                executor.next(inst);
                fold += inst.pc;
            }
            executorSeconds += since(start);
            executed += kRunBudget;
        }
        Executor recorder(w->cfg, seed);
        TraceSnapshot snapshot = TraceSnapshot::record(recorder, kRunBudget);
        {
            Scope span(&tracer, "SnapshotReplaySource::next", "trace");
            SnapshotReplaySource source(snapshot);
            Clock::time_point start = Clock::now();
            while (source.next(inst)) {
                fold += inst.pc;
                ++replayed;
            }
            replaySeconds += since(start);
        }
    }
    // Keeps the drained streams observable so no loop is elided.
    if (fold == 0)
        std::fprintf(stderr, "specbench: empty streams\n");
    StreamRates rates;
    rates.executorMinstPerSecond =
        static_cast<double>(executed) / executorSeconds / 1e6;
    rates.replayMinstPerSecond =
        static_cast<double>(replayed) / replaySeconds / 1e6;
    return rates;
}

/** Build the 13 workloads kSetupRepetitions times, timing each pass. */
void
measureSetup(std::vector<double> &times, Tracer *tracer)
{
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        Scope span(tracer, "buildWorkload", "workload");
        Clock::time_point start = Clock::now();
        for (const std::string &name : benchmarkNames()) {
            Workload w = buildWorkload(getProfile(name));
            if (w.image.size() == 0)
                std::fprintf(stderr, "specbench: empty workload %s\n",
                             name.c_str());
        }
        times.push_back(since(start));
    }
}

/** Ordered (name, value, unit) rows of the report. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

template <typename F>
std::vector<double>
collect(const std::vector<Sample> &samples, bool traced, F field)
{
    std::vector<double> out;
    for (const Sample &s : samples)
        if (s.traced == traced)
            out.push_back(field(s));
    return out;
}

/** Median self time of @p layer over the traced iterations. */
double
medianSelfTime(const std::vector<Sample> &samples, const std::string &layer)
{
    return median(collect(samples, true, [&layer](const Sample &s) {
        auto it = s.selfByLayer.find(layer);
        return it == s.selfByLayer.end() ? 0.0 : it->second;
    }));
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::vector<Metric>
endToEnd(const std::vector<Sample> &samples,
         const std::vector<double> &setupTimes)
{
    std::vector<double> walls =
        collect(samples, false, [](const Sample &s) { return s.wall; });
    return {
        {"wall_s", median(walls), "s"},
        {"sim_minst_per_s",
         median(collect(samples, false,
                        [](const Sample &s) {
                            return static_cast<double>(s.counts.instructions) /
                                s.wall / 1e6;
                        })),
         "Minst/s"},
        {"cpu_s",
         median(collect(samples, false, [](const Sample &s) { return s.cpu; })),
         "s"},
        {"setup_s", median(setupTimes), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Sample> &samples,
         const std::vector<double> &setupTimes, const StreamRates &rates,
         unsigned threads)
{
    auto med = [&](auto field) { return median(collect(samples, true, field)); };
    const Sample *last = nullptr;
    for (const Sample &s : samples)
        if (s.traced)
            last = &s;
    const Counts &c = last->counts;
    const LayerTimes &l = last->layers;
    double tracedWall = med([](const Sample &s) { return s.wall; });
    double untracedWall =
        median(collect(samples, false, [](const Sample &s) { return s.wall; }));
    auto self = [&](const char *layer) { return medianSelfTime(samples, layer); };
    auto perRun = [](const Sample &s) { return s.layers.perRunSeconds; };
    auto sumOf = [](const std::vector<double> &v) {
        double total = 0.0;
        for (double x : v)
            total += x;
        return total;
    };
    double mb = static_cast<double>(l.bytesWritten) / 1e6;
    return {
        {"workload.build_s", median(setupTimes), "s"},
        {"workload.executor_minst_per_s", rates.executorMinstPerSecond,
         "Minst/s"},
        {"workload.self_s", self("workload"), "s"},
        {"trace.record_s", med([](const Sample &s) { return s.layers.recordSeconds; }),
         "s"},
        {"trace.snapshots", static_cast<double>(last->snapshots), "count"},
        {"trace.replays_per_snapshot",
         ratio(static_cast<double>(l.sweepRuns),
               static_cast<double>(last->snapshots)),
         "ratio"},
        {"trace.replay_minst_per_s", rates.replayMinstPerSecond, "Minst/s"},
        {"core.sweep.run_s", med([](const Sample &s) { return s.layers.runSeconds; }),
         "s"},
        {"core.sweep.run_p50_s",
         med([&](const Sample &s) { return percentile(perRun(s), 50.0); }), "s"},
        {"core.sweep.run_p90_s",
         med([&](const Sample &s) { return percentile(perRun(s), 90.0); }), "s"},
        {"core.sweep.parallel_eff",
         med([&](const Sample &s) {
             return parallelEfficiency(sumOf(perRun(s)), s.layers.runSeconds,
                                       threads);
         }),
         "ratio"},
        {"core.sweep.host_ns_per_inst",
         med([&](const Sample &s) {
             return ratio(sumOf(perRun(s)) * 1e9,
                          static_cast<double>(s.layers.sweepInstructions));
         }),
         "ns/inst"},
        {"core.sweep.self_s", self("core.sweep"), "s"},
        {"core.classify_s",
         med([](const Sample &s) { return s.layers.classifySeconds; }), "s"},
        {"adaptive.oracle_s",
         med([](const Sample &s) { return s.layers.oracleSeconds; }), "s"},
        {"adaptive.selector_run_s",
         med([](const Sample &s) { return s.layers.selectorRunSeconds; }), "s"},
        {"adaptive.decisions", static_cast<double>(c.decisions), "count"},
        {"obs.epochs", static_cast<double>(c.epochs), "count"},
        {"obs.self_s", self("obs"), "s"},
        {"report.export_s",
         med([](const Sample &s) { return s.layers.exportSeconds; }), "s"},
        {"report.self_s", self("report"), "s"},
        {"report.mb_written", mb, "MB"},
        {"report.mb_per_s",
         med([](const Sample &s) {
             return ratio(static_cast<double>(s.layers.bytesWritten) / 1e6,
                          s.layers.exportSeconds);
         }),
         "MB/s"},
        {"specbench.self_s", self("specbench"), "s"},
        {"tracing.overhead_s", tracedWall - untracedWall, "s"},
        {"core.engine.demand_accesses", static_cast<double>(c.demandAccesses),
         "count"},
        {"core.engine.wrong_accesses", static_cast<double>(c.wrongAccesses),
         "count"},
        {"cache.demand_misses", static_cast<double>(c.demandMisses), "count"},
        {"cache.wrong_fills", static_cast<double>(c.wrongFills), "count"},
        {"cache.bus_transactions", static_cast<double>(c.busTransactions),
         "count"},
        {"cache.prefetch_useful_ratio",
         ratio(static_cast<double>(c.bufferHits),
               static_cast<double>(c.prefetches)),
         "ratio"},
        {"branch.mispredicts", static_cast<double>(c.mispredicts), "count"},
        {"branch.misfetches", static_cast<double>(c.misfetches), "count"},
        {"core.classify.spec_prefetch_ratio",
         ratio(static_cast<double>(c.specPrefetch),
               static_cast<double>(c.classifiedWrongPath)),
         "ratio"},
        {"model.table5_ispi_mae",
         ratio(c.table5ErrorSum, static_cast<double>(c.table5Cells)), "ISPI"},
    };
}

std::string
number(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    if (args.selfTest) {
        bool ok = runSelfTest();
        std::printf("self-test %s\n", ok ? "passed" : "FAILED");
        return ok ? 0 : 1;
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
        std::fprintf(stderr, "specbench: unknown --workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    if (!runSelfTest()) {
        std::fprintf(stderr, "specbench: self-test failed; not measuring\n");
        return 1;
    }

    std::error_code dirError;
    std::filesystem::create_directories(args.outDir, dirError);
    if (dirError) {
        std::fprintf(stderr, "specbench: cannot create %s\n",
                     args.outDir.c_str());
        return 1;
    }
    std::string stem = args.outDir + "/" + args.workload;
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    Tracer tracer;

    // Set-up: building the 13 workloads. sharedWorkload then memoises
    // one build for every iteration.
    std::vector<double> setupTimes;
    Tracer *setupTracer = args.trace ? &tracer : nullptr;
    measureSetup(setupTimes, setupTracer);
    for (const std::string &name : benchmarkNames())
        sharedWorkload(name);

    Expected expected;
    if (!loadExpected(args.digests, args.workload, expected)) {
        std::fprintf(stderr, "specbench: cannot read %s\n", args.digests.c_str());
        return 1;
    }
    bool checkDigests = args.seed == expected.seed && !args.printDigests;
    if (!checkDigests)
        expected = Expected{};

    OutputCheck check;
    std::vector<Sample> samples;
    Clock::time_point runStart = Clock::now();
    size_t untraced = 0, traced = 0;
    for (size_t index = 0;; ++index) {
        bool tracedIteration = args.trace && index % 2 == 1;
        Context ctx;
        ctx.seed = args.seed;
        ctx.threads = threads;
        ctx.exportPath = stem + ".jsonl";
        ctx.tracer = tracedIteration ? &tracer : nullptr;
        std::string enginePath = stem + ".engine_spans.json";
        if (tracedIteration)
            TraceEventSink::global().open(enginePath);

        Iteration it;
        Sample sample;
        sample.traced = tracedIteration;
        long root = tracedIteration ? tracer.open("iteration", "specbench") : -1;
        double cpuStart = cpuSeconds();
        Clock::time_point start = Clock::now();
        bool exported = runWorkload(args.workload, ctx, it);
        sample.wall = since(start);
        sample.cpu = cpuSeconds() - cpuStart;
        if (tracedIteration) {
            tracer.close(root);
            TraceEventSink::global().close();
            sample.selfByLayer = tracer.selfTimeByLayer(root);
            sample.snapshots = countEngineSpans(enginePath, "snapshot_record");
        }

        // Everything below is outside the timed region.
        measureSetup(setupTimes, setupTracer);
        Digest digest;
        uint64_t failedBefore = check.failed();
        account(it, check, digest, sample.counts);
        sample.layers = std::move(it.layers);
        if (!exported)
            check.failBatch(sample.counts.runs, "export failed");
        std::string exportDigest;
        bool needExport = args.printDigests || !expected.exportBytes.empty();
        if (needExport && !digestFile(ctx.exportPath, exportDigest))
            exportDigest = "unreadable";
        if (args.printDigests) {
            std::printf("{\"%s\":{\"counters\":\"%s\",\"export_bytes\":\"%s\"}}\n",
                        args.workload.c_str(), digest.hex().c_str(),
                        exportDigest.c_str());
            return check.failed() == 0 ? 0 : 1;
        }
        if (checkDigests && check.failed() == failedBefore) {
            if (expected.counters.empty())
                check.failBatch(sample.counts.runs,
                                "no expected counter digest for the default seed");
            else if (digest.hex() != expected.counters)
                check.failBatch(sample.counts.runs,
                                "counter digest " + digest.hex() +
                                    " != expected " + expected.counters);
            else if (!expected.exportBytes.empty() &&
                     exportDigest != expected.exportBytes)
                check.failBatch(sample.counts.runs,
                                "export digest " + exportDigest +
                                    " != expected " + expected.exportBytes);
        }
        (tracedIteration ? traced : untraced) += 1;
        samples.push_back(std::move(sample));

        double elapsed = since(runStart);
        std::vector<double> walls;
        for (const Sample &s : samples)
            walls.push_back(s.wall);
        bool enough = untraced >= kMinIterations &&
            (!args.trace || traced >= kMinIterations);
        if (enough && elapsed + median(walls) > args.seconds)
            break;
    }

    StreamRates rates;
    if (args.trace) {
        rates = measureStreams(tracer, args.seed);
        tracer.writeChrome(stem + ".spans.json");
    }

    std::vector<Metric> metrics = args.trace
        ? perLayer(samples, setupTimes, rates, threads)
        : endToEnd(samples, setupTimes);
    bool correct = check.failed() == 0;
    double failedFraction = ratio(static_cast<double>(check.failed()),
                                  static_cast<double>(check.attempted()));

    std::printf("specbench %s: %zu untraced + %zu traced iterations, "
                "%" PRIu64 " runs checked, threads %u\n",
                args.workload.c_str(), untraced, traced, check.attempted(),
                threads);
    for (const std::string &note : check.messages())
        std::printf("  check failed: %s\n", note.c_str());
    auto quartileText = [&](const char *name, bool tracedSide,
                            auto field) {
        std::vector<double> values = collect(samples, tracedSide, field);
        std::array<double, 3> q = quartiles(values);
        std::printf("  %-34s q1 %.6g  median %.6g  q3 %.6g  (n=%zu)\n", name,
                    q[0], q[1], q[2], values.size());
    };
    for (size_t i = 0; i < samples.size(); ++i)
        std::printf("  iteration %zu%s: wall %.4f s, cpu %.4f s\n", i,
                    samples[i].traced ? " (traced)" : "", samples[i].wall,
                    samples[i].cpu);
    quartileText("wall_s (untraced iterations)", false,
                 [](const Sample &s) { return s.wall; });
    if (args.trace) {
        quartileText("wall_s (traced iterations)", true,
                     [](const Sample &s) { return s.wall; });
        std::printf("  self time per traced iteration (median, s):");
        double total = 0.0;
        for (const char *layer : {"specbench", "workload", "trace", "core.sweep",
                                  "core.classify", "adaptive", "obs", "report"}) {
            double t = medianSelfTime(samples, layer);
            total += t;
            std::printf(" %s %.4f", layer, t);
        }
        std::printf("; sum %.4f\n", total);
    }
    for (const Metric &m : metrics)
        std::printf("  %-34s %-22s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    std::printf("  %-34s %-22s %s\n", "failed_run_frac",
                number(failedFraction).c_str(), "ratio");

    JsonValue stamp = provenance(args, threads);
    std::printf("provenance %s\n", stamp.dump().c_str());

    JsonValue metricJson = JsonValue::object();
    for (const Metric &m : metrics) {
        JsonValue entry = JsonValue::object();
        entry.set("value", JsonValue::number(m.value))
            .set("unit", JsonValue::string(m.unit));
        metricJson.set(m.name, std::move(entry));
    }
    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(correct))
        .set("attempted", JsonValue::integer(check.attempted()))
        .set("failed", JsonValue::integer(check.failed()))
        .set("metrics", metricJson);

    JsonValue saved = result;
    saved.set("provenance", stamp)
        .set("failed_run_frac", JsonValue::number(failedFraction));
    std::ofstream(stem + (args.trace ? ".traced" : "") + ".result.json")
        << saved.dump() << "\n";

    std::printf("%s\n", result.dump().c_str());
    return 0;
}
