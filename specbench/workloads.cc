#include "workloads.hh"

#include <chrono>
#include <filesystem>
#include <utility>

#include "adaptive/adaptive_record.hh"
#include "adaptive/oracle.hh"
#include "obs/obs_record.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace specbench {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The adaptive column's machine, as bench_suite runs it. */
constexpr unsigned kAdaptivePenalty = 8;
constexpr double kAdaptiveEpsilon = 0.05;
constexpr uint64_t kPaperEpoch = 20'000;
/** epoch_export's epoch: fine-grained series and decisions. */
constexpr uint64_t kFineEpoch = 1'000;
/** fresh_streams' run seeds per profile. */
constexpr uint64_t kFreshSeeds = 8;

/** splitmix64 finalizer: distinct seeds from one seed argument. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

SimConfig
baseConfig(uint64_t seed)
{
    SimConfig config;
    config.instructionBudget = kRunBudget;
    config.runSeed = seed;
    config.adaptiveSeed = seed;
    return config;
}

/** runSweep under a span, folding its SweepTiming into @p layers. */
Batch &
sweep(const Context &ctx, Iteration &it, std::vector<RunSpec> specs,
      bool observe, const char *label)
{
    it.batches.emplace_back();
    Batch &batch = it.batches.back();
    batch.specs = std::move(specs);
    Scope span(ctx.tracer, label, "core.sweep");
    double start = ctx.tracer ? ctx.tracer->now() : 0.0;
    SweepTiming timing;
    batch.results = runSweep(batch.specs, ctx.threads, &timing,
                             observe ? &batch.observations : nullptr);
    if (ctx.tracer) {
        // runSweep times its own shared stages; they become children
        // of this span, charged to the layers that did the work.
        double built = start + timing.workloadBuildSeconds;
        ctx.tracer->addChild("sharedWorkload", "workload", start, built);
        ctx.tracer->addChild("TraceSnapshot::record", "trace", built,
                             built + timing.snapshotRecordSeconds);
    }
    LayerTimes &l = it.layers;
    l.recordSeconds += timing.snapshotRecordSeconds;
    l.runSeconds += timing.runSeconds;
    l.perRunSeconds.insert(l.perRunSeconds.end(),
                           timing.perRunSeconds.begin(),
                           timing.perRunSeconds.end());
    for (const SimResults &r : batch.results)
        l.sweepInstructions += r.instructions;
    l.sweepRuns += batch.results.size();
    return batch;
}

void
classifyAll(const Context &ctx, Iteration &it, const SimConfig &base)
{
    Clock::time_point start = Clock::now();
    for (const std::string &name : benchmarkNames()) {
        Scope span(ctx.tracer, "classifyMisses", "core.classify");
        Classified c;
        c.config = base;
        c.classification =
            classifyMisses(*sharedWorkload(name), base, &c.timed);
        it.classified.push_back(std::move(c));
    }
    it.layers.classifySeconds += since(start);
}

/** Static specs of every profile under every policy, profile-major. */
std::vector<RunSpec>
policySpecs(const SimConfig &base)
{
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames())
        for (FetchPolicy policy : allPolicies()) {
            SimConfig config = base;
            config.policy = policy;
            specs.push_back(RunSpec{name, config});
        }
    return specs;
}

/** Threshold + Bandit from Resume, per profile, profile-major. */
std::vector<RunSpec>
selectorSpecs(const SimConfig &base, uint64_t epoch)
{
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames())
        for (SelectorKind kind : {SelectorKind::Threshold, SelectorKind::Bandit}) {
            SimConfig config = base;
            config.policy = FetchPolicy::Resume;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = epoch;
            config.adaptiveEpsilon = kAdaptiveEpsilon;
            specs.push_back(RunSpec{name, config});
        }
    return specs;
}

/**
 * Per profile: fold the sampled static runs into the per-interval
 * oracle and score both selector runs against it. The epoch series
 * move into the oracle and back, so the check still sees them.
 */
std::vector<AdaptiveRegret>
scoreSelectors(const Context &ctx, Iteration &it, Batch &statics,
               const Batch &selectors, uint64_t epoch)
{
    Clock::time_point start = Clock::now();
    const std::vector<FetchPolicy> &policies = allPolicies();
    std::vector<AdaptiveRegret> regrets;
    for (size_t b = 0; b < benchmarkNames().size(); ++b) {
        Scope span(ctx.tracer, "buildPerIntervalOracle", "adaptive");
        std::vector<std::vector<EpochRecord>> epochs;
        std::vector<double> ispi;
        for (size_t p = 0; p < policies.size(); ++p) {
            size_t i = b * policies.size() + p;
            epochs.push_back(std::move(statics.observations[i].epochs));
            ispi.push_back(statics.results[i].ispi());
        }
        PerIntervalOracle oracle = buildPerIntervalOracle(
            policies, std::move(epochs), std::move(ispi), epoch);
        for (size_t k = 0; k < 2; ++k)
            regrets.push_back(
                computeRegret(selectors.results[b * 2 + k].ispi(), oracle));
        for (size_t p = 0; p < policies.size(); ++p)
            statics.observations[b * policies.size() + p].epochs =
                std::move(oracle.epochs[p]);
    }
    it.layers.oracleSeconds += since(start);
    return regrets;
}

/** The iteration's JSONL export, timed and spanned as one stage. */
class Export
{
  public:
    Export(const Context &context, Iteration &iteration)
        : ctx(context), it(iteration), start(Clock::now()),
          span(ctx.tracer, "export", "report"), writer(ctx.exportPath)
    {
    }

    void write(const JsonValue &record) { writer.write(record); }

    /** Build an obs-layer record under its own span, then write it. */
    template <typename Build>
    void
    writeObs(const char *name, Build build)
    {
        JsonValue record;
        {
            Scope obs(ctx.tracer, name, "obs");
            record = build();
        }
        writer.write(record);
    }

    /** Account the stage; false when the file was not fully written.
     *  JsonlWriter flushes every record, so the size is final here. */
    bool
    finish()
    {
        it.layers.exportSeconds += since(start);
        std::error_code error;
        uint64_t size = std::filesystem::file_size(ctx.exportPath, error);
        it.layers.bytesWritten += error ? 0 : size;
        return writer.ok() && !error;
    }

  private:
    const Context &ctx;
    Iteration &it;
    Clock::time_point start;
    Scope span;
    JsonlWriter writer;
};

void
writeAdaptive(Export &out, const Batch &selectors,
              const std::vector<AdaptiveRegret> &regrets)
{
    for (size_t i = 0; i < selectors.results.size(); ++i)
        out.write(makeAdaptiveRecord(selectors.observations[i].adaptive,
                                     selectors.results[i],
                                     selectors.specs[i].config, &regrets[i]));
}

/**
 * The paper pipeline: Table-4 classification of every profile, the
 * 130-run policy x prefetch grid, bench_suite's adaptive column, and
 * export of the run and adaptive records.
 */
bool
paperSuite(const Context &ctx, Iteration &it)
{
    SimConfig base = baseConfig(ctx.seed);
    classifyAll(ctx, it, base);

    std::vector<RunSpec> grid;
    for (RunSpec &spec : policySpecs(base))
        for (bool prefetch : {false, true}) {
            spec.config.nextLinePrefetch = prefetch;
            grid.push_back(spec);
        }
    sweep(ctx, it, std::move(grid), false, "runSweep grid");

    SimConfig column = base;
    column.missPenaltyCycles = kAdaptivePenalty;
    SimConfig sampled = column;
    sampled.sampleInterval = kPaperEpoch;
    sweep(ctx, it, policySpecs(sampled), true, "runSweep sampled");
    Clock::time_point selectorStart = Clock::now();
    sweep(ctx, it, selectorSpecs(column, kPaperEpoch), true,
          "runSweep selectors");
    it.layers.selectorRunSeconds += since(selectorStart);
    Batch &statics = it.batches[1];
    const Batch &selectors = it.batches[2];
    std::vector<AdaptiveRegret> regrets =
        scoreSelectors(ctx, it, statics, selectors, kPaperEpoch);

    Export out(ctx, it);
    const Batch &runs = it.batches[0];
    size_t perProfile = runs.specs.size() / it.classified.size();
    for (size_t i = 0; i < runs.results.size(); ++i)
        out.write(makeRunRecord(runs.results[i], runs.specs[i].config,
                                nullptr,
                                &it.classified[i / perProfile].classification));
    writeAdaptive(out, selectors, regrets);
    return out.finish();
}

/**
 * Every (profile, seed) stream consumed by exactly one run, so no
 * recorded snapshot can be shared; policy and prefetch rotate across
 * the seeds so all five policies run.
 */
bool
freshStreams(const Context &ctx, Iteration &it)
{
    std::vector<RunSpec> specs;
    const std::vector<FetchPolicy> &policies = allPolicies();
    const std::vector<std::string> &names = benchmarkNames();
    for (size_t b = 0; b < names.size(); ++b)
        for (uint64_t k = 0; k < kFreshSeeds; ++k) {
            SimConfig config = baseConfig(mix(ctx.seed * kFreshSeeds + k));
            config.policy = policies[(b + k) % policies.size()];
            config.nextLinePrefetch = k % 2 == 1;
            specs.push_back(RunSpec{names[b], config});
        }
    const Batch &runs = sweep(ctx, it, std::move(specs), false, "runSweep");

    Export out(ctx, it);
    for (size_t i = 0; i < runs.results.size(); ++i)
        out.write(makeRunRecord(runs.results[i], runs.specs[i].config));
    return out.finish();
}

/**
 * Every profile under every policy with 1K-instruction epochs and the
 * set heatmap armed, the per-interval oracle and both selectors at
 * 1K-instruction epochs, then export of every record kind.
 */
bool
epochExport(const Context &ctx, Iteration &it)
{
    SimConfig base = baseConfig(ctx.seed);
    SimConfig sampled = base;
    sampled.sampleInterval = kFineEpoch;
    sampled.setHeatmap = true;
    sweep(ctx, it, policySpecs(sampled), true, "runSweep sampled");
    Clock::time_point selectorStart = Clock::now();
    sweep(ctx, it, selectorSpecs(base, kFineEpoch), true,
          "runSweep selectors");
    it.layers.selectorRunSeconds += since(selectorStart);
    Batch &statics = it.batches[0];
    const Batch &selectors = it.batches[1];
    std::vector<AdaptiveRegret> regrets =
        scoreSelectors(ctx, it, statics, selectors, kFineEpoch);

    Export out(ctx, it);
    for (size_t i = 0; i < statics.results.size(); ++i) {
        const SimResults &r = statics.results[i];
        const SimConfig &config = statics.specs[i].config;
        const RunObservations &obs = statics.observations[i];
        out.write(makeRunRecord(r, config));
        out.writeObs("makeTimeseriesRecord", [&] {
            return makeTimeseriesRecord(obs, r, config);
        });
        out.writeObs("makeHeatmapRecord", [&] {
            return makeHeatmapRecord(*obs.heatmap, r, config);
        });
    }
    writeAdaptive(out, selectors, regrets);
    return out.finish();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_suite", "fresh_streams", "epoch_export"};
    return names;
}

bool
runWorkload(const std::string &name, const Context &context, Iteration &out)
{
    if (name == "paper_suite")
        return paperSuite(context, out);
    if (name == "fresh_streams")
        return freshStreams(context, out);
    return epochExport(context, out);
}

} // namespace specbench
