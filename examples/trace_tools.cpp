/**
 * @file
 * Trace tooling: record a benchmark execution to a trace file,
 * inspect it, and re-simulate from it. Demonstrates that a stored
 * trace and the live executor are interchangeable front-end inputs:
 * either one feeds the engine through the streaming replay cursor.
 *
 *   ./trace_tools record --benchmark=li --budget=1M --trace=/tmp/li.sft
 *   ./trace_tools info --trace=/tmp/li.sft
 *   ./trace_tools simulate --trace=/tmp/li.sft --policy=resume
 */

#include <cstdio>
#include <cstring>

#include "core/fetch_engine.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/snapshot.hh"
#include "trace/writer.hh"
#include "util/options.hh"
#include "util/string_utils.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

int
record(const OptionParser &opts)
{
    std::string path = opts.getString("trace");
    uint64_t budget = opts.getCount("budget");
    Workload w = buildWorkload(getProfile(opts.getString("benchmark")));

    Executor executor(w.cfg, opts.getCount("seed"));
    DynInst inst;
    executor.next(inst);
    TraceWriter writer(path, w.image, inst.pc);
    writer.append(inst);
    for (uint64_t i = 1; i < budget; ++i) {
        executor.next(inst);
        writer.append(inst);
    }
    writer.close();
    std::printf("wrote %s: %s instructions, image %zu instructions\n",
                path.c_str(), formatWithCommas(budget).c_str(),
                w.image.size());
    return 0;
}

int
info(const OptionParser &opts)
{
    TraceReader reader(opts.getString("trace"));
    std::printf("image: base 0x%llx, %zu instructions (%.1f KB), "
                "%zu control\n",
                static_cast<unsigned long long>(reader.image().base()),
                reader.image().size(),
                static_cast<double>(reader.image().size() * 4) / 1024.0,
                reader.image().controlCount());
    std::printf("start pc: 0x%llx\n",
                static_cast<unsigned long long>(reader.startPc()));

    uint64_t counts[6] = {};
    uint64_t taken = 0;
    DynInst inst;
    uint64_t total = 0;
    while (reader.next(inst)) {
        ++counts[static_cast<size_t>(inst.cls)];
        taken += isControl(inst.cls) && inst.taken;
        ++total;
    }
    std::printf("dynamic stream: %s instructions\n",
                formatWithCommas(total).c_str());
    for (size_t c = 0; c < 6; ++c) {
        if (counts[c] == 0)
            continue;
        std::printf("  %-7s %s (%.2f%%)\n",
                    toString(static_cast<InstClass>(c)).c_str(),
                    formatWithCommas(counts[c]).c_str(),
                    100.0 * ratioOf(counts[c], total));
    }
    return 0;
}

int
simulate(const OptionParser &opts)
{
    FetchPolicy policy;
    if (!parsePolicy(opts.getString("policy"), policy)) {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     opts.getString("policy").c_str());
        return 1;
    }

    TraceReader reader(opts.getString("trace"));

    SimConfig config;
    config.policy = policy;
    config.instructionBudget = opts.getCount("budget");
    config.nextLinePrefetch = opts.getFlag("prefetch");

    FetchEngine engine(config, reader.image());
    SnapshotReplaySource source(reader, config.streamInstructions());
    SimResults results = engine.run(source);
    results.workload = opts.getString("trace");
    std::fputs(results.summary().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("trace_tools",
                      "record / info / simulate stored traces");
    opts.addString("trace", "/tmp/specfetch.sft", "trace file path");
    opts.addString("benchmark", "li", "profile to record");
    opts.addString("policy", "resume", "policy for 'simulate'");
    opts.addCount("budget", 1'000'000, "instructions");
    opts.addCount("seed", 42, "dynamic-behavior seed");
    opts.addFlag("prefetch", "enable next-line prefetching");
    if (!opts.parse(argc, argv))
        return 1;

    if (opts.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: trace_tools <record|info|simulate> "
                     "[options]\n");
        return 1;
    }
    const std::string &verb = opts.positional()[0];
    try {
        if (verb == "record")
            return record(opts);
        if (verb == "info")
            return info(opts);
        if (verb == "simulate")
            return simulate(opts);
    } catch (const TraceError &e) {
        // Damaged or missing trace input: a user error, not a crash.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown verb '%s'\n", verb.c_str());
    return 1;
}
