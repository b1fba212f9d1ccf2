/**
 * @file
 * Building a workload by hand with the CFG API — no profile, no
 * generator. Constructs the classic "interpreter" shape (a dispatch
 * loop over handlers via an indirect jump) plus a cold error path,
 * then compares all five fetch policies on it.
 *
 * This demonstrates the lowest-level public API: Cfg/BasicBlock,
 * layoutProgram, Executor, SnapshotReplaySource and FetchEngine,
 * assembled manually.
 */

#include <cstdio>

#include "core/fetch_engine.hh"
#include "trace/snapshot.hh"
#include "util/options.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workload/executor.hh"
#include "workload/layout.hh"

using namespace specfetch;

namespace {

/** Append a block and return its id. */
uint32_t
addBlock(Cfg &cfg, uint32_t func, uint32_t body_len, TermKind term)
{
    BasicBlock block;
    block.id = static_cast<uint32_t>(cfg.blocks.size());
    block.func = func;
    block.bodyLen = body_len;
    block.term = term;
    cfg.blocks.push_back(block);
    return cfg.blocks.back().id;
}

/**
 * An interpreter-shaped program:
 *   loop:  dispatch (indirect) -> one of N handlers -> back to loop
 * Each handler is a straight run of code; one rare handler is large
 * and cold (the "error path"). Handler popularity is skewed.
 */
Cfg
interpreterCfg(unsigned handlers, unsigned handler_len)
{
    Cfg cfg;

    // Dispatch block: a little decode work, then the indirect jump.
    uint32_t dispatch = addBlock(cfg, 0, 3, TermKind::IndirectJump);

    std::vector<uint32_t> entries;
    std::vector<uint32_t> exits;
    for (unsigned h = 0; h < handlers; ++h) {
        // The last handler is the big cold one.
        uint32_t len = h + 1 == handlers ? handler_len * 8 : handler_len;
        uint32_t body = addBlock(cfg, 0, len, TermKind::Jump);
        entries.push_back(body);
        exits.push_back(body);
    }

    // Loop tail: a counter-style conditional back to dispatch, then
    // the main seal jump (never reached dynamically but required
    // structurally: main must end with a jump to its entry).
    uint32_t tail = addBlock(cfg, 0, 2, TermKind::CondBranch);
    uint32_t seal = addBlock(cfg, 0, 1, TermKind::Jump);

    for (unsigned h = 0; h < handlers; ++h)
        cfg.blocks[exits[h]].target = tail;

    cfg.blocks[tail].target = dispatch;
    cfg.blocks[tail].behavior.mode = DirMode::LoopBack;
    cfg.blocks[tail].behavior.tripCount = 1'000'000'000;    // forever
    cfg.blocks[seal].target = dispatch;

    std::vector<double> weights;
    for (unsigned h = 0; h < handlers; ++h)
        weights.push_back(h + 1 == handlers ? 0.02
                                            : 1.0 / (1.0 + h * 0.4));
    cfg.blocks[dispatch].indirectTargets = entries;
    cfg.blocks[dispatch].indirectWeights = weights;

    Function main;
    main.index = 0;
    main.firstBlock = dispatch;
    main.lastBlock = seal;
    main.name = "interp";
    cfg.functions.push_back(main);

    cfg.validate();
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("custom_workload",
                      "hand-built interpreter workload, all policies");
    opts.addCount("handlers", 28, "number of bytecode handlers");
    opts.addCount("handler-len", 96, "instructions per handler");
    opts.addCount("budget", 2'000'000, "instructions to simulate");
    opts.addSize("cache", 8 * 1024, "I-cache size in bytes");
    if (!opts.parse(argc, argv))
        return 1;

    Cfg cfg = interpreterCfg(
        static_cast<unsigned>(opts.getCount("handlers")),
        static_cast<unsigned>(opts.getCount("handler-len")));
    ProgramImage image = layoutProgram(cfg);

    std::printf("interpreter: %llu static instructions (%.1f KB), "
                "%zu handlers\n\n",
                static_cast<unsigned long long>(cfg.totalInstructions()),
                static_cast<double>(cfg.totalInstructions() * 4) / 1024.0,
                cfg.blocks[0].indirectTargets.size());

    SimConfig config;
    config.instructionBudget = opts.getCount("budget");
    config.icache.sizeBytes = opts.getSize("cache");

    TextTable table;
    table.setColumns({"Policy", "ISPI", "miss%", "indirect mispredict%",
                      "traffic"});
    for (FetchPolicy policy : allPolicies()) {
        SimConfig cfg_run = config;
        cfg_run.policy = policy;
        FetchEngine engine(cfg_run, image);
        Executor executor(cfg, 42);
        SnapshotReplaySource source(executor,
                                    cfg_run.streamInstructions());
        SimResults r = engine.run(source);
        double indirect_rate = 100.0 *
            ratioOf(r.targetMispredicts, r.controlInsts);
        table.addRow({toString(policy), formatFixed(r.ispi(), 3),
                      formatFixed(r.missRatePercent(), 2),
                      formatFixed(indirect_rate, 1),
                      formatWithCommas(r.memoryTransactions())});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nthe BTB mispredicts whenever the dispatch picks a "
                "different handler than last time — the fetch-policy "
                "choice decides what those wrong paths cost.\n");
    return 0;
}
