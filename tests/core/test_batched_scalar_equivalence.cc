/**
 * @file
 * Batched-vs-scalar bit-exactness properties (DESIGN.md §14).
 *
 * The replay fast path consumes whole RLE plain runs via
 * SnapshotReplaySource::takePlainRun and retires them in per-line
 * probe batches. The contract is that this is *unobservable*: every
 * counter, penalty slot, epoch record, heatmap bucket and adaptive
 * choice must be bit-identical to the instruction-at-a-time path.
 * The scalar reference is obtained by replaying the same snapshot
 * through the InstructionSource base interface, which selects the
 * engine's scalar run(InstructionSource &) path: one next() per
 * instruction.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "engine_test_support.hh"
#include "obs/set_heatmap.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

constexpr uint64_t kBudget = 20'000;

constexpr FetchPolicy kPolicies[] = {
    FetchPolicy::Oracle, FetchPolicy::Optimistic, FetchPolicy::Resume,
    FetchPolicy::Pessimistic, FetchPolicy::Decode,
};

/** Replay @p snap through the batched (takePlainRun) fast path. */
SimResults
runBatched(const ProgramImage &image, const SimConfig &config,
           const TraceSnapshot &snap, RunObservations *obs = nullptr)
{
    SnapshotReplaySource source(snap);
    FetchEngine engine(config, image);
    SimResults results = engine.run(source);
    if (obs)
        engine.takeObservations(*obs, results);
    return results;
}

/**
 * Replay @p snap one instruction at a time. Erasing the source's
 * static type selects run(InstructionSource &), the scalar reference
 * path, so this exercises exactly one next() and fetchOne() per
 * instruction.
 */
SimResults
runScalar(const ProgramImage &image, const SimConfig &config,
          const TraceSnapshot &snap, RunObservations *obs = nullptr)
{
    SnapshotReplaySource source(snap);
    InstructionSource &erased = source;
    FetchEngine engine(config, image);
    SimResults results = engine.run(erased);
    if (obs)
        engine.takeObservations(*obs, results);
    return results;
}

TraceSnapshot
recordSnapshot(const Workload &w, uint64_t length, uint64_t seed = 42,
               unsigned max_plain_run = 0)
{
    Executor recorder(w.cfg, seed);
    return max_plain_run > 0
               ? TraceSnapshot::record(recorder, length, max_plain_run)
               : TraceSnapshot::record(recorder, length);
}

void
expectEpochsEqual(const std::vector<EpochRecord> &a,
                  const std::vector<EpochRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const EpochRecord &x = a[i];
        const EpochRecord &y = b[i];
        EXPECT_EQ(x.epoch, y.epoch) << "epoch " << i;
        EXPECT_EQ(x.firstInstruction, y.firstInstruction) << "epoch " << i;
        EXPECT_EQ(x.lastInstruction, y.lastInstruction) << "epoch " << i;
        EXPECT_EQ(x.slots, y.slots) << "epoch " << i;
        for (size_t k = 0; k < kNumPenaltyKinds; ++k) {
            EXPECT_EQ(x.penaltySlots[k], y.penaltySlots[k])
                << "epoch " << i << " penalty " << k;
        }
        EXPECT_EQ(x.controlInsts, y.controlInsts) << "epoch " << i;
        EXPECT_EQ(x.condBranches, y.condBranches) << "epoch " << i;
        EXPECT_EQ(x.misfetches, y.misfetches) << "epoch " << i;
        EXPECT_EQ(x.dirMispredicts, y.dirMispredicts) << "epoch " << i;
        EXPECT_EQ(x.targetMispredicts, y.targetMispredicts) << "epoch " << i;
        EXPECT_EQ(x.demandAccesses, y.demandAccesses) << "epoch " << i;
        EXPECT_EQ(x.demandMisses, y.demandMisses) << "epoch " << i;
        EXPECT_EQ(x.demandFills, y.demandFills) << "epoch " << i;
        EXPECT_EQ(x.bufferHits, y.bufferHits) << "epoch " << i;
        EXPECT_EQ(x.wrongAccesses, y.wrongAccesses) << "epoch " << i;
        EXPECT_EQ(x.wrongMisses, y.wrongMisses) << "epoch " << i;
        EXPECT_EQ(x.wrongFills, y.wrongFills) << "epoch " << i;
        EXPECT_EQ(x.prefetchesIssued, y.prefetchesIssued) << "epoch " << i;
        EXPECT_EQ(x.partial, y.partial) << "epoch " << i;
    }
}

void
expectHeatmapsEqual(const SetHeatmap *a, const SetHeatmap *b)
{
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->demandAccesses(), b->demandAccesses());
    EXPECT_EQ(a->demandMisses(), b->demandMisses());
    EXPECT_EQ(a->correctFills(), b->correctFills());
    EXPECT_EQ(a->wrongAccesses(), b->wrongAccesses());
    EXPECT_EQ(a->wrongMisses(), b->wrongMisses());
    EXPECT_EQ(a->wrongFills(), b->wrongFills());
    EXPECT_EQ(a->evictionsByCorrect(), b->evictionsByCorrect());
    EXPECT_EQ(a->evictionsByWrong(), b->evictionsByWrong());
}

void
expectAdaptiveEqual(const AdaptiveLog &a, const AdaptiveLog &b)
{
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.basePolicy, b.basePolicy);
    EXPECT_EQ(a.switches, b.switches);
    ASSERT_EQ(a.choices.size(), b.choices.size());
    for (size_t i = 0; i < a.choices.size(); ++i) {
        EXPECT_EQ(a.choices[i].epoch, b.choices[i].epoch) << "choice " << i;
        EXPECT_EQ(a.choices[i].policy, b.choices[i].policy)
            << "choice " << i;
        EXPECT_EQ(a.choices[i].firstInstruction,
                  b.choices[i].firstInstruction)
            << "choice " << i;
        EXPECT_EQ(a.choices[i].lastInstruction, b.choices[i].lastInstruction)
            << "choice " << i;
    }
}

/**
 * The full grid the bench suite sweeps: every benchmark, every
 * policy, prefetch off and on. SimResults equality is exact over
 * every raw counter and penalty slot.
 */
TEST(BatchedScalar, AllBenchmarksAllPoliciesAllPrefetch)
{
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kBudget);
        for (FetchPolicy policy : kPolicies) {
            for (bool prefetch : {false, true}) {
                SimConfig config;
                config.policy = policy;
                config.instructionBudget = kBudget;
                config.prefetchKind = prefetch ? PrefetchKind::NextLine
                                               : PrefetchKind::None;
                SimResults batched = runBatched(w.image, config, snap);
                SimResults scalar = runScalar(w.image, config, snap);
                EXPECT_EQ(batched, scalar)
                    << name << " " << toString(policy)
                    << (prefetch ? " +prefetch" : "");
            }
        }
    }
}

/**
 * Epoch series and set heatmaps under an interval that does not
 * divide the budget (forces a partial final epoch) and falls inside
 * plain runs and cache lines alike.
 */
TEST(BatchedScalar, SamplerEpochsAndHeatmapIdentical)
{
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kBudget);
        SimConfig config;
        config.policy = FetchPolicy::Resume;
        config.instructionBudget = kBudget;
        config.prefetchKind = PrefetchKind::NextLine;
        config.sampleInterval = 3'001;   // boundary lands mid-run/mid-line
        config.setHeatmap = true;

        RunObservations obs_b, obs_s;
        SimResults batched = runBatched(w.image, config, snap, &obs_b);
        SimResults scalar = runScalar(w.image, config, snap, &obs_s);
        EXPECT_EQ(batched, scalar) << name;
        expectEpochsEqual(obs_b.epochs, obs_s.epochs);
        expectHeatmapsEqual(obs_b.heatmap.get(), obs_s.heatmap.get());
    }
}

/**
 * Adaptive selection switches policy at epoch boundaries; the batch
 * cap must stop every batch exactly at the decision point so both
 * paths see identical epochs and make identical choices.
 */
TEST(BatchedScalar, AdaptiveSelectionIdentical)
{
    for (SelectorKind kind : {SelectorKind::Threshold, SelectorKind::Bandit}) {
        for (const std::string &name : {std::string("gcc"),
                                        std::string("li"),
                                        std::string("doduc")}) {
            const Workload &w = *sharedWorkload(name);
            TraceSnapshot snap = recordSnapshot(w, kBudget);
            SimConfig config;
            config.policy = FetchPolicy::Resume;
            config.instructionBudget = kBudget;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = 2'500;

            RunObservations obs_b, obs_s;
            SimResults batched = runBatched(w.image, config, snap, &obs_b);
            SimResults scalar = runScalar(w.image, config, snap, &obs_s);
            EXPECT_EQ(batched, scalar) << name;
            expectAdaptiveEqual(obs_b.adaptive, obs_s.adaptive);
        }
    }
}

/**
 * Paranoid checking audits every checkpointInterval instructions; the
 * batch cap must present the auditor with the same mid-run state the
 * scalar path would (a violated invariant panics the run).
 */
TEST(BatchedScalar, ParanoidAuditedRunsIdentical)
{
    for (const std::string &name : {std::string("gcc"),
                                    std::string("tex"),
                                    std::string("porky")}) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kBudget);
        SimConfig config;
        config.policy = FetchPolicy::Pessimistic;
        config.instructionBudget = kBudget;
        config.checkLevel = CheckLevel::Paranoid;
        config.checkpointInterval = 2'000;

        SimResults batched = runBatched(w.image, config, snap);
        SimResults scalar = runScalar(w.image, config, snap);
        EXPECT_EQ(batched, scalar) << name;
    }
}

/**
 * Degenerate runs: a snapshot recorded with max_plain_run = 1 turns
 * every plain into its own single-instruction run record. The batch
 * path must survive a stream of length-1 batches and still match
 * both the scalar path and the unchunked snapshot.
 */
TEST(BatchedScalar, SingleInstructionRuns)
{
    const Workload &w = *sharedWorkload("gcc");
    TraceSnapshot whole = recordSnapshot(w, kBudget);
    TraceSnapshot chunked = recordSnapshot(w, kBudget, 42,
                                           /*max_plain_run=*/1);
    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.instructionBudget = kBudget;

    SimResults batched_whole = runBatched(w.image, config, whole);
    SimResults batched_chunked = runBatched(w.image, config, chunked);
    SimResults scalar = runScalar(w.image, config, whole);
    EXPECT_EQ(batched_whole, scalar);
    EXPECT_EQ(batched_chunked, scalar);
}

/**
 * A single plain run long enough to straddle line boundaries, set
 * boundaries and a full wrap of the 8K direct-mapped array (256
 * 32-byte lines), with a backward branch so later laps hit lines the
 * first lap installed. Exercises the consecutive-line stepping in
 * fetchPlainRun across every line-relative phase: the run starts
 * mid-line (3 plains past the branch target's line start).
 */
TEST(BatchedScalar, RunStraddlesLineSetAndWrapBoundaries)
{
    using test::ProgramScript;
    ProgramScript script(0x10000, 8192);
    const Addr top = script.pc();
    // 2600 plains ≈ 325 lines > the 256-line array: guaranteed wrap.
    script.plains(3);
    const Addr body = script.pc();
    script.plains(2600);
    for (int lap = 0; lap < 4; ++lap) {
        script.control(InstClass::CondBranch, true, body);
        script.plains(2600);
    }
    script.control(InstClass::Jump, true, top);

    SimConfig config;
    config.instructionBudget = script.scriptLength();
    config.sampleInterval = 777;    // epoch boundaries mid-line
    for (FetchPolicy policy : kPolicies) {
        config.policy = policy;
        test::ScriptedSource recorder = script.source();
        TraceSnapshot snap =
            TraceSnapshot::record(recorder, script.scriptLength());

        RunObservations obs_b, obs_s;
        SimResults batched = runBatched(script.image(), config, snap, &obs_b);
        SimResults scalar = runScalar(script.image(), config, snap, &obs_s);
        EXPECT_EQ(batched, scalar) << toString(policy);
        expectEpochsEqual(obs_b.epochs, obs_s.epochs);
    }
}

/**
 * Budget expiring mid-run: the engine must cut the final batch at
 * the instruction budget, not at the run record's end.
 */
TEST(BatchedScalar, BudgetCutsBatchMidRun)
{
    using test::ProgramScript;
    ProgramScript script(0x10000, 4096);
    script.plains(3000);

    SimConfig config;
    config.instructionBudget = 1'234;   // mid-run, mid-line
    for (FetchPolicy policy : kPolicies) {
        config.policy = policy;
        test::ScriptedSource recorder = script.source();
        TraceSnapshot snap =
            TraceSnapshot::record(recorder, script.scriptLength());

        SimResults batched = runBatched(script.image(), config, snap);
        SimResults scalar = runScalar(script.image(), config, snap);
        EXPECT_EQ(batched, scalar) << toString(policy);
        EXPECT_EQ(batched.instructions, config.instructionBudget);
    }
}

/**
 * The scalar reference must stay scalar: run(InstructionSource &)
 * never takes a bulk step, even though every InstructionSource has
 * takePlainRun(). Only the concrete SnapshotReplaySource batches, and
 * its stream, recorded through the executor's bulk step, gives the
 * same results.
 */
TEST(BatchedScalar, ScalarReferenceNeverTakesPlainRuns)
{
    /** An executor that counts the bulk steps asked of it. */
    class CountingSource : public InstructionSource
    {
      public:
        CountingSource(const Cfg &cfg, uint64_t seed) : executor(cfg, seed)
        {
        }

        bool next(DynInst &out) override { return executor.next(out); }

        uint32_t
        takePlainRun(Addr &pc_out, uint32_t max) override
        {
            ++bulkCalls;
            return executor.takePlainRun(pc_out, max);
        }

        uint64_t bulkCalls = 0;

      private:
        Executor executor;
    };

    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        SimConfig config;
        config.policy = FetchPolicy::Resume;
        config.instructionBudget = kBudget;
        config.prefetchKind = PrefetchKind::NextLine;

        CountingSource live(w.cfg, config.runSeed);
        FetchEngine scalar_engine(config, w.image);
        SimResults scalar = scalar_engine.run(live);
        EXPECT_EQ(live.bulkCalls, 0u) << name;

        CountingSource recorded(w.cfg, config.runSeed);
        SnapshotReplaySource streaming(recorded);
        FetchEngine batched_engine(config, w.image);
        SimResults batched = batched_engine.run(streaming);
        EXPECT_GT(recorded.bulkCalls, 0u) << name;
        EXPECT_EQ(batched, scalar) << name;
    }
}

} // namespace
} // namespace specfetch
