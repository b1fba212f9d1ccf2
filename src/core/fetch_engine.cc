#include "core/fetch_engine.hh"

#include <algorithm>
#include <type_traits>

#include "adaptive/selector.hh"
#include "check/invariant.hh"
#include "fault/guard.hh"
#include "obs/interval_sampler.hh"
#include "obs/trace_event.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

constexpr Addr kNoLine = ~Addr{0};

/** FetchPolicy enumerator as a template-argument policy slot. */
constexpr int pol(FetchPolicy p) { return static_cast<int>(p); }

} // namespace

FetchEngine::FetchEngine(const SimConfig &_config, const ProgramImage &_image)
    : config(_config), image(_image), predictor(_config.predictor),
      cache(_config.icache), bus(_config.memoryChannels), resumeBuffer(),
      hierarchy(_config.memoryConfig(), _config.issueWidth),
      victimCache(_config.victimEntries ? _config.victimEntries : 1),
      prefetcher(_config.effectivePrefetchKind(), cache, bus,
                 &resumeBuffer, _config.targetTableEntries, &hierarchy),
      walker(this->config, _image, predictor, cache, bus, resumeBuffer,
             hierarchy, prefetcher.enabled() ? &prefetcher : nullptr),
      curLine(kNoLine)
{
    this->config.validate();
    if (config.victimEntries > 0)
        cache.setVictimCache(&victimCache);
    if (config.checkLevel != CheckLevel::Off) {
        auditor = std::make_unique<InvariantAuditor>(
            InvariantAuditor::standard(config.checkLevel));
    }
    if (config.sampleInterval > 0)
        sampler = std::make_unique<IntervalSampler>(config.sampleInterval);
    if (config.setHeatmap)
        heatmap = std::make_unique<SetHeatmap>(config.icache);
    if (config.adaptiveSelector != SelectorKind::Off) {
        selector = makeSelector(config);
        adaptiveTicker =
            std::make_unique<IntervalSampler>(config.adaptiveInterval);
    }
    walker.setStats(&stats);
    walker.setHeatmap(heatmap.get());
    walker.setVictim(config.victimEntries > 0 ? &victimCache : nullptr,
                     Slot(config.victimHitCycles) * config.issueWidth);
}

FetchEngine::~FetchEngine() = default;

void
FetchEngine::armClassifier()
{
    requireClassifiable(config);
    classifier = std::make_unique<MissClassifier>(config.icache);
    walker.setClassifier(classifier.get());
}

void
FetchEngine::takeObservations(RunObservations &out, const SimResults &run)
{
    if (sampler) {
        out.epochs = sampler->takeEpochs();
        out.sampleInterval = sampler->interval();
    }
    out.heatmap = std::move(heatmap);
    if (selector) {
        out.adaptive = std::move(adaptiveLog);
        adaptiveLog = AdaptiveLog{};
    }
    walker.setHeatmap(nullptr);
    if (classifier) {
        out.classification =
            classifier->handOver(run, bus.transactions.value(), config);
    }
}

void
FetchEngine::resetStats()
{
    SimResults fresh;
    fresh.workload = stats.workload;
    fresh.policy = stats.policy;
    fresh.prefetch = stats.prefetch;
    fresh.misfetchSlots = stats.misfetchSlots;
    fresh.mispredictSlots = stats.mispredictSlots;
    stats = fresh;
    prefetchBaseline = prefetcher.issuedCount();
    statsBaseSlot = now;
    busBaseline = bus.transactions.value();
    // The heatmap mirrors the post-warmup counters in SimResults.
    if (heatmap)
        heatmap->reset();
    walker.setStats(&stats);
}

void
FetchEngine::runAudit(bool end_of_run)
{
    if (!auditor)
        return;
    TraceSpan span("audit", "check");
    // Predictor training due by the current slot is applied lazily
    // (at the next control instruction); an audit must observe the
    // same predictor state as the eager schedule would.
    drainResolves();

    AuditContext ctx;
    ctx.config = &config;
    ctx.stats = &stats;
    ctx.now = now;
    ctx.statsBaseSlot = statsBaseSlot;
    ctx.busBaseTransactions = busBaseline;
    ctx.prefetchBaseline = prefetchBaseline;
    ctx.prefetchesIssuedNow = prefetcher.issuedCount();
    ctx.icache = &cache;
    ctx.resumeBuffer = &resumeBuffer;
    ctx.prefetcher = &prefetcher;
    ctx.predictor = &predictor;
    ctx.bus = &bus;
    ctx.adaptiveLog = selector ? &adaptiveLog : nullptr;
    ctx.endOfRun = end_of_run;

    if (auditor->runChecks(ctx) == 0)
        return;
    auditor->emitReport(config);
    const InvariantViolation &first = auditor->violations().front();
    panic("invariant '%s' violated at instruction %llu: %s",
          first.invariant.c_str(),
          static_cast<unsigned long long>(stats.instructions),
          first.detail.c_str());
}

void
FetchEngine::onAdaptiveBoundary()
{
    adaptiveTicker->onBoundary(stats, now, prefetcher.issuedCount());
    const EpochRecord &closed = adaptiveTicker->epochs().back();
    adaptiveLog.choices.push_back(
        AdaptiveChoice{closed.epoch, config.policy,
                       closed.firstInstruction, closed.lastInstruction});

    // A boundary that coincides with the end of the budget closes the
    // final epoch; there is no next epoch to choose a policy for.
    if (stats.instructions >= config.instructionBudget)
        return;

    FetchPolicy next = selector->nextPolicy(closed, config.policy);
    if (next != config.policy) {
        ++adaptiveLog.switches;
        // The only place the run ever changes policy: every component
        // reads the policy through the engine's config (the walker by
        // reference, handleLineAccess directly), so the switch takes
        // effect from the next fetched instruction while cache,
        // predictor and clock state carry across untouched.
        config.policy = next;
    }
}

void
FetchEngine::drainResolvesDue()
{
    do {
        predictor.onResolve(pendingResolves.front().inst);
        pendingResolves.pop_front();
    } while (!pendingResolves.empty() &&
             pendingResolves.front().at <= now);
}

template <int PF>
void
FetchEngine::maybePrefetch(Addr line_addr)
{
    if (prefetchArmed<PF>())
        prefetcher.onAccess(line_addr, now, config.missPenaltySlots());
}

template <int P, int PF>
void
FetchEngine::handleLineAccess(Addr line_addr)
{
    ++stats.demandAccesses;
    if (heatmap)
        heatmap->demandAccess(line_addr);
    if (cache.access(line_addr)) [[likely]] {
        if (classifier)
            classifier->correctAccess(line_addr, true);
        maybePrefetch<PF>(line_addr);
        return;
    }
    handleLineMiss<P, PF>(line_addr);
}

template <int P, int PF>
void
FetchEngine::handleLineMiss(Addr line_addr)
{
    bool buffer_hit = false;

    if (resumeBuffer.matches(line_addr)) {
        // A previously initiated (wrong-path) fill of this very line:
        // no new memory request, but the data must finish arriving —
        // the Resume policy's residual cost.
        if (!resumeBuffer.isReady(now))
            advanceTo(resumeBuffer.readyAt(), PenaltyKind::Bus);
        resumeBuffer.drainIfReady(cache, now);
        buffer_hit = true;
    } else if (prefetchArmed<PF>() &&
               prefetcher.buffer().matches(line_addr)) {
        // Demand access to an in-flight or completed prefetch.
        if (!prefetcher.buffer().isReady(now))
            advanceTo(prefetcher.buffer().readyAt(), PenaltyKind::RtIcache);
        prefetcher.drain(now);
        buffer_hit = true;
    } else if (prefetchArmed<PF>() &&
               prefetcher.streamMatches(line_addr)) {
        // Demand access served by the stream-buffer head: wait for
        // the data if needed, then consume (which also requests the
        // next sequential line).
        if (prefetcher.streamReadyAt() > now)
            advanceTo(prefetcher.streamReadyAt(), PenaltyKind::RtIcache);
        prefetcher.streamConsume(now, config.missPenaltySlots());
        buffer_hit = true;
    }

    if (buffer_hit) {
        ++stats.bufferHits;
        if (classifier)
            classifier->correctAccess(line_addr, true);
        maybePrefetch<PF>(line_addr);
        return;
    }

    // On-chip victim swap: satisfied in a cycle, no bus, no policy
    // tax (the conservative waits exist to protect bus bandwidth and
    // cache content from wrong-path *fills*; a swap is neither).
    if (config.victimEntries > 0 && victimCache.probe(line_addr)) {
        advanceTo(now + Slot(config.victimHitCycles) * config.issueWidth,
                  PenaltyKind::RtIcache);
        cache.insert(line_addr);    // displaced line spills back
        ++stats.bufferHits;
        if (classifier)
            classifier->correctAccess(line_addr, true);
        maybePrefetch<PF>(line_addr);
        return;
    }

    // A genuine correct-path miss.
    ++stats.demandMisses;
    if (heatmap)
        heatmap->demandMiss(line_addr);
    if (classifier)
        classifier->correctAccess(line_addr, false);

    // Conservative policies tax the miss before it may be serviced.
    // With a static policy slot the switch folds to either nothing or
    // a single unconditional wait computation.
    switch (activePolicy<P>()) {
      case FetchPolicy::Pessimistic:
        advanceTo(std::max(branchUnit.latestResolveAt(),
                           lastIssue + 1 + config.decodeSlots()),
                  PenaltyKind::ForceResolve);
        break;
      case FetchPolicy::Decode:
        advanceTo(lastIssue + 1 + config.decodeSlots(),
                  PenaltyKind::ForceResolve);
        break;
      default:
        break;
    }

    // "Written at the next I-cache miss": retire completed buffers.
    resumeBuffer.drainIfReady(cache, now);
    if (prefetchArmed<PF>())
        prefetcher.drain(now);

    // Wait for the bus (occupied by a wrong-path fill under Resume or
    // by a prefetch), then fill.
    if (bus.freeAt() > now)
        advanceTo(bus.freeAt(), PenaltyKind::Bus);
    Slot done = bus.acquire(now, hierarchy.fillSlots(line_addr));
    ++stats.demandFills;
    advanceTo(done, PenaltyKind::RtIcache);
    Eviction evicted = cache.insert(line_addr);
    if (heatmap)
        heatmap->correctFill(line_addr, evicted);

    // The first fetch from the freshly loaded line can trigger the
    // next-line prefetch (its first-ref bit was just set); a stream
    // buffer instead uses the miss itself as its allocation trigger.
    maybePrefetch<PF>(line_addr);
    if (prefetchArmed<PF>())
        prefetcher.onDemandMiss(line_addr, now, config.missPenaltySlots());
}

template <int P, int PF>
void
FetchEngine::fetchOne(const DynInst &inst)
{
    // Plain instructions neither read nor train the predictor, so the
    // resolve drain is only due ahead of control instructions (the
    // only other drain points — advanceTo and the audit hook — run
    // regardless of instruction class).
    if (inst.cls != InstClass::Plain)
        drainResolves();

    // Speculation-depth limit: a new conditional branch cannot be
    // fetched while maxUnresolved conditionals are in flight.
    if (inst.cls == InstClass::CondBranch &&
        branchUnit.unresolvedCond(now) >= config.maxUnresolved) {
        advanceTo(branchUnit.oldestCondResolve(), PenaltyKind::BranchFull);
        branchUnit.expire(now);
    }

    Addr line = cache.lineOf(inst.pc);
    if (line != curLine) {
        handleLineAccess<P, PF>(line);
        curLine = line;
    }

    Slot issue = now;
    lastIssue = issue;
    ++stats.instructions;
    now = issue + 1;

    if (inst.cls != InstClass::Plain)
        handleControl<PF>(inst, issue);
}

template <int P, int PF>
void
FetchEngine::fetchPlainRun(Addr pc, uint32_t count)
{
    // No resolve drain here: resolves only mutate predictor state,
    // and plains never read it — the next control instruction drains
    // before any prediction (advanceTo drains on every stall).
    //
    // The run's addresses are consecutive, so its lines are too: the
    // first (possibly partial) line occupancy is computed once, after
    // which stepping a whole line is a single add. The retired count
    // is likewise hoisted to one add per run — nothing below reads
    // stats.instructions, and the batch caps in runLoop guarantee no
    // sampler/adaptive/audit boundary falls inside a batch.
    const Addr line_bytes = cache.lineBytes();
    const uint32_t per_line = static_cast<uint32_t>(line_bytes / kInstBytes);
    stats.instructions += count;
    Addr line = cache.lineOf(pc);
    uint32_t in_line = static_cast<uint32_t>(std::min<uint64_t>(
        count, (line + line_bytes - pc) / kInstBytes));
    for (;;) {
        if (line != curLine) {
            handleLineAccess<P, PF>(line);
            curLine = line;
        }
        // The per-line clock ordering is load-bearing: a probe's stall
        // charges depend on now at probe time, and Decode/Pessimistic
        // miss taxes read lastIssue — both must see exactly the state
        // an instruction-at-a-time fetch would produce.
        now += in_line;
        lastIssue = now - 1;
        count -= in_line;
        if (count == 0)
            break;
        line += line_bytes;
        in_line = count < per_line ? count : per_line;
    }
}

template <int PF>
void
FetchEngine::handleControl(const DynInst &inst, Slot issue)
{
    ++stats.controlInsts;
    bool is_cond = inst.cls == InstClass::CondBranch;
    if (is_cond)
        ++stats.condBranches;

    Prediction pred = predictor.predict(inst.pc, inst.cls);
    BranchOutcome outcome = BranchPredictor::classify(pred, inst);

    // Direct unconditional control is certain once decoded; everything
    // else waits for resolve.
    bool certain_at_decode =
        inst.cls == InstClass::Jump || inst.cls == InstClass::Call;
    Slot decode_done = issue + 1 + config.decodeSlots();
    Slot resolve_done = issue + 1 + config.resolveSlots();
    branchUnit.noteFetch(is_cond,
                         certain_at_decode ? decode_done : resolve_done);

    // Decode-time speculative BTB insertion (predicted-taken only).
    predictor.onDecode(inst.pc, StaticInst{inst.cls, inst.target},
                       pred.taken);
    // Resolve-time PHT / indirect-target training.
    pendingResolves.push_back(PendingResolve{resolve_done, inst});

    Slot window_start = issue + 1;

    switch (outcome) {
      case BranchOutcome::Correct:
        if (inst.taken) {
            if (prefetchArmed<PF>()) {
                prefetcher.trainTarget(cache.lineOf(inst.pc),
                                       cache.lineOf(inst.target));
            }
            curLine = kNoLine;    // the stream moved; re-access
        }
        return;

      case BranchOutcome::Misfetch: {
        ++stats.misfetches;
        // The depth query is only needed when a wrong-path walk can
        // consume further speculation slots — keep it off the
        // correctly-predicted (majority) path.
        size_t unresolved = branchUnit.unresolvedCond(now);
        Slot window_end = window_start + config.decodeSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.decodeSlots());
        // Until decode produces the target, fetch runs down the
        // fall-through path.
        Slot blocked = walker.walk(inst.pc + kInstBytes, window_start,
                                   window_end, unresolved);
        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }

      case BranchOutcome::DirMispredict: {
        ++stats.dirMispredicts;
        size_t unresolved = branchUnit.unresolvedCond(now);
        Slot window_end = window_start + config.resolveSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.resolveSlots());

        Slot blocked = window_end;
        if (pred.taken) {
            if (pred.targetKnown) {
                blocked = walker.walk(pred.target, window_start,
                                      window_end, unresolved);
            } else {
                // Misfetch inside the mispredict: fall-through until
                // decode computes the (wrong) target, then that path.
                Slot mid = std::min(window_end,
                                    window_start + config.decodeSlots());
                Slot phase1 = walker.walk(inst.pc + kInstBytes,
                                          window_start, mid, unresolved);
                Slot start2 = std::max(mid, phase1);
                blocked = phase1;
                if (start2 < window_end) {
                    blocked = walker.walk(inst.target, start2, window_end,
                                          unresolved);
                }
            }
        } else {
            // Predicted not-taken, actually taken: the wrong path is
            // the fall-through.
            blocked = walker.walk(inst.pc + kInstBytes, window_start,
                                  window_end, unresolved);
        }

        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }

      case BranchOutcome::TargetMispredict: {
        ++stats.targetMispredicts;
        Slot window_end = window_start + config.resolveSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.resolveSlots());
        Slot blocked = window_end;
        if (pred.targetKnown) {
            size_t unresolved = branchUnit.unresolvedCond(now);
            blocked = walker.walk(pred.target, window_start, window_end,
                                  unresolved);
        }
        // With no predicted target at all, fetch simply idles until
        // resolve: same penalty, no cache side effects.
        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }
    }
}

template <typename Source, int P, int PF>
SimResults
FetchEngine::runLoop(Source &source)
{
    stats.policy = config.policy;
    stats.prefetch = config.effectivePrefetchKind() != PrefetchKind::None;
    stats.misfetchSlots = static_cast<uint64_t>(config.decodeSlots());
    stats.mispredictSlots = static_cast<uint64_t>(config.resolveSlots());

    const uint64_t warmup = config.warmupInstructions;
    uint64_t retired_warmup = 0;
    DynInst inst;

    // Cooperative watchdog (fault/guard.hh): guarded sweeps arm a
    // per-thread wall-clock/instruction budget, and — since a thread
    // cannot be preempted portably — the run itself must notice
    // expiry. Poll once up front (deterministic for already-expired
    // budgets) and then on a cheap instruction cadence. Unarmed runs
    // pay a single branch per batch.
    const bool watchdog_armed = Watchdog::armed();
    if (watchdog_armed)
        Watchdog::poll(0);
    uint64_t next_watchdog =
        watchdog_armed ? kWatchdogPollInterval : UINT64_MAX;

    // Statically bound for SnapshotReplaySource; the scalar reference
    // instantiation keeps the virtual dispatch.
    // lint: allow(loop-virtual)
    while (retired_warmup < warmup && source.next(inst)) {
        fetchOne<P, PF>(inst);
        ++retired_warmup;
        if (retired_warmup >= next_watchdog) {
            Watchdog::poll(retired_warmup);
            next_watchdog += kWatchdogPollInterval;
        }
    }
    if (warmup > 0) {
        resetStats();
        next_watchdog =
            watchdog_armed ? kWatchdogPollInterval : UINT64_MAX;
    }

    // Interval sampler (src/obs): baseline after the warmup reset so
    // epochs cover exactly the measured region. Disabled runs take the
    // same never-taken branch the watchdog does.
    uint64_t next_sample = UINT64_MAX;
    if (sampler) {
        sampler->begin(stats, now, prefetcher.issuedCount());
        next_sample = sampler->interval();
    }

    // Adaptive decision point (src/adaptive): the selector may change
    // config.policy only at exact multiples of the adaptive interval,
    // counted — like the sampler — from the warmup reset. Epoch 0
    // always runs under the configured base policy.
    uint64_t next_adaptive = UINT64_MAX;
    if (selector) {
        adaptiveTicker->begin(stats, now, prefetcher.issuedCount());
        adaptiveLog.interval = config.adaptiveInterval;
        adaptiveLog.basePolicy = config.policy;
        next_adaptive = config.adaptiveInterval;
    }

    // Paranoid mode audits every checkpointInterval retired
    // instructions; cheap mode audits only at end-of-run.
    uint64_t audit_step = 0;
    if (auditor && config.checkLevel == CheckLevel::Paranoid)
        audit_step = config.checkpointInterval;
    uint64_t next_audit = audit_step ? audit_step : UINT64_MAX;

    const uint64_t budget = config.instructionBudget;
    for (;;) {
        uint64_t room = budget - stats.instructions;
        if (room == 0)
            break;
        // Snapshot replay exposes its plain runs in bulk; burn them
        // through the arithmetic-only fast path instead of one
        // virtual-dispatch + decode round-trip per instruction. Keyed
        // on the concrete type, not on the method: every
        // InstructionSource has takePlainRun, and the scalar reference
        // run(InstructionSource &) must stay one next() per
        // instruction.
        if constexpr (std::is_same_v<Source, SnapshotReplaySource>) {
            Addr run_pc;
            // Cap the batch at the next epoch boundary so the sampler
            // snapshots at exact retired-instruction counts; with
            // sampling off the cap is UINT64_MAX and never binds.
            uint64_t cap = std::min<uint64_t>(room, UINT32_MAX);
            cap = std::min(cap, next_sample - stats.instructions);
            cap = std::min(cap, next_adaptive - stats.instructions);
            uint32_t batch = static_cast<uint32_t>(cap);
            // Statically bound: SnapshotReplaySource is final.
            // lint: allow(loop-virtual)
            uint32_t got = source.takePlainRun(run_pc, batch);
            if (got > 0) {
                fetchPlainRun<P, PF>(run_pc, got);
                if (stats.instructions >= next_sample) {
                    sampler->onBoundary(stats, now,
                                        prefetcher.issuedCount());
                    next_sample += sampler->interval();
                }
                if (stats.instructions >= next_adaptive) {
                    onAdaptiveBoundary();
                    next_adaptive += config.adaptiveInterval;
                }
                if (stats.instructions >= next_audit) {
                    runAudit(false);
                    next_audit += audit_step;
                }
                if (stats.instructions >= next_watchdog) {
                    Watchdog::poll(retired_warmup + stats.instructions);
                    next_watchdog += kWatchdogPollInterval;
                }
                continue;
            }
        }
        // lint: allow(loop-virtual)
        if (!source.next(inst))
            break;
        fetchOne<P, PF>(inst);
        if (stats.instructions >= next_sample) {
            sampler->onBoundary(stats, now, prefetcher.issuedCount());
            next_sample += sampler->interval();
        }
        if (stats.instructions >= next_adaptive) {
            onAdaptiveBoundary();
            next_adaptive += config.adaptiveInterval;
        }
        if (stats.instructions >= next_audit) {
            runAudit(false);
            next_audit += audit_step;
        }
        if (stats.instructions >= next_watchdog) {
            Watchdog::poll(retired_warmup + stats.instructions);
            next_watchdog += kWatchdogPollInterval;
        }
    }

    // Apply any training still due by the final slot so the predictor
    // ends the run in the same state the eager drain schedule left it.
    drainResolves();
    stats.finalSlot = now;
    stats.prefetchesIssued = prefetcher.issuedCount() - prefetchBaseline;
    if (sampler)
        sampler->finish(stats, now, prefetcher.issuedCount());
    if (selector) {
        // Close a final partial epoch (runs whose budget is not a
        // multiple of the interval, or that exhausted their source).
        adaptiveTicker->finish(stats, now, prefetcher.issuedCount());
        const std::vector<EpochRecord> &ticks = adaptiveTicker->epochs();
        if (ticks.size() > adaptiveLog.choices.size()) {
            const EpochRecord &last = ticks.back();
            adaptiveLog.choices.push_back(
                AdaptiveChoice{last.epoch, config.policy,
                               last.firstInstruction,
                               last.lastInstruction});
        }
    }
    runAudit(true);
    return stats;
}

template <typename Source>
SimResults
FetchEngine::runWith(Source &source)
{
    // Resolve the policy and prefetch slots once, here, and enter a
    // runLoop instantiation where both are compile-time constants.
    // The prefetch unit's kind never changes mid-run, so PF is always
    // static; the policy slot must stay dynamic under an adaptive
    // selector, which rewrites config.policy at epoch boundaries.
    const bool pf = prefetcher.enabled();
    if (selector) {
        return pf ? runLoop<Source, kDynamic, 1>(source)
                  : runLoop<Source, kDynamic, 0>(source);
    }
    switch (config.policy) {
      case FetchPolicy::Oracle:
        return pf ? runLoop<Source, pol(FetchPolicy::Oracle), 1>(source)
                  : runLoop<Source, pol(FetchPolicy::Oracle), 0>(source);
      case FetchPolicy::Optimistic:
        return pf ? runLoop<Source, pol(FetchPolicy::Optimistic), 1>(source)
                  : runLoop<Source, pol(FetchPolicy::Optimistic), 0>(source);
      case FetchPolicy::Resume:
        return pf ? runLoop<Source, pol(FetchPolicy::Resume), 1>(source)
                  : runLoop<Source, pol(FetchPolicy::Resume), 0>(source);
      case FetchPolicy::Pessimistic:
        return pf ? runLoop<Source, pol(FetchPolicy::Pessimistic), 1>(source)
                  : runLoop<Source, pol(FetchPolicy::Pessimistic), 0>(source);
      case FetchPolicy::Decode:
        return pf ? runLoop<Source, pol(FetchPolicy::Decode), 1>(source)
                  : runLoop<Source, pol(FetchPolicy::Decode), 0>(source);
    }
    // Unreachable after SimConfig::validate(); the dynamic loop
    // handles anything a future policy enumerator might add.
    return runLoop<Source, kDynamic, kDynamic>(source);
}

SimResults
FetchEngine::run(SnapshotReplaySource &source)
{
    return runWith(source);
}

SimResults
FetchEngine::run(InstructionSource &source)
{
    return runWith(source);
}

} // namespace specfetch
