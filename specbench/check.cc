#include "check.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/checksum.hh"

using namespace specfetch;

namespace specbench {

namespace {

constexpr size_t kMaxNotes = 8;

/** Appends "<what>: a != b" to @p problems when the values differ. */
void
expectEqual(std::vector<std::string> &problems, const char *what,
            uint64_t actual, uint64_t expected)
{
    if (actual == expected)
        return;
    char text[160];
    std::snprintf(text, sizeof(text), "%s: %" PRIu64 " != %" PRIu64, what,
                  actual, expected);
    problems.emplace_back(text);
}

uint64_t
sum(const std::vector<uint64_t> &series)
{
    uint64_t total = 0;
    for (uint64_t v : series)
        total += v;
    return total;
}

void
checkEpochs(std::vector<std::string> &problems, const SimResults &r,
            const RunObservations &obs)
{
    const std::vector<EpochRecord> &epochs = obs.epochs;
    if (epochs.empty()) {
        problems.emplace_back("sampling armed but no epochs recorded");
        return;
    }
    EpochRecord total;
    uint64_t next = 0;
    for (size_t k = 0; k < epochs.size(); ++k) {
        const EpochRecord &e = epochs[k];
        bool last = k + 1 == epochs.size();
        expectEqual(problems, "epoch index", e.epoch, k);
        expectEqual(problems, "epoch start", e.firstInstruction, next);
        if (!last)
            expectEqual(problems, "epoch length", e.instructions(),
                        obs.sampleInterval);
        next = e.lastInstruction;
        total.slots += e.slots;
        for (size_t p = 0; p < kNumPenaltyKinds; ++p)
            total.penaltySlots[p] += e.penaltySlots[p];
        total.controlInsts += e.controlInsts;
        total.condBranches += e.condBranches;
        total.misfetches += e.misfetches;
        total.dirMispredicts += e.dirMispredicts;
        total.targetMispredicts += e.targetMispredicts;
        total.demandAccesses += e.demandAccesses;
        total.demandMisses += e.demandMisses;
        total.demandFills += e.demandFills;
        total.bufferHits += e.bufferHits;
        total.wrongAccesses += e.wrongAccesses;
        total.wrongMisses += e.wrongMisses;
        total.wrongFills += e.wrongFills;
        total.prefetchesIssued += e.prefetchesIssued;
    }
    expectEqual(problems, "epochs end", next, r.instructions);
    expectEqual(problems, "epoch slots", total.slots, r.finalSlot);
    for (PenaltyKind kind : allPenaltyKinds())
        expectEqual(problems, "epoch penalty slots",
                    total.penaltySlots[static_cast<size_t>(kind)],
                    r.penalty.slots(kind));
    expectEqual(problems, "epoch control", total.controlInsts,
                r.controlInsts);
    expectEqual(problems, "epoch conditionals", total.condBranches,
                r.condBranches);
    expectEqual(problems, "epoch misfetches", total.misfetches,
                r.misfetches);
    expectEqual(problems, "epoch direction mispredicts",
                total.dirMispredicts, r.dirMispredicts);
    expectEqual(problems, "epoch target mispredicts",
                total.targetMispredicts, r.targetMispredicts);
    expectEqual(problems, "epoch demand accesses", total.demandAccesses,
                r.demandAccesses);
    expectEqual(problems, "epoch demand misses", total.demandMisses,
                r.demandMisses);
    expectEqual(problems, "epoch demand fills", total.demandFills,
                r.demandFills);
    expectEqual(problems, "epoch buffer hits", total.bufferHits,
                r.bufferHits);
    expectEqual(problems, "epoch wrong accesses", total.wrongAccesses,
                r.wrongAccesses);
    expectEqual(problems, "epoch wrong misses", total.wrongMisses,
                r.wrongMisses);
    expectEqual(problems, "epoch wrong fills", total.wrongFills,
                r.wrongFills);
    expectEqual(problems, "epoch prefetches", total.prefetchesIssued,
                r.prefetchesIssued);
}

void
checkHeatmap(std::vector<std::string> &problems, const SimResults &r,
             const SetHeatmap &heatmap)
{
    expectEqual(problems, "heatmap demand accesses",
                sum(heatmap.demandAccesses()), r.demandAccesses);
    expectEqual(problems, "heatmap demand misses",
                sum(heatmap.demandMisses()), r.demandMisses);
    expectEqual(problems, "heatmap wrong accesses",
                sum(heatmap.wrongAccesses()), r.wrongAccesses);
    expectEqual(problems, "heatmap wrong misses",
                sum(heatmap.wrongMisses()), r.wrongMisses);
    expectEqual(problems, "heatmap wrong fills", sum(heatmap.wrongFills()),
                r.wrongFills);
}

void
checkAdaptive(std::vector<std::string> &problems, const SimResults &r,
              const AdaptiveLog &log)
{
    if (log.choices.empty()) {
        problems.emplace_back("adaptive run logged no choices");
        return;
    }
    uint64_t next = 0;
    uint64_t switches = 0;
    for (size_t k = 0; k < log.choices.size(); ++k) {
        const AdaptiveChoice &c = log.choices[k];
        expectEqual(problems, "choice index", c.epoch, k);
        expectEqual(problems, "choice start", c.firstInstruction, next);
        if (k + 1 < log.choices.size())
            expectEqual(problems, "choice length",
                        c.lastInstruction - c.firstInstruction, log.interval);
        if (k > 0 && c.policy != log.choices[k - 1].policy)
            ++switches;
        next = c.lastInstruction;
    }
    expectEqual(problems, "choices end", next, r.instructions);
    expectEqual(problems, "switch count", log.switches, switches);
    expectEqual(problems, "first choice is the base policy",
                static_cast<uint64_t>(log.choices.front().policy),
                static_cast<uint64_t>(log.basePolicy));
}

} // namespace

bool
OutputCheck::finish(const std::vector<std::string> &problems,
                    const std::string &what)
{
    ++attemptedRuns;
    if (problems.empty())
        return true;
    ++failedRuns;
    if (notes.size() < kMaxNotes)
        notes.push_back(what + ": " + problems.front());
    return false;
}

bool
OutputCheck::run(const SimResults &r, const SimConfig &config,
                 const RunObservations *obs)
{
    std::vector<std::string> problems;
    expectEqual(problems, "retired instructions", r.instructions,
                config.instructionBudget);
    expectEqual(problems, "instructions + penalty slots",
                r.instructions + r.penalty.totalSlots(), r.finalSlot);
    double components = 0.0;
    for (PenaltyKind kind : allPenaltyKinds())
        components += r.ispiOf(kind);
    if (std::fabs(components - r.ispi()) > 1e-9 * std::fmax(1.0, r.ispi()))
        problems.emplace_back("ISPI components do not sum to the total");
    if (config.sampleInterval > 0) {
        if (obs)
            checkEpochs(problems, r, *obs);
        else
            problems.emplace_back("sampled run without observations");
    }
    if (config.setHeatmap) {
        if (obs && obs->heatmap)
            checkHeatmap(problems, r, *obs->heatmap);
        else
            problems.emplace_back("heatmap armed but missing");
    }
    if (config.adaptiveSelector != SelectorKind::Off) {
        if (obs)
            checkAdaptive(problems, r, obs->adaptive);
        else
            problems.emplace_back("adaptive run without observations");
    }
    return finish(problems, r.workload + " " + toString(r.policy));
}

bool
OutputCheck::classification(const Classification &c, const SimResults &timed,
                            const SimConfig &config)
{
    std::vector<std::string> problems;
    expectEqual(problems, "classified instructions", c.instructions,
                config.instructionBudget);
    expectEqual(problems, "timed run instructions", timed.instructions,
                config.instructionBudget);
    expectEqual(problems, "both_miss + spec_pollute",
                c.bothMiss + c.specPollute, timed.demandMisses);
    expectEqual(problems, "wrong_path", c.wrongPath, timed.wrongFills);
    expectEqual(problems, "optimistic misses", c.optimisticMisses(),
                timed.memoryTransactions());
    expectEqual(problems, "classifier ISPI clock",
                timed.instructions + timed.penalty.totalSlots(),
                timed.finalSlot);
    return finish(problems, c.workload + " classification");
}

void
OutputCheck::failBatch(uint64_t runs, const std::string &why)
{
    failedRuns += runs;
    if (notes.size() < kMaxNotes)
        notes.push_back(why);
}

void
Digest::add(uint64_t value)
{
    state = hash64(&value, sizeof(value), state);
}

void
Digest::addBytes(const void *data, size_t size)
{
    state = hash64(data, size, state);
}

void
Digest::add(const SimResults &r)
{
    const uint64_t fields[] = {
        static_cast<uint64_t>(r.policy), r.prefetch, r.instructions,
        static_cast<uint64_t>(r.finalSlot), r.controlInsts, r.condBranches,
        r.misfetches, r.dirMispredicts, r.targetMispredicts,
        r.demandAccesses, r.demandMisses, r.demandFills, r.bufferHits,
        r.wrongAccesses, r.wrongMisses, r.wrongFills, r.prefetchesIssued};
    addBytes(r.workload.data(), r.workload.size());
    addBytes(fields, sizeof(fields));
    for (PenaltyKind kind : allPenaltyKinds())
        add(r.penalty.slots(kind));
}

void
Digest::add(const Classification &c)
{
    const uint64_t fields[] = {c.instructions, c.bothMiss, c.specPollute,
                               c.specPrefetch, c.wrongPath};
    addBytes(fields, sizeof(fields));
}

void
Digest::add(const RunObservations &obs)
{
    add(obs.epochs.size());
    for (const EpochRecord &e : obs.epochs) {
        const uint64_t fields[] = {
            e.epoch, e.firstInstruction, e.lastInstruction, e.slots,
            e.controlInsts, e.condBranches, e.misfetches, e.dirMispredicts,
            e.targetMispredicts, e.demandAccesses, e.demandMisses,
            e.demandFills, e.bufferHits, e.wrongAccesses, e.wrongMisses,
            e.wrongFills, e.prefetchesIssued, e.partial};
        addBytes(fields, sizeof(fields));
        addBytes(e.penaltySlots, sizeof(e.penaltySlots));
    }
    if (obs.heatmap) {
        const SetHeatmap &h = *obs.heatmap;
        for (const std::vector<uint64_t> *series :
             {&h.demandAccesses(), &h.demandMisses(), &h.correctFills(),
              &h.wrongAccesses(), &h.wrongMisses(), &h.wrongFills(),
              &h.evictionsByCorrect(), &h.evictionsByWrong()}) {
            addBytes(series->data(), series->size() * sizeof(uint64_t));
        }
    }
    add(obs.adaptive.switches);
    for (const AdaptiveChoice &c : obs.adaptive.choices) {
        const uint64_t fields[] = {c.epoch, static_cast<uint64_t>(c.policy),
                                   c.firstInstruction, c.lastInstruction};
        addBytes(fields, sizeof(fields));
    }
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016" PRIx64, state);
    return text;
}

bool
digestFile(const std::string &path, std::string &hexOut)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    Digest digest;
    std::vector<char> buffer(1 << 20);
    while (in) {
        in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        std::streamsize got = in.gcount();
        if (got > 0)
            digest.addBytes(buffer.data(), static_cast<size_t>(got));
    }
    hexOut = digest.hex();
    return true;
}

} // namespace specbench
