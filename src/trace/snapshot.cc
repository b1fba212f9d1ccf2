#include "trace/snapshot.hh"

#include <algorithm>

#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

bool
refuse(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

SnapshotEncoder::SnapshotEncoder(InstructionSource &_source,
                                 uint64_t _length, uint32_t max_plain_run)
    : source(_source), length(_length), maxPlainRun(max_plain_run)
{
    panic_if(max_plain_run == 0, "snapshot plain runs cannot be empty");
}

size_t
SnapshotEncoder::encode(TraceSnapshot::ControlRecord *out, size_t capacity)
{
    using ControlRecord = TraceSnapshot::ControlRecord;
    size_t n = 0;
    DynInst inst;
    while (n < capacity) {
        if (ended || count == length) {
            ended = true;
            if (plainRun > 0) {
                out[n++] = ControlRecord{0, plainRun,
                                         TraceSnapshot::kRunOnly, 0, 0};
                plainRun = 0;
            }
            break;
        }
        // Take plains in bulk where the source can, capped so neither
        // the length cut nor run chunking moves; next() covers control
        // instructions and sources without a bulk step.
        uint32_t room = static_cast<uint32_t>(std::min<uint64_t>(
            length - count, maxPlainRun - plainRun));
        Addr pc = 0;
        uint32_t plains = source.takePlainRun(pc, room);
        if (plains == 0) {
            if (!source.next(inst)) {
                ended = true;
                continue;
            }
            pc = inst.pc;
            plains = inst.cls == InstClass::Plain ? 1 : 0;
        }
        // One continuity check per plain run or control instruction.
        if (count == 0) {
            start = pc;
        } else {
            panic_if(pc != expected,
                     "snapshot source is not path-continuous at "
                     "instruction %llu: pc %llx, expected %llx",
                     static_cast<unsigned long long>(count),
                     static_cast<unsigned long long>(pc),
                     static_cast<unsigned long long>(expected));
        }

        if (plains > 0) {
            count += plains;
            expected = pc + static_cast<Addr>(plains) * kInstBytes;
            plainRun += plains;
            if (plainRun == maxPlainRun) {
                out[n++] = ControlRecord{0, maxPlainRun,
                                         TraceSnapshot::kRunOnly, 0, 0};
                plainRun = 0;
            }
        } else {
            ++count;
            expected = inst.nextPc();
            out[n++] = ControlRecord{
                inst.target, plainRun, wireClass(inst.cls),
                static_cast<uint8_t>(inst.taken ? 1 : 0), 0};
            plainRun = 0;
        }
    }
    return n;
}

TraceSnapshot
TraceSnapshot::record(InstructionSource &source, uint64_t length,
                      uint32_t max_plain_run)
{
    SnapshotEncoder encoder(source, length, max_plain_run);
    TraceSnapshot snap;
    // ~20-25% of dynamic instructions are control (paper Table 3), so
    // one record per ~4-5 instructions; reserve for the dense case.
    snap.recs.reserve(static_cast<size_t>(length / 4 + 1));
    const size_t chunk = SnapshotReplaySource::kChunkRecords;
    for (;;) {
        size_t used = snap.recs.size();
        snap.recs.resize(used + chunk);
        size_t got = encoder.encode(snap.recs.data() + used, chunk);
        snap.recs.resize(used + got);
        if (got < chunk)
            break;
    }
    snap.recs.shrink_to_fit();
    snap.start = encoder.startPc();
    snap.count = encoder.instructionCount();
    snap.hash = snap.computeHash();
    return snap;
}

uint64_t
TraceSnapshot::computeHash() const
{
    // Seed the record-bytes digest with the scalar header fields so a
    // flipped start PC or count is as detectable as a flipped record.
    uint64_t seed = hash64(&start, sizeof(start), count);
    return hash64(recs.data(), recs.size() * sizeof(ControlRecord), seed);
}

bool
TraceSnapshot::verify(std::string *error) const
{
    if (count == 0 && recs.empty())
        return true;    // nothing recorded, nothing to corrupt
    uint64_t actual = computeHash();
    if (actual == hash)
        return true;
    return refuse(error,
                  "snapshot content digest mismatch (stored " +
                      hexString(hash) + ", recomputed " +
                      hexString(actual) + ")");
}

bool
TraceSnapshot::validate(std::string *error) const
{
    uint64_t population = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
        const ControlRecord &rec = recs[i];
        bool run_only = rec.cls == kRunOnly;
        if (!run_only &&
            rec.cls > static_cast<uint8_t>(InstClass::IndirectCall)) {
            return refuse(error, "record " + std::to_string(i) +
                                     " carries invalid class " +
                                     std::to_string(rec.cls));
        }
        if (rec.pad != 0) {
            return refuse(error, "record " + std::to_string(i) +
                                     " has nonzero padding");
        }
        population += rec.plainBefore + (run_only ? 0 : 1);
    }
    if (population != count) {
        return refuse(error,
                      "record population " + std::to_string(population) +
                          " != instruction count " + std::to_string(count));
    }
    return true;
}

void
TraceSnapshot::corruptBitForTesting(size_t bitIndex)
{
    panic_if(recs.empty(), "cannot corrupt an empty snapshot");
    size_t byte = (bitIndex / 8) % (recs.size() * sizeof(ControlRecord));
    uint8_t *bytes = reinterpret_cast<uint8_t *>(recs.data());
    bytes[byte] = static_cast<uint8_t>(bytes[byte] ^ (1u << (bitIndex % 8)));
}

SnapshotReplaySource::SnapshotReplaySource(InstructionSource &source,
                                           uint64_t length)
    : encoder(std::in_place, source, length),
      chunk(std::make_unique<TraceSnapshot::ControlRecord[]>(kChunkRecords))
{
    if (refill())
        loadRecord();
    pc = encoder->startPc();
}

bool
SnapshotReplaySource::refill()
{
    if (!encoder)
        return false;
    size_t got = encoder->encode(chunk.get(), kChunkRecords);
    cur = chunk.get();
    end = cur + got;
    return got > 0;
}

} // namespace specfetch
