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
    for (;;) {
        Block block(kChunkRecords);
        size_t got = encoder.encode(block.data(), kChunkRecords);
        if (got == 0)
            break;
        block.resize(got);
        snap.chunks.push_back(std::move(block));
        if (got < kChunkRecords)
            break;
    }
    snap.start = encoder.startPc();
    snap.count = encoder.instructionCount();
    snap.hash = snap.computeHash();
    return snap;
}

uint64_t
TraceSnapshot::computeHash() const
{
    // Seed the record-bytes digest with the scalar header fields so a
    // flipped start PC or count is as detectable as a flipped record,
    // then chain it through the blocks in order.
    uint64_t digest = hash64(&start, sizeof(start), count);
    for (const Block &block : chunks)
        digest = hash64(block.data(), block.size() * sizeof(ControlRecord),
                        digest);
    return digest;
}

bool
TraceSnapshot::verify(std::string *error) const
{
    if (count == 0 && chunks.empty())
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
    size_t i = 0;
    for (const Block &block : chunks) {
        for (const ControlRecord &rec : block) {
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
            ++i;
        }
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
    panic_if(chunks.empty(), "cannot corrupt an empty snapshot");
    // Every block but the last is full, so the byte's block is a
    // division away.
    const size_t blockBytes = kChunkRecords * sizeof(ControlRecord);
    size_t byte = (bitIndex / 8) % byteSize();
    uint8_t *bytes =
        reinterpret_cast<uint8_t *>(chunks[byte / blockBytes].data());
    uint8_t &target = bytes[byte % blockBytes];
    target = static_cast<uint8_t>(target ^ (1u << (bitIndex % 8)));
}

SnapshotReplaySource::SnapshotReplaySource(InstructionSource &source,
                                           uint64_t length)
    : encoder(std::in_place, source, length),
      chunk(std::make_unique<TraceSnapshot::ControlRecord[]>(
          TraceSnapshot::kChunkRecords))
{
    if (refill())
        loadRecord();
    pc = encoder->startPc();
}

bool
SnapshotReplaySource::refill()
{
    size_t got = 0;
    if (shared) {
        if (nextBlock == shared->blocks().size())
            return false;
        const TraceSnapshot::Block &block = shared->blocks()[nextBlock++];
        cur = block.data();
        got = block.size();
    } else if (encoder) {
        cur = chunk.get();
        got = encoder->encode(chunk.get(), TraceSnapshot::kChunkRecords);
    }
    end = cur + got;
    return got > 0;
}

} // namespace specfetch
