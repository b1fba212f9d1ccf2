/**
 * @file
 * Trace file reader.
 */

#ifndef SPECFETCH_TRACE_READER_HH_
#define SPECFETCH_TRACE_READER_HH_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program_image.hh"
#include "workload/executor.hh"

namespace specfetch {

/**
 * Loads a trace file's program image eagerly and decodes the dynamic
 * stream incrementally.
 *
 * Trace bytes are untrusted: every read is bounds-checked, declared
 * sizes are validated against the file itself before any allocation,
 * and malformed input raises TraceError (trace/format.hh) — from the
 * constructor for header/image damage, from next() for stream damage.
 * The engine consumes a trace through a streaming SnapshotReplaySource.
 */
class TraceReader : public InstructionSource
{
  public:
    /** @throws TraceError on an unreadable or malformed file. */
    explicit TraceReader(const std::string &path);
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** The static image stored in the trace. */
    const ProgramImage &image() const { return *img; }

    /** First dynamic PC. */
    Addr startPc() const { return start; }

    /**
     * Decode the next record; false at end of trace.
     * @throws TraceError on a corrupt or truncated record.
     */
    bool next(DynInst &out) override;

    uint64_t recordsRead() const { return records; }

  private:
    void parse(const std::string &path);
    bool refill();
    bool readByte(uint8_t &byte);
    bool readVarint(uint64_t &value);

    std::FILE *file = nullptr;
    std::vector<uint8_t> buffer;
    size_t bufPos = 0;
    size_t bufLen = 0;

    std::unique_ptr<ProgramImage> img;
    Addr start = 0;
    Addr nextPc = 0;
    uint64_t pendingPlain = 0;
    uint64_t records = 0;
};

} // namespace specfetch

#endif // SPECFETCH_TRACE_READER_HH_
