/**
 * @file
 * Persistent content-addressed result store (DESIGN.md §10): the one
 * durable log behind the fault-tolerant sweep. Records are keyed by
 * sweepRunKey (benchmark:hash64(config)). On disk a store is a
 * directory:
 *
 *   base-<G>.log       compacted snapshot of generation G: a header
 *                      frame, one data frame per record (key-sorted),
 *                      and a trailing commit frame naming the count.
 *   tail-<G>-<K>.log   append segment K of generation G: a header
 *                      frame then data frames, fsync'd per append.
 *   base-<G>.tmp       in-progress compaction; deleted on open.
 *   quarantine.jsonl   sidecar of frames dropped at open (file, line,
 *                      reason, raw prefix) — corruption is preserved
 *                      for forensics, never silently discarded.
 *   CLEAN              clean-shutdown marker written by close() and
 *                      deleted at open; its absence means the previous
 *                      process died and this open is a recovery scan.
 *
 * <G> and <K> are decimal uint64 values; a name whose number overflows
 * is not a store file. Every frame is one self-checking text line:
 *
 *   <crc32 hex, 8 chars> <compact JSON>
 *
 * where the CRC covers the JSON text, so `tools/store_fsck.py` and a
 * human with `less` both understand a store. Durability rules:
 *
 *   - put() returns only after the record is fsync'd. A crash at any
 *     instant loses at most the put in flight.
 *   - A torn final line of the newest tail is dropped at open (the
 *     crash-mid-append signature); any other unparseable frame is
 *     quarantined and skipped.
 *   - Compaction is generation-stamped and crash-safe at every step:
 *     the new base is written to a .tmp, fsync'd, atomically renamed,
 *     and only then are the old generation's files unlinked. A crash
 *     between any two steps leaves either the old generation intact
 *     or the new one complete — never a mix, never data loss.
 *
 * Thread-safe; one writer mutex serializes mutation (the simulations
 * the store memoizes cost milliseconds, the store microseconds).
 */

#ifndef SPECFETCH_FAULT_RESULT_STORE_HH_
#define SPECFETCH_FAULT_RESULT_STORE_HH_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "report/json.hh"

namespace specfetch {

class FaultInjector;

class ResultStore
{
  public:
    struct Options
    {
        /** Store directory; created when missing. */
        std::string dir;
        /** Rotate the append tail past this many bytes. */
        uint64_t maxSegmentBytes = 4 * 1024 * 1024;
        /**
         * Borrowed fault hooks consulted on every put (ordinal = put
         * attempt): shortwrite@N persists a torn frame then fails,
         * enospc@N fails without writing, tear@N tears and _Exit()s,
         * crash@N dies after the durable write but before the ack.
         */
        const FaultInjector *injector = nullptr;

        /** Test-only: die mid-compaction at a chosen step. */
        enum class CompactCrash : uint8_t
        {
            None,
            BeforeCommit,  ///< tmp written, commit frame missing
            BeforeRename,  ///< tmp complete, rename not yet done
            BeforeCleanup, ///< renamed, old generation not yet removed
        };
        CompactCrash testCompactCrash = CompactCrash::None;
    };

    struct Stats
    {
        uint64_t records = 0;        ///< keys in the index
        uint64_t generation = 1;     ///< current compaction generation
        uint64_t segmentsLoaded = 0; ///< store files scanned at open
        uint64_t corruptFrames = 0;  ///< frames quarantined at open
        uint64_t duplicatePuts = 0;  ///< puts satisfied by the index
        uint64_t appendAttempts = 0; ///< put ordinals consumed
        uint64_t compactions = 0;    ///< successful compact() calls
        /** Distinct stale generations whose files open() removed. */
        uint64_t staleGenerationsRemoved = 0;
        bool tornTail = false;       ///< open dropped a torn tail line
        bool recovered = false;      ///< open found no CLEAN marker
    };

    ResultStore() = default;
    /** Closes the tail file without writing the clean-shutdown marker
     *  (destruction without close() models a crash). */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open (or create) the store at @p options.dir, rebuilding the
     * in-memory index by scanning segments. Returns false only when
     * the directory itself is unusable; corruption inside it is
     * tolerated, quarantined, and reported through stats().
     */
    bool open(const Options &options, std::string *error = nullptr);

    bool isOpen() const { return opened; }

    /** Fetch the record stored under @p key. */
    bool get(const std::string &key, JsonValue &record) const;

    /**
     * Durably append one record. Returns true once the record is
     * fsync'd (or was already present — duplicate puts are free hits).
     * Returns false with @p error when the write failed; the store
     * stays usable and the next append resyncs the segment.
     */
    bool put(const std::string &key, const JsonValue &record,
             std::string *error = nullptr);

    /**
     * Fold base + tails into a fresh generation-stamped base. Safe to
     * crash at any step; see the file comment for the protocol.
     */
    bool compact(std::string *error = nullptr);

    /**
     * Flush, write the clean-shutdown marker, and close. Reopening
     * after close() is not a recovery scan.
     */
    bool close(std::string *error = nullptr);

    size_t size() const;
    Stats stats() const;

    /** Visit every (key, record) pair, in key order. */
    void forEach(
        const std::function<void(const std::string &key,
                                 const JsonValue &record)> &visit) const;

  private:
    bool ensureTail(std::string *error);
    void closeTail();
    bool writeFrame(std::FILE *file, const std::string &line,
                    bool withNewline);
    void quarantineFrame(const std::string &file, size_t lineNumber,
                         const std::string &reason, const std::string &raw);
    void loadSegment(const std::string &name, uint64_t expectGeneration,
                     uint64_t expectSegment, bool lastTail);

    mutable std::mutex mutex;
    Options opts;
    bool opened = false;
    std::map<std::string, JsonValue> index;
    Stats state;
    /** Highest generation any store file ever named; the next
     *  compaction stamps maxSeenGeneration + 1 so a stale higher-
     *  numbered file can never shadow fresh data. */
    uint64_t maxSeenGeneration = 1;
    uint64_t nextTailIndex = 1;
    std::FILE *tail = nullptr;
    std::string tailName;
    uint64_t tailBytes = 0;
    /** A failed write may have left a partial line; resync first. */
    bool dirty = false;
};

/** The marker filename (exposed for tests and fsck). */
constexpr const char *kStoreCleanMarker = "CLEAN";
/** The quarantine sidecar filename. */
constexpr const char *kStoreQuarantineFile = "quarantine.jsonl";

} // namespace specfetch

#endif // SPECFETCH_FAULT_RESULT_STORE_HH_
