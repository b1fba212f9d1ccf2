#include "fault/result_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "fault/injector.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

/** One self-checking frame (sans newline): "<crc32 hex> <JSON>". */
std::string
frameLine(const JsonValue &payload)
{
    std::string text = payload.dump();
    return crcHex(crc32(text)) + " " + text;
}

/**
 * Validate one framed line (sans newline) back into @p payload.
 * Returns false with a human-readable @p reason when the line fails
 * its CRC or the checksummed text does not parse.
 */
bool
parseFrameLine(const std::string &line, JsonValue &payload,
               std::string &reason)
{
    if (line.size() < 10 || line[8] != ' ') {
        reason = "malformed framing";
        return false;
    }
    uint32_t stored = 0;
    if (!parseCrcHex(line.substr(0, 8), stored)) {
        reason = "unparsable checksum";
        return false;
    }
    std::string text = line.substr(9);
    if (crc32(text) != stored) {
        reason = "checksum mismatch";
        return false;
    }
    std::string parseError;
    if (!JsonValue::parse(text, payload, &parseError)) {
        reason = "checksummed payload is not JSON: " + parseError;
        return false;
    }
    return true;
}

std::string
joinPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name;
}

std::string
baseFileName(uint64_t generation)
{
    return "base-" + std::to_string(generation) + ".log";
}

std::string
tmpFileName(uint64_t generation)
{
    return "base-" + std::to_string(generation) + ".tmp";
}

std::string
tailFileName(uint64_t generation, uint64_t segment)
{
    return "tail-" + std::to_string(generation) + "-" +
           std::to_string(segment) + ".log";
}

bool
parseAllDigits(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (kMax - digit) / 10)
            return false; // overflows: not a name the store writes
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/** base-<G>.log / base-<G>.tmp */
bool
parseBaseName(const std::string &name, uint64_t &generation, bool &isTmp)
{
    if (name.rfind("base-", 0) != 0)
        return false;
    std::string rest = name.substr(5);
    if (rest.size() > 4 && rest.compare(rest.size() - 4, 4, ".log") == 0) {
        isTmp = false;
    } else if (rest.size() > 4 &&
               rest.compare(rest.size() - 4, 4, ".tmp") == 0) {
        isTmp = true;
    } else {
        return false;
    }
    return parseAllDigits(rest.substr(0, rest.size() - 4), generation);
}

/** tail-<G>-<K>.log */
bool
parseTailName(const std::string &name, uint64_t &generation,
              uint64_t &segment)
{
    if (name.rfind("tail-", 0) != 0)
        return false;
    if (name.size() <= 9 || name.compare(name.size() - 4, 4, ".log") != 0)
        return false;
    std::string body = name.substr(5, name.size() - 9);
    size_t dash = body.find('-');
    if (dash == std::string::npos)
        return false;
    return parseAllDigits(body.substr(0, dash), generation) &&
           parseAllDigits(body.substr(dash + 1), segment);
}

bool
listDirectory(const std::string &dir, std::vector<std::string> &names,
              std::string *error)
{
    DIR *handle = opendir(dir.c_str());
    if (!handle) {
        if (error)
            *error = "cannot list " + dir + ": " + std::strerror(errno);
        return false;
    }
    while (struct dirent *entry = readdir(handle)) {
        std::string name = entry->d_name;
        if (name != "." && name != "..")
            names.push_back(std::move(name));
    }
    closedir(handle);
    return true;
}

/** Make a directory entry change (create/rename/unlink) durable. */
void
syncDirectory(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    fsync(fd);
    ::close(fd);
}

bool
readWholeFile(const std::string &path, std::string &content)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
    return true;
}

std::string
headerFrame(uint64_t generation, uint64_t segment)
{
    JsonValue header = JsonValue::object();
    header.set("schema_version", JsonValue::integer(1))
        .set("generation", JsonValue::integer(generation))
        .set("segment", JsonValue::integer(segment));
    JsonValue payload = JsonValue::object();
    payload.set("store_header", std::move(header));
    return frameLine(payload);
}

std::string
commitFrame(uint64_t records)
{
    JsonValue commit = JsonValue::object();
    commit.set("records", JsonValue::integer(records));
    JsonValue payload = JsonValue::object();
    payload.set("store_commit", std::move(commit));
    return frameLine(payload);
}

std::string
dataFrame(const std::string &key, const JsonValue &record)
{
    JsonValue payload = JsonValue::object();
    payload.set("key", JsonValue::string(key)).set("record", record);
    return frameLine(payload);
}

/**
 * Is this base segment complete — header first, commit last, every
 * line valid, commit count matching? A base is written in one pass and
 * renamed into place, so anything less means bit rot or an impossible
 * interleaving; the caller falls back to an older generation.
 */
bool
baseIsComplete(const std::string &content, uint64_t generation)
{
    size_t start = 0;
    size_t frames = 0;
    uint64_t dataFrames = 0;
    bool sawCommitLast = false;
    uint64_t commitRecords = 0;
    while (start < content.size()) {
        size_t end = content.find('\n', start);
        if (end == std::string::npos)
            return false; // torn tail: a base never ends mid-line
        std::string line = content.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        JsonValue payload;
        std::string reason;
        if (!parseFrameLine(line, payload, reason))
            return false;
        ++frames;
        sawCommitLast = false;
        if (frames == 1) {
            const JsonValue *header = payload.find("store_header");
            if (!header || !header->isObject())
                return false;
            const JsonValue *gen = header->find("generation");
            if (!gen || !gen->isUint() || gen->asUint() != generation)
                return false;
            continue;
        }
        if (const JsonValue *commit = payload.find("store_commit")) {
            const JsonValue *records =
                commit->isObject() ? commit->find("records") : nullptr;
            if (!records || !records->isUint())
                return false;
            commitRecords = records->asUint();
            sawCommitLast = true;
            continue;
        }
        const JsonValue *key = payload.find("key");
        const JsonValue *record = payload.find("record");
        if (!key || !key->isString() || !record || !record->isObject())
            return false;
        ++dataFrames;
    }
    return frames >= 2 && sawCommitLast && commitRecords == dataFrames;
}

} // namespace

ResultStore::~ResultStore()
{
    // Deliberately no clean-shutdown marker: destruction without
    // close() is indistinguishable from a crash, which is exactly what
    // crash tests (and killed sweeps) need.
    closeTail();
}

bool
ResultStore::open(const Options &options, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (opened) {
        if (error)
            *error = "store is already open";
        return false;
    }
    opts = options;
    index.clear();
    state = Stats{};
    maxSeenGeneration = 1;
    nextTailIndex = 1;
    dirty = false;

    if (mkdir(opts.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (error) {
            *error = "cannot create store directory " + opts.dir + ": " +
                     std::strerror(errno);
        }
        return false;
    }
    std::vector<std::string> names;
    if (!listDirectory(opts.dir, names, error))
        return false;

    std::map<uint64_t, std::string> bases;
    std::map<uint64_t, std::map<uint64_t, std::string>> tails;
    bool anyStoreFile = false;
    bool cleanMarker = false;
    for (const std::string &name : names) {
        uint64_t generation = 0;
        uint64_t segment = 0;
        bool isTmp = false;
        if (parseBaseName(name, generation, isTmp)) {
            anyStoreFile = true;
            maxSeenGeneration = std::max(maxSeenGeneration, generation);
            if (isTmp) {
                // An unfinished compaction; the old generation is
                // still authoritative.
                std::remove(joinPath(opts.dir, name).c_str());
            } else {
                bases[generation] = name;
            }
        } else if (parseTailName(name, generation, segment)) {
            anyStoreFile = true;
            maxSeenGeneration = std::max(maxSeenGeneration, generation);
            tails[generation][segment] = name;
        } else if (name == kStoreCleanMarker) {
            cleanMarker = true;
        }
    }
    state.recovered = anyStoreFile && !cleanMarker;
    if (cleanMarker)
        std::remove(joinPath(opts.dir, kStoreCleanMarker).c_str());
    if (state.recovered) {
        warn("result store %s: no clean-shutdown marker; running a "
             "recovery scan",
             opts.dir.c_str());
    }

    // Pick the newest complete base; its generation is authoritative.
    uint64_t generation = 0;
    bool haveCompleteBase = false;
    for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
        std::string content;
        if (readWholeFile(joinPath(opts.dir, it->second), content) &&
            baseIsComplete(content, it->first)) {
            generation = it->first;
            haveCompleteBase = true;
            break;
        }
    }
    if (!haveCompleteBase) {
        // No (intact) compaction yet: the newest generation any file
        // names is live. An incomplete base there is bit rot; load it
        // tolerantly rather than discard everything.
        for (const auto &[gen, name] : bases)
            generation = std::max(generation, gen);
        for (const auto &[gen, segments] : tails)
            generation = std::max(generation, gen);
        if (generation == 0)
            generation = 1;
    }
    state.generation = generation;

    if (bases.count(generation))
        loadSegment(bases[generation], generation, 0, false);
    const auto &liveTails = tails[generation];
    for (auto it = liveTails.begin(); it != liveTails.end(); ++it) {
        bool last = std::next(it) == liveTails.end();
        loadSegment(it->second, generation, it->first, last);
        nextTailIndex = it->first + 1;
    }

    // Older generations are fully contained in the live one; their
    // files are stale and only confuse the next recovery scan.
    std::set<uint64_t> staleGenerations;
    for (const auto &[gen, name] : bases) {
        if (gen < generation) {
            staleGenerations.insert(gen);
            std::remove(joinPath(opts.dir, name).c_str());
        }
    }
    for (const auto &[gen, segments] : tails) {
        if (gen >= generation)
            continue;
        staleGenerations.insert(gen);
        for (const auto &[segment, name] : segments)
            std::remove(joinPath(opts.dir, name).c_str());
    }
    state.staleGenerationsRemoved = staleGenerations.size();
    syncDirectory(opts.dir);

    state.records = index.size();
    opened = true;
    return true;
}

void
ResultStore::loadSegment(const std::string &name,
                         uint64_t expectGeneration, uint64_t expectSegment,
                         bool lastTail)
{
    std::string content;
    std::string path = joinPath(opts.dir, name);
    if (!readWholeFile(path, content)) {
        warn("result store: cannot read segment %s", path.c_str());
        return;
    }
    ++state.segmentsLoaded;

    size_t start = 0;
    size_t lineNumber = 0;
    while (start < content.size()) {
        size_t end = content.find('\n', start);
        bool unterminated = end == std::string::npos;
        std::string line = content.substr(
            start, unterminated ? std::string::npos : end - start);
        start = unterminated ? content.size() : end + 1;
        ++lineNumber;
        if (line.empty())
            continue;

        JsonValue payload;
        std::string reason;
        if (!parseFrameLine(line, payload, reason)) {
            if (unterminated && lastTail) {
                // The crash-mid-append signature: at most the put in
                // flight is lost, exactly as advertised.
                state.tornTail = true;
                warn("result store %s: dropping torn tail line (%s)",
                     name.c_str(), reason.c_str());
            } else {
                quarantineFrame(name, lineNumber, reason, line);
            }
            continue;
        }

        if (const JsonValue *header = payload.find("store_header")) {
            const JsonValue *gen =
                header->isObject() ? header->find("generation") : nullptr;
            const JsonValue *segment =
                header->isObject() ? header->find("segment") : nullptr;
            if (!gen || !gen->isUint() ||
                gen->asUint() != expectGeneration || !segment ||
                !segment->isUint() ||
                segment->asUint() != expectSegment) {
                quarantineFrame(name, lineNumber,
                                "header names another generation/segment",
                                line);
            }
            continue;
        }
        if (payload.find("store_commit"))
            continue;
        const JsonValue *key = payload.find("key");
        const JsonValue *record = payload.find("record");
        if (!key || !key->isString() || !record || !record->isObject()) {
            quarantineFrame(name, lineNumber,
                            "frame lacks a known shape", line);
            continue;
        }
        // First write wins: records are content-addressed, so any
        // duplicate is byte-identical anyway.
        index.emplace(key->asString(), *record);
    }
}

void
ResultStore::quarantineFrame(const std::string &file, size_t lineNumber,
                             const std::string &reason,
                             const std::string &raw)
{
    ++state.corruptFrames;
    warn("result store %s:%zu: quarantining frame (%s)", file.c_str(),
         lineNumber, reason.c_str());
    std::FILE *sidecar =
        std::fopen(joinPath(opts.dir, kStoreQuarantineFile).c_str(), "ab");
    if (!sidecar)
        return;
    JsonValue row = JsonValue::object();
    row.set("file", JsonValue::string(file))
        .set("line", JsonValue::integer(lineNumber))
        .set("reason", JsonValue::string(reason))
        .set("raw", JsonValue::string(raw.substr(0, 160)));
    std::string text = row.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), sidecar);
    std::fclose(sidecar);
}

bool
ResultStore::get(const std::string &key, JsonValue &record) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(key);
    if (it == index.end())
        return false;
    record = it->second;
    return true;
}

bool
ResultStore::writeFrame(std::FILE *file, const std::string &line,
                        bool withNewline)
{
    if (dirty) {
        // Terminate the partial line a failed write left behind so the
        // next frame starts clean (the loader quarantines the stub).
        if (std::fputc('\n', file) == EOF || std::fflush(file) != 0 ||
            fsync(fileno(file)) != 0)
            return false;
        dirty = false;
        tailBytes += 1;
    }
    std::string text = withNewline ? line + "\n" : line;
    size_t wrote = std::fwrite(text.data(), 1, text.size(), file);
    bool ok = wrote == text.size() && std::fflush(file) == 0 &&
              fsync(fileno(file)) == 0;
    tailBytes += wrote;
    return ok;
}

bool
ResultStore::ensureTail(std::string *error)
{
    if (tail && tailBytes >= opts.maxSegmentBytes)
        closeTail();
    if (tail)
        return true;
    std::string name = tailFileName(state.generation, nextTailIndex);
    std::string path = joinPath(opts.dir, name);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        if (error)
            *error = "cannot open segment " + path + ": " +
                     std::strerror(errno);
        return false;
    }
    tail = file;
    tailName = name;
    tailBytes = 0;
    dirty = false;
    ++nextTailIndex;
    if (!writeFrame(tail, headerFrame(state.generation, nextTailIndex - 1),
                    true)) {
        if (error)
            *error = "cannot write segment header of " + path;
        closeTail();
        return false;
    }
    // The file itself must survive a crash, not just its bytes.
    syncDirectory(opts.dir);
    return true;
}

void
ResultStore::closeTail()
{
    if (!tail)
        return;
    std::fclose(tail);
    tail = nullptr;
    tailName.clear();
    tailBytes = 0;
    dirty = false;
}

bool
ResultStore::put(const std::string &key, const JsonValue &record,
                 std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!opened) {
        if (error)
            *error = "store is not open";
        return false;
    }
    if (index.count(key)) {
        ++state.duplicatePuts;
        return true;
    }
    uint64_t ordinal = state.appendAttempts++;
    const FaultInjector *injector = opts.injector;
    if (injector && injector->fires(FaultKind::Enospc, ordinal)) {
        warn("result store: injected ENOSPC on put %llu",
             static_cast<unsigned long long>(ordinal));
        if (error)
            *error = "injected disk full";
        return false;
    }
    if (!ensureTail(error))
        return false;

    std::string line = dataFrame(key, record);
    if (injector && injector->fires(FaultKind::ShortWrite, ordinal)) {
        // Persist a prefix cut mid-JSON, then fail: the torn frame is
        // on disk, the process survives, the next put resyncs.
        writeFrame(tail, line.substr(0, 10 + line.size() / 2), false);
        dirty = true;
        warn("result store: injected short write on put %llu",
             static_cast<unsigned long long>(ordinal));
        if (error)
            *error = "injected short write";
        return false;
    }
    if (injector && injector->fires(FaultKind::Tear, ordinal)) {
        writeFrame(tail, line.substr(0, 10 + line.size() / 2), false);
        warn("injected fault: tearing the store at put %llu",
             static_cast<unsigned long long>(ordinal));
        std::_Exit(kCrashExitCode);
    }
    if (!writeFrame(tail, line, true)) {
        dirty = true;
        if (error)
            *error = "append to " + tailName + " failed: " +
                     std::strerror(errno);
        return false;
    }
    if (injector && injector->fires(FaultKind::Crash, ordinal)) {
        // Die after the durable write, before acknowledging: reopening
        // must serve this record (the client will simply resubmit).
        warn("injected fault: crashing after put %llu",
             static_cast<unsigned long long>(ordinal));
        std::_Exit(kCrashExitCode);
    }
    index.emplace(key, record);
    ++state.records;
    return true;
}

bool
ResultStore::compact(std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!opened) {
        if (error)
            *error = "store is not open";
        return false;
    }
    uint64_t newGeneration = maxSeenGeneration + 1;
    std::string tmpPath = joinPath(opts.dir, tmpFileName(newGeneration));
    std::FILE *file = std::fopen(tmpPath.c_str(), "wb");
    if (!file) {
        if (error)
            *error = "cannot write " + tmpPath + ": " +
                     std::strerror(errno);
        return false;
    }
    auto writeLine = [&](const std::string &line) {
        std::string text = line + "\n";
        return std::fwrite(text.data(), 1, text.size(), file) ==
               text.size();
    };
    bool ok = writeLine(headerFrame(newGeneration, 0));
    for (const auto &[key, record] : index) {
        if (!ok)
            break;
        ok = writeLine(dataFrame(key, record));
    }
    if (ok && opts.testCompactCrash == Options::CompactCrash::BeforeCommit) {
        std::fflush(file);
        fsync(fileno(file));
        warn("injected fault: dying before the compaction commit frame");
        std::_Exit(kCrashExitCode);
    }
    ok = ok && writeLine(commitFrame(index.size()));
    ok = ok && std::fflush(file) == 0 && fsync(fileno(file)) == 0;
    std::fclose(file);
    if (!ok) {
        std::remove(tmpPath.c_str());
        if (error)
            *error = "cannot write " + tmpPath + ": " +
                     std::strerror(errno);
        return false;
    }
    if (opts.testCompactCrash == Options::CompactCrash::BeforeRename) {
        warn("injected fault: dying before the compaction rename");
        std::_Exit(kCrashExitCode);
    }
    std::string basePath = joinPath(opts.dir, baseFileName(newGeneration));
    if (std::rename(tmpPath.c_str(), basePath.c_str()) != 0) {
        std::remove(tmpPath.c_str());
        if (error)
            *error = "cannot rename " + tmpPath + ": " +
                     std::strerror(errno);
        return false;
    }
    syncDirectory(opts.dir);
    if (opts.testCompactCrash == Options::CompactCrash::BeforeCleanup) {
        warn("injected fault: dying before the compaction cleanup");
        std::_Exit(kCrashExitCode);
    }

    // The new base is durable; everything older is now stale.
    closeTail();
    std::vector<std::string> names;
    if (listDirectory(opts.dir, names, nullptr)) {
        for (const std::string &name : names) {
            uint64_t generation = 0;
            uint64_t segment = 0;
            bool isTmp = false;
            bool stale = false;
            if (parseBaseName(name, generation, isTmp))
                stale = isTmp || generation != newGeneration;
            else if (parseTailName(name, generation, segment))
                stale = generation != newGeneration;
            if (stale)
                std::remove(joinPath(opts.dir, name).c_str());
        }
    }
    syncDirectory(opts.dir);

    state.generation = newGeneration;
    maxSeenGeneration = newGeneration;
    nextTailIndex = 1;
    ++state.compactions;
    return true;
}

bool
ResultStore::close(std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!opened)
        return true;
    closeTail();
    std::string path = joinPath(opts.dir, kStoreCleanMarker);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    bool ok = file != nullptr;
    if (file) {
        JsonValue clean = JsonValue::object();
        clean.set("generation", JsonValue::integer(state.generation))
            .set("records", JsonValue::integer(state.records));
        JsonValue payload = JsonValue::object();
        payload.set("clean_shutdown", std::move(clean));
        std::string text = frameLine(payload) + "\n";
        ok = std::fwrite(text.data(), 1, text.size(), file) ==
                 text.size() &&
             std::fflush(file) == 0 && fsync(fileno(file)) == 0;
        std::fclose(file);
    }
    syncDirectory(opts.dir);
    opened = false;
    if (!ok && error)
        *error = "cannot write clean-shutdown marker " + path;
    return ok;
}

size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return index.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return state;
}

void
ResultStore::forEach(
    const std::function<void(const std::string &, const JsonValue &)>
        &visit) const
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[key, record] : index)
        visit(key, record);
}

} // namespace specfetch
