#include "obs/trace_event.hh"

#include <fstream>

#include "report/json.hh"
#include "util/logging.hh"

namespace specfetch {

TraceEventSink &
TraceEventSink::global()
{
    // SPECFETCH-ALLOW(shared-state): Meyers singleton; the sink serializes all access behind its own mutex
    static TraceEventSink sink;
    return sink;
}

void
TraceEventSink::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex);
    outPath = path;
    origin = std::chrono::steady_clock::now();
    spans.clear();
    tids.clear();
    isEnabled.store(true, std::memory_order_relaxed);
}

uint64_t
TraceEventSink::tidOf(std::thread::id id)
{
    // Caller holds the mutex. Small stable integers beat the raw
    // std::thread::id hash in the Perfetto track list.
    auto it = tids.find(id);
    if (it != tids.end())
        return it->second;
    uint64_t tid = tids.size() + 1;
    tids.emplace(id, tid);
    return tid;
}

void
TraceEventSink::recordSpan(const char *name, const char *category,
                           std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end,
                           const std::string &detail)
{
    using std::chrono::duration_cast;
    using std::chrono::microseconds;

    std::lock_guard<std::mutex> lock(mutex);
    if (!isEnabled.load(std::memory_order_relaxed))
        return;
    Span span;
    span.name = name;
    span.category = category;
    span.detail = detail;
    span.tid = tidOf(std::this_thread::get_id());
    // Clamp rather than underflow if a span started before open().
    span.startMicros = begin < origin
        ? 0
        : static_cast<uint64_t>(
              duration_cast<microseconds>(begin - origin).count());
    span.durationMicros = end < begin
        ? 0
        : static_cast<uint64_t>(
              duration_cast<microseconds>(end - begin).count());
    spans.push_back(std::move(span));
}

size_t
TraceEventSink::pendingSpans()
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

bool
TraceEventSink::close()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!isEnabled.load(std::memory_order_relaxed))
        return true;
    isEnabled.store(false, std::memory_order_relaxed);

    JsonValue events = JsonValue::array();
    for (const Span &span : spans) {
        JsonValue event = JsonValue::object();
        event.set("name", JsonValue::string(span.name))
            .set("cat", JsonValue::string(span.category))
            .set("ph", JsonValue::string("X"))
            .set("ts", JsonValue::integer(span.startMicros))
            .set("dur", JsonValue::integer(span.durationMicros))
            .set("pid", JsonValue::integer(1))
            .set("tid", JsonValue::integer(span.tid));
        if (!span.detail.empty()) {
            JsonValue args = JsonValue::object();
            args.set("detail", JsonValue::string(span.detail));
            event.set("args", std::move(args));
        }
        events.push(std::move(event));
    }
    JsonValue document = JsonValue::object();
    document.set("traceEvents", std::move(events))
        .set("displayTimeUnit", JsonValue::string("ms"));

    std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("cannot write trace file '%s'", outPath.c_str());
        spans.clear();
        return false;
    }
    out << document.dump() << "\n";
    bool ok = static_cast<bool>(out);
    spans.clear();
    if (!ok)
        warn("short write to trace file '%s'", outPath.c_str());
    return ok;
}

} // namespace specfetch
