/**
 * @file
 * Chrome trace_event span recording (DESIGN.md §11).
 *
 * TraceEventSink collects "X" (complete) events in the Chrome
 * trace-event JSON format and writes one `{"traceEvents": [...]}`
 * document on close, loadable in Perfetto or about:tracing. Spans are
 * recorded with the real thread id (mapped to a small stable integer)
 * so the parallel sweep executor's lanes show up as separate tracks.
 *
 * This is the one observability output that carries wall-clock
 * timestamps; everything else (timeseries, heatmap, run records) must
 * stay deterministic. The sink is a process global so any layer —
 * fetch engine, sweep executor, fault guard — can drop spans without
 * plumbing; when no trace file was requested the enabled check is a
 * single relaxed atomic load and TraceSpan never touches the clock.
 */

#ifndef SPECFETCH_OBS_TRACE_EVENT_HH_
#define SPECFETCH_OBS_TRACE_EVENT_HH_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace specfetch {

/** Process-wide collector of Chrome trace-event spans. */
class TraceEventSink
{
  public:
    /** The singleton every TraceSpan reports to. */
    static TraceEventSink &global();

    /** Start collecting; spans are buffered until close(). */
    void open(const std::string &path);

    bool
    enabled() const
    {
        return isEnabled.load(std::memory_order_relaxed);
    }

    /**
     * Record one complete span. @p begin/@p end are steady-clock
     * points; @p detail is an optional human argument (empty = none).
     * No-op when the sink is not open.
     */
    void recordSpan(const char *name, const char *category,
                    std::chrono::steady_clock::time_point begin,
                    std::chrono::steady_clock::time_point end,
                    const std::string &detail);

    /**
     * Write the buffered document to the path given to open() and
     * stop collecting. Returns false (with a warning) when the file
     * cannot be written. Safe to call when never opened.
     */
    bool close();

    /** Spans buffered so far (tests). */
    size_t pendingSpans();

  private:
    TraceEventSink() = default;

    uint64_t tidOf(std::thread::id id);

    struct Span
    {
        std::string name;
        std::string category;
        std::string detail;
        uint64_t tid = 0;
        uint64_t startMicros = 0;
        uint64_t durationMicros = 0;
    };

    std::atomic<bool> isEnabled{false};
    std::mutex mutex;
    std::string outPath;
    std::chrono::steady_clock::time_point origin;
    // SPECFETCH-ALLOW(unordered): observability-only thread-id interning, mutex-guarded, never ordered into results
    std::unordered_map<std::thread::id, uint64_t> tids;
    std::vector<Span> spans;
};

/**
 * RAII span: times its own scope and reports to the global sink. When
 * tracing is off, construction is one relaxed load and nothing else.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *category,
              std::string detail = {})
        : spanName(name), spanCategory(category),
          spanDetail(std::move(detail)),
          active(TraceEventSink::global().enabled())
    {
        if (active)
            begin = std::chrono::steady_clock::now();
    }

    ~TraceSpan()
    {
        if (active) {
            TraceEventSink::global().recordSpan(
                spanName, spanCategory, begin,
                std::chrono::steady_clock::now(), spanDetail);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *spanName;
    const char *spanCategory;
    std::string spanDetail;
    bool active = false;
    std::chrono::steady_clock::time_point begin;
};

} // namespace specfetch

#endif // SPECFETCH_OBS_TRACE_EVENT_HH_
