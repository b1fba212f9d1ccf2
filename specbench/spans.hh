/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * recorded from the benchmark's own code around each call into a
 * specfetch layer, kept in memory, and written out as one Chrome
 * trace-event document when the run ends. Single-threaded: only the
 * main thread records (the sweep's worker threads never see it).
 */

#ifndef SPECBENCH_SPANS_HH_
#define SPECBENCH_SPANS_HH_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arithmetic.hh"

namespace specbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        /** Layer the span's self time is charged to. */
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        /** Index of the enclosing span; -1 for a root. */
        long parent = -1;
    };

    /** Seconds since the tracer was created. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    /** Open a span under the innermost open one; returns its id. */
    long
    open(const std::string &name, const std::string &layer)
    {
        spans.push_back(Span{name, layer, now(), 0.0, innermost()});
        stack.push_back(static_cast<long>(spans.size()) - 1);
        return stack.back();
    }

    /** Close the innermost open span (which must be @p id). */
    void
    close(long id)
    {
        spans[static_cast<size_t>(id)].end = now();
        stack.pop_back();
    }

    /**
     * Add an already-measured child of the innermost open span, for
     * stages a callee timed itself (runSweep's SweepTiming).
     */
    void
    addChild(const std::string &name, const std::string &layer,
             double start, double end)
    {
        spans.push_back(Span{name, layer, start, end, innermost()});
    }

    const std::vector<Span> &all() const { return spans; }

    /** Self time summed per layer over @p root and its descendants. */
    std::map<std::string, double>
    selfTimeByLayer(long root) const
    {
        std::vector<std::vector<Interval>> children(spans.size());
        std::vector<bool> inTree(spans.size(), false);
        for (size_t i = static_cast<size_t>(root); i < spans.size(); ++i) {
            const Span &span = spans[i];
            inTree[i] = static_cast<long>(i) == root ||
                (span.parent >= 0 && inTree[static_cast<size_t>(span.parent)]);
            if (inTree[i] && span.parent >= 0)
                children[static_cast<size_t>(span.parent)].push_back(
                    {span.start, span.end});
        }
        std::map<std::string, double> out;
        for (size_t i = static_cast<size_t>(root); i < spans.size(); ++i) {
            if (inTree[i])
                out[spans[i].layer] += selfTime({spans[i].start, spans[i].end},
                                                children[i]);
        }
        return out;
    }

    /** Write every span as a Chrome trace-event document. */
    bool
    writeChrome(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::fprintf(out, "{\"traceEvents\":[");
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(out,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                         "\"args\":{\"id\":%zu,\"parent\":%ld}}",
                         i ? "," : "", s.name.c_str(), s.layer.c_str(),
                         s.start * 1e6, (s.end - s.start) * 1e6, i,
                         s.parent);
        }
        std::fprintf(out, "\n]}\n");
        return std::fclose(out) == 0;
    }

  private:
    long innermost() const { return stack.empty() ? -1 : stack.back(); }

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> spans;
    std::vector<long> stack;
};

/** RAII span; a null tracer (the untraced run) records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name, const std::string &layer)
        : tracer(t), id(t ? t->open(name, layer) : -1)
    {
    }
    ~Scope()
    {
        if (tracer)
            tracer->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    long id;
};

} // namespace specbench

#endif // SPECBENCH_SPANS_HH_
