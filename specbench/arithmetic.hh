/**
 * @file
 * The benchmark's own arithmetic: order statistics, parallel
 * efficiency and span self time. Kept apart from main.cc so the
 * self-test (selftest.cc) pins exactly the code the reports use.
 */

#ifndef SPECBENCH_ARITHMETIC_HH_
#define SPECBENCH_ARITHMETIC_HH_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace specbench {

/** Median; the mean of the two middle values for an even count. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Nearest-rank percentile: the smallest sample with at least @p p
 * percent of the samples at or below it (p in (0, 100]).
 */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4), the spread statistic the
 * benchmark's stability check uses. Needs at least two samples;
 * a single sample is returned as all three quartiles.
 */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.size() < 2) {
        double v = values.empty() ? 0.0 : values.front();
        return {v, v, v};
    }
    std::sort(values.begin(), values.end());
    // CPython's integer formulation, clamp (and so extrapolation at
    // the ends) included.
    const long n = 4;
    const long count = static_cast<long>(values.size());
    const long m = count + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, count - 1);
        long delta = i * m - j * n;
        out[static_cast<size_t>(i - 1)] =
            (values[static_cast<size_t>(j - 1)] *
                 static_cast<double>(n - delta) +
             values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
            static_cast<double>(n);
    }
    return out;
}

/**
 * Share of the worker-seconds a sweep stage paid for that ran
 * simulations: sum of per-run seconds / (stage wall seconds x
 * threads). 1 means every worker simulated for the whole stage.
 */
inline double
parallelEfficiency(double sumRunSeconds, double stageSeconds,
                   unsigned threads)
{
    double capacity = stageSeconds * static_cast<double>(threads);
    return capacity > 0.0 ? sumRunSeconds / capacity : 0.0;
}

/** A closed-open time interval, seconds from an arbitrary origin. */
using Interval = std::pair<double, double>;

/**
 * Self time of a span: its duration minus the part of it that the
 * union of its children's intervals covers (children clipped to the
 * parent, overlaps counted once).
 */
inline double
selfTime(Interval parent, std::vector<Interval> children)
{
    for (Interval &child : children) {
        child.first = std::max(child.first, parent.first);
        child.second = std::min(child.second, parent.second);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = parent.first;
    for (const Interval &child : children) {
        double start = std::max(child.first, reach);
        if (child.second > start) {
            covered += child.second - start;
            reach = child.second;
        }
    }
    return (parent.second - parent.first) - covered;
}

} // namespace specbench

#endif // SPECBENCH_ARITHMETIC_HH_
