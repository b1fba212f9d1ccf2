#include "stats/histogram.hh"

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

Histogram::Histogram(size_t bucket_count, uint64_t bucket_width)
    : width(bucket_width), bins(bucket_count + 1, 0)
{
    panic_if(bucket_count == 0, "histogram needs at least one bucket");
    panic_if(bucket_width == 0, "histogram bucket width must be positive");
}

void
Histogram::sample(uint64_t value)
{
    sample(value, 1);
}

void
Histogram::sample(uint64_t value, uint64_t n)
{
    if (n == 0)
        return;
    size_t index = static_cast<size_t>(value / width);
    if (index >= bins.size() - 1)
        index = bins.size() - 1;
    bins[index] += n;

    if (total == 0) {
        minSeen = value;
        maxSeen = value;
    } else {
        if (value < minSeen)
            minSeen = value;
        if (value > maxSeen)
            maxSeen = value;
    }
    total += n;
    sumValues += value * n;
}

double
Histogram::mean() const
{
    return total == 0 ? 0.0
                      : static_cast<double>(sumValues) /
                            static_cast<double>(total);
}

uint64_t
Histogram::percentile(double p) const
{
    if (total == 0)
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    uint64_t target = static_cast<uint64_t>(p * static_cast<double>(total));
    uint64_t running = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
        running += bins[i];
        if (running >= target) {
            if (i == bins.size() - 1)
                return maxSeen;
            return (i + 1) * width - 1;
        }
    }
    return maxSeen;
}

std::string
Histogram::render(const std::string &name) const
{
    std::string out = name + ": n=" + std::to_string(total) +
                      " mean=" + formatFixed(mean(), 2) +
                      " min=" + std::to_string(minValue()) +
                      " max=" + std::to_string(maxValue()) + "\n";
    for (size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        std::string label;
        if (i == bins.size() - 1) {
            label = ">=" + std::to_string(i * width);
        } else {
            // Appended piecewise: gcc 12 at -O3 reports a false
            // -Wrestrict on "[" + std::string&&, failing -Werror.
            label = "[";
            label += std::to_string(i * width);
            label += ",";
            label += std::to_string((i + 1) * width);
            label += ")";
        }
        out += "  " + label + ": " + std::to_string(bins[i]) + "\n";
    }
    return out;
}

void
Histogram::reset()
{
    for (auto &b : bins)
        b = 0;
    total = 0;
    sumValues = 0;
    minSeen = 0;
    maxSeen = 0;
}

} // namespace specfetch
