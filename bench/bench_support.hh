/**
 * @file
 * Shared scaffolding for the table/figure regeneration harnesses:
 * budget handling, paper-vs-measured cell formatting, averages, and
 * the component-breakdown (stacked-bar) printer used by the figure
 * harnesses.
 */

#ifndef SPECFETCH_BENCH_BENCH_SUPPORT_HH_
#define SPECFETCH_BENCH_BENCH_SUPPORT_HH_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hh"

#include "bench_main.hh"
#include "core/results.hh"
#include "core/sweep.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace bench {

/** "measured/paper" cell, e.g. "1.83/2.02". */
inline std::string
vsPaper(double measured, double paper_value, int decimals = 2)
{
    return formatFixed(measured, decimals) + "/" +
           formatFixed(paper_value, decimals);
}

namespace detail {
/** Experiment slug set by banner(), consumed by emitTable(). */
inline std::string &
experimentSlug()
{
    static std::string slug = "experiment";
    return slug;
}
inline unsigned &
tableCounter()
{
    static unsigned counter = 0;
    return counter;
}
} // namespace detail

/** Print a harness banner with the experiment identity. */
inline void
banner(const std::string &experiment, const std::string &what,
       const SimConfig &config)
{
    std::string slug;
    for (char c : experiment)
        slug.push_back(c == ' ' ? '_'
                                : static_cast<char>(std::tolower(
                                      static_cast<unsigned char>(c))));
    detail::experimentSlug() = slug;
    detail::tableCounter() = 0;
    std::printf("=== %s: %s ===\n", experiment.c_str(), what.c_str());
    std::printf("machine: %s; budget %s instructions/run\n",
                config.describe().c_str(),
                formatWithCommas(config.instructionBudget).c_str());
    std::printf("cells are measured/paper unless noted\n\n");
}

/**
 * Print a table to stdout and, when SPECFETCH_CSV_DIR is set, also
 * write it as <dir>/<experiment>_<n>.csv for plotting.
 */
inline void
emitTable(const TextTable &table)
{
    std::fputs(table.render().c_str(), stdout);
    const char *dir = std::getenv("SPECFETCH_CSV_DIR");
    if (!dir || !*dir)
        return;
    std::string path = std::string(dir) + "/" +
                       detail::experimentSlug() + "_" +
                       std::to_string(detail::tableCounter()++) + ".csv";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    out << table.renderCsv();
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

/**
 * The Table-4 run of @p benchmark: @p base under Optimistic without
 * prefetching, with the miss classifier armed.
 */
inline RunSpec
classificationSpec(const std::string &benchmark, const SimConfig &base)
{
    RunSpec spec{benchmark, base, true};
    spec.config.policy = FetchPolicy::Optimistic;
    spec.config.nextLinePrefetch = false;
    return spec;
}

/**
 * Table-4 classification of every named profile: one armed runSweep,
 * so each profile's stream is recorded once and the runs share the
 * harness's workers.
 */
inline std::vector<Classification>
classifyProfiles(const std::vector<std::string> &benchmarks,
                 const SimConfig &base)
{
    std::vector<RunSpec> specs;
    for (const std::string &benchmark : benchmarks)
        specs.push_back(classificationSpec(benchmark, base));
    std::vector<RunObservations> observations;
    runSweep(specs, benchMain().parallelism, nullptr, &observations);
    std::vector<Classification> out;
    for (RunObservations &obs : observations)
        out.push_back(std::move(*obs.classification));
    return out;
}

/**
 * Print per-benchmark component breakdowns for a set of policy
 * variants — the textual rendering of the paper's stacked-bar
 * figures. Rows are (benchmark × variant); columns the ISPI
 * components plus the total.
 */
inline void
printBreakdown(const std::vector<std::string> &benchmarks,
               const std::vector<std::pair<std::string, SimConfig>> &variants,
               const char *total_note = nullptr)
{
    std::vector<RunSpec> specs;
    for (const std::string &benchmark : benchmarks)
        for (const auto &[label, config] : variants)
            specs.push_back(RunSpec{benchmark, config});
    std::vector<SimResults> results = runSweepReported(specs);

    TextTable table;
    std::vector<std::string> columns{"program", "variant"};
    for (PenaltyKind kind : allPenaltyKinds())
        columns.push_back(toString(kind));
    columns.push_back("total ISPI");
    table.setColumns(columns);
    table.setAlign(1, TextTable::Align::Left);

    size_t index = 0;
    for (const std::string &benchmark : benchmarks) {
        for (const auto &[label, config] : variants) {
            const SimResults &r = results[index++];
            std::vector<std::string> row{benchmark, label};
            for (PenaltyKind kind : allPenaltyKinds())
                row.push_back(formatFixed(r.ispiOf(kind), 3));
            row.push_back(formatFixed(r.ispi(), 3));
            table.addRow(row);
        }
        if (&benchmark != &benchmarks.back())
            table.addSeparator();
    }
    emitTable(table);
    if (total_note)
        std::printf("\n%s\n", total_note);
}

} // namespace bench
} // namespace specfetch

#endif // SPECFETCH_BENCH_BENCH_SUPPORT_HH_
