/**
 * @file
 * Regenerates paper Table 4: categorization of misses into Both Miss,
 * Spec Pollute, Spec Prefetch, and Wrong Path (percent of
 * instructions), plus the Optimistic/Oracle traffic ratio.
 */

#include <cstdio>

#include "bench_support.hh"
#include "paper_data.hh"

using namespace specfetch;
using namespace specfetch::bench;

int
main(int argc, char **argv)
{
    if (!benchMain().parse(argc, argv, "table4_miss_classification",
                           "miss-ratio categorization "
                           "(Oracle vs Optimistic)")) {
        return parseExitCode();
    }
    SimConfig config;
    config.instructionBudget = benchMain().budget;
    banner("Table 4", "miss-ratio categorization (Oracle vs Optimistic)",
           config);

    TextTable table;
    table.setColumns({"Program", "BM", "SPo", "SPr", "WP", "TR"});

    std::vector<double> bm, spo, spr, wp, tr;
    const auto &names = benchmarkNames();
    std::vector<Classification> classifications =
        classifyProfiles(names, config);
    for (size_t i = 0; i < names.size(); ++i) {
        const Classification &c = classifications[i];
        if (benchMain().exporting())
            benchMain().emit(makeClassificationRecord(c, config));
        const paper::Table4Row &p = paper::kTable4[i];

        bm.push_back(c.bothMissPercent());
        spo.push_back(c.specPollutePercent());
        spr.push_back(c.specPrefetchPercent());
        wp.push_back(c.wrongPathPercent());
        tr.push_back(c.trafficRatio());

        table.addRow({names[i],
                      vsPaper(c.bothMissPercent(), p.bothMiss),
                      vsPaper(c.specPollutePercent(), p.specPollute),
                      vsPaper(c.specPrefetchPercent(), p.specPrefetch),
                      vsPaper(c.wrongPathPercent(), p.wrongPath),
                      vsPaper(c.trafficRatio(), p.trafficRatio)});
    }
    table.addSeparator();
    table.addRow({"Average", vsPaper(mean(bm), 2.87),
                  vsPaper(mean(spo), 0.32), vsPaper(mean(spr), 0.83),
                  vsPaper(mean(wp), 1.87), vsPaper(mean(tr), 1.36)});
    emitTable(table);

    std::printf("\nshape check: prefetch effect beats pollution "
                "(SPr > SPo on average): %s\n",
                mean(spr) > mean(spo) ? "yes" : "NO");
    return 0;
}
