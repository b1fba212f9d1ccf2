/**
 * @file
 * Tests for the Table 4 miss classifier: hand-built pollution and
 * prefetch scenarios plus the paper's accounting identities.
 */

#include <gtest/gtest.h>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace {

Workload
benchWorkload(const std::string &name)
{
    return buildWorkload(getProfile(name));
}

SimConfig
smallConfig()
{
    SimConfig config;
    config.instructionBudget = 300'000;
    return config;
}

TEST(MissClassifier, IdentityOracleMissesMatchOraclePolicyRun)
{
    // BM + SPr is the oracle shadow's miss count. A real
    // Oracle-policy run sees the same correct-path instruction stream
    // but slightly different redirect timing (stall patterns shift
    // when the non-speculative PHT resolves relative to fetch), so
    // the counts agree closely but not bit-exactly.
    Workload w = benchWorkload("li");
    SimConfig config = smallConfig();
    Classification c = classifyMisses(w, config);

    config.policy = FetchPolicy::Oracle;
    SimResults oracle = runSimulation(w, config);

    EXPECT_EQ(c.instructions, oracle.instructions);
    double rel = std::abs(static_cast<double>(c.oracleMisses()) -
                          static_cast<double>(oracle.demandMisses)) /
                 static_cast<double>(oracle.demandMisses);
    EXPECT_LT(rel, 0.02);
}

TEST(MissClassifier, IdentityOptimisticMissesMatchOptimisticRun)
{
    Workload w = benchWorkload("li");
    SimConfig config = smallConfig();
    Classification c = classifyMisses(w, config);

    config.policy = FetchPolicy::Optimistic;
    SimResults optimistic = runSimulation(w, config);

    // BM + SPo = Optimistic's correct-path misses; WP = its serviced
    // wrong-path misses. Same engine, same seed: exact.
    EXPECT_EQ(c.bothMiss + c.specPollute, optimistic.demandMisses);
    EXPECT_EQ(c.wrongPath, optimistic.wrongFills);
}

TEST(MissClassifier, PrefetchEffectDominatesPollution)
{
    // Paper Table 4: for every benchmark Spec Prefetch > Spec Pollute.
    for (const char *name : {"gcc", "groff", "li"}) {
        Classification c =
            classifyMisses(benchWorkload(name), smallConfig());
        EXPECT_GT(c.specPrefetch, c.specPollute) << name;
    }
}

TEST(MissClassifier, TrafficRatioAboveOne)
{
    // Wrong-path servicing can only add misses: Optimistic >= Oracle.
    for (const char *name : {"gcc", "ditroff"}) {
        Classification c =
            classifyMisses(benchWorkload(name), smallConfig());
        EXPECT_GE(c.trafficRatio(), 1.0) << name;
        EXPECT_LT(c.trafficRatio(), 3.0) << name;
    }
}

TEST(MissClassifier, FortranProfilesHaveSmallSpeculativeEffects)
{
    // Paper: "In the case of the Fortran programs, both effects are
    // minimal."
    Classification fortran =
        classifyMisses(benchWorkload("fpppp"), smallConfig());
    EXPECT_LT(fortran.specPollutePercent(), 0.3);

    Classification branchy =
        classifyMisses(benchWorkload("gcc"), smallConfig());
    EXPECT_GT(branchy.wrongPathPercent(),
              fortran.wrongPathPercent());
}

TEST(MissClassifier, PercentagesUseInstructionDenominator)
{
    Classification c;
    c.instructions = 1000;
    c.bothMiss = 20;
    c.specPollute = 5;
    c.specPrefetch = 10;
    c.wrongPath = 15;
    EXPECT_DOUBLE_EQ(c.bothMissPercent(), 2.0);
    EXPECT_DOUBLE_EQ(c.specPollutePercent(), 0.5);
    EXPECT_DOUBLE_EQ(c.specPrefetchPercent(), 1.0);
    EXPECT_DOUBLE_EQ(c.wrongPathPercent(), 1.5);
    EXPECT_EQ(c.oracleMisses(), 30u);
    EXPECT_EQ(c.optimisticMisses(), 40u);
    EXPECT_NEAR(c.trafficRatio(), 40.0 / 30.0, 1e-12);
}

TEST(MissClassifier, DeterministicAcrossCalls)
{
    Workload w = benchWorkload("idl");
    Classification a = classifyMisses(w, smallConfig());
    Classification b = classifyMisses(w, smallConfig());
    EXPECT_EQ(a.bothMiss, b.bothMiss);
    EXPECT_EQ(a.specPollute, b.specPollute);
    EXPECT_EQ(a.specPrefetch, b.specPrefetch);
    EXPECT_EQ(a.wrongPath, b.wrongPath);
}

TEST(MissClassifier, ClassifierRunIsTheGridsOptimisticRun)
{
    // A suite-shaped sweep: every policy x prefetch of every profile,
    // the classifier armed on the Optimistic/no-prefetch runs only.
    SimConfig base;
    base.instructionBudget = 20'000;
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames()) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                RunSpec spec{name, base};
                spec.config.policy = policy;
                spec.config.nextLinePrefetch = prefetch;
                spec.classify =
                    policy == FetchPolicy::Optimistic && !prefetch;
                specs.push_back(spec);
            }
        }
    }
    std::vector<RunObservations> serialObs, parallelObs;
    std::vector<SimResults> serial = runSweep(specs, 1, nullptr, &serialObs);
    std::vector<SimResults> parallel =
        runSweep(specs, 4, nullptr, &parallelObs);

    size_t armed = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "spec " << i;
        if (!specs[i].classify) {
            EXPECT_FALSE(serialObs[i].classification) << "spec " << i;
            continue;
        }
        ++armed;
        const std::string &name = specs[i].benchmark;
        SimResults timed;
        Classification direct =
            classifyMisses(*sharedWorkload(name), base, &timed);
        // The wrapper's run is the grid's run in every field; only
        // its label is left empty (specbench's digests hash it).
        EXPECT_TRUE(timed.workload.empty()) << name;
        timed.workload = name;
        EXPECT_EQ(timed, serial[i]) << name;
        EXPECT_EQ(serial[i].workload, name);

        ASSERT_TRUE(serialObs[i].classification) << name;
        ASSERT_TRUE(parallelObs[i].classification) << name;
        EXPECT_EQ(*serialObs[i].classification, direct) << name;
        EXPECT_EQ(*parallelObs[i].classification, direct) << name;
        EXPECT_EQ(direct.workload, name);
    }
    EXPECT_EQ(armed, benchmarkNames().size());
}

TEST(MissClassifier, ArmedRunsOutsideTheTaxonomyFailLoudly)
{
    SimConfig plain;
    plain.instructionBudget = 5'000;
    plain.policy = FetchPolicy::Optimistic;
    auto armed = [&](auto &&edit) {
        RunSpec spec{"li", plain, true};
        edit(spec.config);
        return std::vector<RunSpec>{spec};
    };
    auto classifies = [](const std::vector<RunSpec> &specs) {
        std::vector<RunObservations> obs;
        runSweep(specs, 1, nullptr, &obs);
    };

    EXPECT_DEATH(classifies(armed([](SimConfig &c) {
                     c.policy = FetchPolicy::Resume;
                 })),
                 "miss classifier");
    EXPECT_DEATH(classifies(armed([](SimConfig &c) {
                     c.nextLinePrefetch = true;
                 })),
                 "miss classifier");
    EXPECT_DEATH(classifies(armed([](SimConfig &c) {
                     c.prefetchKind = PrefetchKind::Stream;
                 })),
                 "miss classifier");
    EXPECT_DEATH(classifies(armed([](SimConfig &c) {
                     c.warmupInstructions = 1'000;
                 })),
                 "miss classifier");
    EXPECT_DEATH(classifies(armed([](SimConfig &c) {
                     c.adaptiveSelector = SelectorKind::Bandit;
                 })),
                 "miss classifier");

    // A sweep that cannot hand the taxonomy back refuses to run one.
    std::vector<RunSpec> valid = armed([](SimConfig &) {});
    EXPECT_DEATH(runSweep(valid, 1), "returns no observations");
    EXPECT_DEATH(runSweepGuarded(valid, SweepGuard{}, 1),
                 "returns no observations");

    // The single-run entry point applies the same rule.
    SimConfig oracle = plain;
    oracle.policy = FetchPolicy::Oracle;
    EXPECT_DEATH(
        {
            RunObservations obs;
            runSimulation(*sharedWorkload("li"), oracle, obs, true);
        },
        "miss classifier");

    // The valid arm classifies; a disarmed run carries no taxonomy.
    std::vector<RunObservations> obs;
    runSweep(valid, 1, nullptr, &obs);
    ASSERT_TRUE(obs[0].classification);
    EXPECT_EQ(obs[0].classification->instructions, 5'000u);
    valid[0].classify = false;
    runSweep(valid, 1, nullptr, &obs);
    EXPECT_FALSE(obs[0].classification);
}

} // namespace
} // namespace specfetch
