/**
 * @file
 * Self-test of the benchmark's own arithmetic and of its output
 * check. Runs at the start of every benchmark run (a failing
 * self-test fails the run) and alone via --self-test.
 */

#include "selftest.hh"

#include <cmath>
#include <cstdio>

#include "arithmetic.hh"
#include "check.hh"
#include "workloads.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace specbench {

namespace {

struct Tally
{
    int failures = 0;

    void
    expect(bool ok, const char *what)
    {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
        }
    }

    void
    near(double actual, double expected, const char *what)
    {
        double scale = std::fmax(1.0, std::fabs(expected));
        expect(std::fabs(actual - expected) <= 1e-12 * scale, what);
    }
};

void
arithmetic(Tally &t)
{
    // Self time: overlapping children count once, a child sticking
    // out of its parent counts only inside it.
    t.near(selfTime({0.0, 10.0}, {{1.0, 3.0}, {2.0, 5.0}, {7.0, 8.0}}), 5.0,
           "self time with overlapping children");
    t.near(selfTime({2.0, 6.0}, {{0.0, 3.0}, {5.0, 9.0}}), 2.0,
           "self time with children clipped to the parent");
    t.near(selfTime({0.0, 1.0}, {}), 1.0, "self time of a leaf");

    Tracer tracer;
    long root = tracer.open("root", "specbench");
    double childStart = tracer.now();
    tracer.addChild("a", "trace", childStart, tracer.now());
    tracer.close(root);
    std::map<std::string, double> byLayer = tracer.selfTimeByLayer(root);
    const Tracer::Span &span = tracer.all()[static_cast<size_t>(root)];
    t.near(byLayer["specbench"] + byLayer["trace"], span.end - span.start,
           "layer self times sum to the root span");

    // Nearest-rank percentiles and the median.
    std::vector<double> ten{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    t.near(percentile(ten, 50.0), 5.0, "p50 of 1..10");
    t.near(percentile(ten, 90.0), 9.0, "p90 of 1..10");
    t.near(percentile(ten, 100.0), 10.0, "p100 of 1..10");
    t.near(percentile({3.0}, 90.0), 3.0, "p90 of one sample");
    t.near(median(ten), 5.5, "median of an even count");
    t.near(median({4.0, 1.0, 2.0}), 2.0, "median of an odd count");

    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
    std::array<double, 3> q = quartiles(ten);
    t.near(q[0], 2.75, "q1 of 1..10");
    t.near(q[1], 5.5, "q2 of 1..10");
    t.near(q[2], 8.25, "q3 of 1..10");
    q = quartiles({2.0, 1.0});
    t.near(q[0], 0.75, "q1 of two samples (extrapolated)");
    t.near(q[2], 2.25, "q3 of two samples (extrapolated)");

    t.near(parallelEfficiency(12.0, 4.0, 4), 0.75, "parallel efficiency");
    t.near(parallelEfficiency(1.0, 0.0, 4), 0.0,
           "parallel efficiency of an empty stage");
}

/**
 * Negative control: a small real run passes the check, and the same
 * run with any one counter perturbed fails it.
 */
void
negativeControl(Tally &t)
{
    std::shared_ptr<const Workload> workload = sharedWorkload("li");
    SimConfig config;
    config.instructionBudget = 20'000;
    config.sampleInterval = 1'000;
    config.setHeatmap = true;
    RunObservations obs;
    SimResults good = runSimulation(*workload, config, obs);

    OutputCheck check;
    t.expect(check.run(good, config, &obs), "an unperturbed run passes");

    SimResults perturbed = good;
    ++perturbed.demandMisses;
    t.expect(!check.run(perturbed, config, &obs),
             "a perturbed demand-miss counter is caught");
    perturbed = good;
    perturbed.penalty.charge(PenaltyKind::Bus, 1);
    t.expect(!check.run(perturbed, config, &obs),
             "a perturbed penalty counter is caught");
    perturbed = good;
    ++perturbed.instructions;
    t.expect(!check.run(perturbed, config, &obs),
             "a perturbed instruction count is caught");
    SimConfig epochsOnly = config;
    epochsOnly.setHeatmap = false;
    RunObservations shifted;
    shifted.sampleInterval = obs.sampleInterval;
    shifted.epochs = obs.epochs;
    t.expect(check.run(good, epochsOnly, &shifted),
             "the epoch series alone passes");
    ++shifted.epochs[3].wrongFills;
    t.expect(!check.run(good, epochsOnly, &shifted),
             "a perturbed epoch counter is caught");
    t.expect(check.failed() == 4 && check.attempted() == 6,
             "the check counts failed runs against attempted runs");

    SimConfig plain = config;
    plain.sampleInterval = 0;
    plain.setHeatmap = false;
    Classified c;
    c.config = plain;
    c.classification = classifyMisses(*workload, plain, &c.timed);
    OutputCheck table4;
    t.expect(table4.classification(c.classification, c.timed, plain),
             "an unperturbed classification passes");
    ++c.classification.specPollute;
    t.expect(!table4.classification(c.classification, c.timed, plain),
             "a perturbed Table-4 counter is caught");

    Digest a, b;
    a.add(good);
    perturbed = good;
    ++perturbed.wrongFills;
    b.add(perturbed);
    t.expect(a.value() != b.value(), "a perturbed counter moves the digest");
}

} // namespace

bool
runSelfTest()
{
    Tally t;
    arithmetic(t);
    negativeControl(t);
    return t.failures == 0;
}

} // namespace specbench
