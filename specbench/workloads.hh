/**
 * @file
 * The benchmark's three workloads. Each function runs one iteration
 * of its workload through specfetch's public API, timing each layer
 * call from the outside, and hands back everything the output check
 * and the metrics need. See NOTES.md for why each workload exists.
 */

#ifndef SPECBENCH_WORKLOADS_HH_
#define SPECBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "check.hh"
#include "core/miss_classifier.hh"
#include "core/sweep.hh"
#include "spans.hh"

namespace specbench {

/** Instructions every run of every workload retires. */
constexpr uint64_t kRunBudget = 2'000'000;

/** What one iteration is asked to do. */
struct Context
{
    uint64_t seed = 0;
    /** Sweep worker threads (at most the host's core count). */
    unsigned threads = 1;
    /** JSONL file the iteration exports to (rewritten each time). */
    std::string exportPath;
    /** Null in untraced iterations. */
    Tracer *tracer = nullptr;
};

/** One runSweep call's inputs and outputs, kept for the check. */
struct Batch
{
    std::vector<specfetch::RunSpec> specs;
    std::vector<specfetch::SimResults> results;
    std::vector<specfetch::RunObservations> observations;
};

/** One classifyMisses call and the Optimistic run it measured. */
struct Classified
{
    specfetch::Classification classification;
    specfetch::SimResults timed;
    specfetch::SimConfig config;
};

/** Layer timings of one iteration, measured around each call. */
struct LayerTimes
{
    double recordSeconds = 0.0;       ///< SweepTiming snapshot record
    double runSeconds = 0.0;          ///< SweepTiming parallel stage
    std::vector<double> perRunSeconds;
    uint64_t sweepInstructions = 0;
    uint64_t sweepRuns = 0;
    double classifySeconds = 0.0;
    double oracleSeconds = 0.0;       ///< oracle + regret
    double selectorRunSeconds = 0.0;  ///< the adaptive runs' sweeps
    double exportSeconds = 0.0;       ///< record building + writing
    uint64_t bytesWritten = 0;
};

/** Everything one iteration produced. */
struct Iteration
{
    std::vector<Batch> batches;
    std::vector<Classified> classified;
    LayerTimes layers;
};

/**
 * Run one iteration of the named workload (one of workloadNames()).
 * Returns false when the export could not be written.
 */
bool runWorkload(const std::string &name, const Context &context,
                 Iteration &out);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace specbench

#endif // SPECBENCH_WORKLOADS_HH_
