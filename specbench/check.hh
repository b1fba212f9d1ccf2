/**
 * @file
 * The output check behind failed_run_frac, and the digest of every
 * simulated counter that pins the default seed's results.
 *
 * The check re-derives the model's accounting identities from the
 * outside, on every run of every workload:
 *  - the run retired exactly its instruction budget;
 *  - the ISPI components sum to the total (instructions plus every
 *    penalty slot equals the final slot clock);
 *  - bus traffic is demand fills + wrong-path fills + prefetches;
 *  - Table 4 is conserved by each classification;
 *  - sampled epochs tile the run and sum to its counters, heatmap
 *    rows sum to them, and adaptive choice windows tile the run.
 */

#ifndef SPECBENCH_CHECK_HH_
#define SPECBENCH_CHECK_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "obs/observations.hh"

namespace specbench {

class OutputCheck
{
  public:
    /** Check one simulated run; returns true when it passes. */
    bool run(const specfetch::SimResults &results,
             const specfetch::SimConfig &config,
             const specfetch::RunObservations *observations = nullptr);

    /**
     * Check one Table-4 classification against the Optimistic run it
     * was measured on (classifyMisses' timed_results). Counts as one
     * run: the classification is that run's output.
     */
    bool classification(const specfetch::Classification &classification,
                        const specfetch::SimResults &timed,
                        const specfetch::SimConfig &config);

    /** Mark a whole batch of runs failed (e.g. a digest mismatch). */
    void failBatch(uint64_t runs, const std::string &why);

    uint64_t attempted() const { return attemptedRuns; }
    uint64_t failed() const { return failedRuns; }
    /** The first few failure descriptions, for the report. */
    const std::vector<std::string> &messages() const { return notes; }

  private:
    bool finish(const std::vector<std::string> &problems,
                const std::string &what);

    uint64_t attemptedRuns = 0;
    uint64_t failedRuns = 0;
    std::vector<std::string> notes;
};

/**
 * Order-sensitive digest over raw simulated counters. Built from the
 * counters themselves rather than their JSON rendering, so it moves
 * only when a simulated number moves.
 */
class Digest
{
  public:
    void add(uint64_t value);
    void add(const specfetch::SimResults &results);
    void add(const specfetch::Classification &classification);
    void add(const specfetch::RunObservations &observations);
    void addBytes(const void *data, size_t size);

    uint64_t value() const { return state; }
    std::string hex() const;

  private:
    uint64_t state = 0;
};

/** Digest of a file's bytes; false when it cannot be read. */
bool digestFile(const std::string &path, std::string &hexOut);

} // namespace specbench

#endif // SPECBENCH_CHECK_HH_
