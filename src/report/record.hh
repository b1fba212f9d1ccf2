/**
 * @file
 * The machine-readable results schema: one versioned JSON record per
 * simulation run, carrying the full configuration manifest, every raw
 * counter, the derived ISPI decomposition, optional Table-4 miss
 * classification, and optional wall-clock timing.
 *
 * Record layout (schema version 1, JSON Lines — one record per line):
 *
 *   {"schema_version":1, "record":"run",
 *    "workload":"gcc", "policy":"Resume", "prefetch":"none",
 *    "config":{...},           // full SimConfig manifest
 *    "counters":{...},         // exact integers, incl. penalty slots
 *    "derived":{...},          // ISPI components, rates, accuracy
 *    "classification":{...},   // optional: Table-4 taxonomy
 *    "timing":{...}}           // optional: wall-clock seconds
 *
 * Golden-file tests compare records *without* the timing member (the
 * only nondeterministic part); everything else is reproducible
 * bit-exactly for a given config and seed.
 */

#ifndef SPECFETCH_REPORT_RECORD_HH_
#define SPECFETCH_REPORT_RECORD_HH_

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "report/json.hh"
#include "stats/stat_group.hh"

namespace specfetch {

/** Bump when the record layout changes incompatibly. */
constexpr uint64_t kReportSchemaVersion = 1;

/** Wall-clock attribution for one run inside a sweep. */
struct RunTiming
{
    /** This run's simulation time. */
    double runSeconds = 0.0;
    /** The sweep's shared workload-construction stage. */
    double workloadBuildSeconds = 0.0;
    /** The sweep's shared correct-path snapshot recordings
     *  (trace/snapshot.hh record-once/replay-many): worker-seconds
     *  summed over the recording tasks, which run beside other
     *  streams' runs rather than in a stage of their own. */
    double snapshotRecordSeconds = 0.0;
    /** The whole sweep, end to end. bench_suite runs its grid,
     *  classification and adaptive column as one sweep, so there this
     *  and snapshotRecordSeconds describe that merged sweep. */
    double sweepTotalSeconds = 0.0;
};

/** Configuration manifest (every knob that defines the machine/run). */
JsonValue toJson(const SimConfig &config);

/** Raw counters + derived metrics of one run (no manifest). */
JsonValue toJson(const SimResults &results);

/** Table-4 classification block. */
JsonValue toJson(const Classification &classification);

/**
 * Build one complete schema-v1 "run" record. @p timing and
 * @p classification are optional (omitted when null).
 */
JsonValue makeRunRecord(const SimResults &results, const SimConfig &config,
                        const RunTiming *timing = nullptr,
                        const Classification *classification = nullptr);

/**
 * Build a schema-v1 "classification" record for harnesses that
 * measure the Table-4 taxonomy without a timed run (e.g. table4).
 */
JsonValue makeClassificationRecord(const Classification &classification,
                                   const SimConfig &config);

/**
 * Export a stat tree as nested JSON: dotted group names become nested
 * objects, counters stay exact integers, formulas become doubles.
 */
JsonValue statsToJson(const StatGroup &root);

/**
 * Flatten a record for CSV: nested objects become dotted column
 * names; scalars render as unquoted text. Arrays are not supported in
 * records and are skipped.
 */
std::vector<std::pair<std::string, std::string>>
flattenRecord(const JsonValue &record);

} // namespace specfetch

#endif // SPECFETCH_REPORT_RECORD_HH_
