/**
 * @file
 * Schema-v1 JSONL records for observability payloads (DESIGN.md §11).
 *
 * Two record kinds extend the report layer's line protocol:
 *
 *   {"schema_version":1, "record":"timeseries",
 *    "workload":..., "policy":..., "prefetch":..., "run_seed":...,
 *    "sample_interval":N,
 *    "epochs":[{"epoch":0, "first_instruction":..., ..., "derived":{...}}]}
 *
 *   {"schema_version":1, "record":"heatmap",
 *    "workload":..., "policy":..., "prefetch":..., "run_seed":...,
 *    "geometry":{...}, "sets":{...per-set arrays...},
 *    "summary":{...wrong-fill distribution percentiles...}}
 *
 * Both are fully deterministic (no wall-clock members), so serial and
 * parallel sweeps emit byte-identical rows for the same grid.
 */

#ifndef SPECFETCH_OBS_OBS_RECORD_HH_
#define SPECFETCH_OBS_OBS_RECORD_HH_

#include "core/config.hh"
#include "core/results.hh"
#include "obs/observations.hh"
#include "report/json.hh"

namespace specfetch {

/**
 * One epoch as a JSON object (deltas + per-epoch derived metrics),
 * encoded straight to text and returned as one Raw node.
 */
JsonValue toJson(const EpochRecord &epoch);

/** Per-set occupancy/conflict arrays + distribution summary. */
JsonValue toJson(const SetHeatmap &heatmap);

/**
 * Build the schema-v1 "timeseries" record for one run. Requires a
 * non-empty epoch series (callers skip runs that produced none).
 */
JsonValue makeTimeseriesRecord(const RunObservations &observations,
                               const SimResults &results,
                               const SimConfig &config);

/** Build the schema-v1 "heatmap" record for one run. */
JsonValue makeHeatmapRecord(const SetHeatmap &heatmap,
                            const SimResults &results,
                            const SimConfig &config);

} // namespace specfetch

#endif // SPECFETCH_OBS_OBS_RECORD_HH_
