/**
 * @file
 * Per-run observability output (DESIGN.md §11).
 *
 * RunObservations is the out-parameter a caller hands to
 * runSimulation() to receive whatever collectors the SimConfig armed:
 * the interval sampler's epoch series and/or the per-set cache
 * heatmap, plus the Table-4 taxonomy when the run armed the miss
 * classifier. It is deliberately separate from SimResults — observation
 * payloads are bulky, optional, and excluded from result equality, so
 * audit comparisons and golden run records never see them.
 */

#ifndef SPECFETCH_OBS_OBSERVATIONS_HH_
#define SPECFETCH_OBS_OBSERVATIONS_HH_

#include <memory>
#include <optional>
#include <vector>

#include "adaptive/adaptive_log.hh"
#include "core/miss_classifier.hh"
#include "obs/epoch.hh"
#include "obs/set_heatmap.hh"

namespace specfetch {

/** Everything the armed collectors gathered over one run. */
struct RunObservations
{
    /** Epoch series (empty when sampling was off). */
    std::vector<EpochRecord> epochs;
    /** Sampling interval the series was collected at (0 = off). */
    uint64_t sampleInterval = 0;
    /** Per-set heatmap (null when the heatmap was off). */
    std::unique_ptr<SetHeatmap> heatmap;
    /** Adaptive choice log (disabled when selection was off). */
    AdaptiveLog adaptive;
    /** Table-4 taxonomy (empty when the classifier was not armed). */
    std::optional<Classification> classification;
};

} // namespace specfetch

#endif // SPECFETCH_OBS_OBSERVATIONS_HH_
