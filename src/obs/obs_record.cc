#include "obs/obs_record.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "report/record.hh"
#include "stats/histogram.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

JsonValue
recordShell(const char *kind, const SimResults &results,
            const SimConfig &config)
{
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string(kind))
        .set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("run_seed", JsonValue::integer(config.runSeed));
    return record;
}

JsonValue
seriesJson(const std::vector<uint64_t> &values)
{
    JsonValue out = JsonValue::array();
    out.reserve(values.size());
    for (uint64_t value : values)
        out.push(JsonValue::integer(value));
    return out;
}

/** Distribution summary of one per-set series via stats/histogram. */
JsonValue
distributionJson(const std::vector<uint64_t> &values)
{
    uint64_t top = values.empty()
        ? 0
        : *std::max_element(values.begin(), values.end());
    constexpr size_t kBuckets = 16;
    uint64_t width = std::max<uint64_t>(1, (top + kBuckets) / kBuckets);
    Histogram histogram(kBuckets, width);
    for (uint64_t value : values)
        histogram.sample(value);

    JsonValue out = JsonValue::object();
    out.set("mean", JsonValue::number(histogram.mean()))
        .set("max", JsonValue::integer(histogram.maxValue()))
        .set("p50", JsonValue::integer(histogram.percentile(0.50)))
        .set("p90", JsonValue::integer(histogram.percentile(0.90)))
        .set("p99", JsonValue::integer(histogram.percentile(0.99)));
    return out;
}

/** Room for a typical epoch row, so most rows never regrow. */
constexpr size_t kEpochRowBytes = 1024;

/** Append @p key (pre-encoded `,"name":` text) and an integer. */
void
putUint(std::string &row, const char *key, uint64_t value)
{
    row += key;
    JsonValue::appendUint(row, value);
}

/** Append @p key (pre-encoded `,"name":` text) and a double. */
void
putDouble(std::string &row, const char *key, double value)
{
    row += key;
    JsonValue::appendDouble(row, value);
}

/** `"name":` per kind of allPenaltyKinds(), escaped once. */
const std::vector<std::string> &
penaltyKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (PenaltyKind kind : allPenaltyKinds()) {
            std::string key = JsonValue::escape(toString(kind));
            key += ':';
            out.push_back(std::move(key));
        }
        return out;
    }();
    return keys;
}

} // namespace

JsonValue
toJson(const EpochRecord &epoch)
{
    // Written as text in one pass: epochs are the bulk of an export
    // (one per sample interval per run), and building and freeing a
    // ~35-node DOM per epoch costs more than printing it.
    std::string row;
    row.reserve(kEpochRowBytes);
    putUint(row, "{\"epoch\":", epoch.epoch);
    putUint(row, ",\"first_instruction\":", epoch.firstInstruction);
    putUint(row, ",\"last_instruction\":", epoch.lastInstruction);
    putUint(row, ",\"slots\":", epoch.slots);
    const std::vector<PenaltyKind> &kinds = allPenaltyKinds();
    const std::vector<std::string> &keys = penaltyKeys();
    row += ",\"penalty_slots\":{";
    for (size_t i = 0; i < kinds.size(); ++i) {
        row += keys[i];
        JsonValue::appendUint(
            row, epoch.penaltySlots[static_cast<size_t>(kinds[i])]);
        row += i + 1 < kinds.size() ? "," : "}";
    }
    putUint(row, ",\"control_insts\":", epoch.controlInsts);
    putUint(row, ",\"cond_branches\":", epoch.condBranches);
    putUint(row, ",\"misfetches\":", epoch.misfetches);
    putUint(row, ",\"dir_mispredicts\":", epoch.dirMispredicts);
    putUint(row, ",\"target_mispredicts\":", epoch.targetMispredicts);
    putUint(row, ",\"demand_accesses\":", epoch.demandAccesses);
    putUint(row, ",\"demand_misses\":", epoch.demandMisses);
    putUint(row, ",\"demand_fills\":", epoch.demandFills);
    putUint(row, ",\"buffer_hits\":", epoch.bufferHits);
    putUint(row, ",\"wrong_accesses\":", epoch.wrongAccesses);
    putUint(row, ",\"wrong_misses\":", epoch.wrongMisses);
    putUint(row, ",\"wrong_fills\":", epoch.wrongFills);
    putUint(row, ",\"prefetches_issued\":", epoch.prefetchesIssued);
    putUint(row, ",\"memory_transactions\":", epoch.memoryTransactions());
    row += epoch.partial ? ",\"partial\":true" : ",\"partial\":false";
    putDouble(row, ",\"derived\":{\"ispi\":", epoch.ispi());
    row += ",\"ispi_components\":{";
    for (size_t i = 0; i < kinds.size(); ++i) {
        row += keys[i];
        JsonValue::appendDouble(row, epoch.ispiOf(kinds[i]));
        row += i + 1 < kinds.size() ? "," : "}";
    }
    putDouble(row, ",\"miss_rate_percent\":", epoch.missRatePercent());
    putDouble(row, ",\"cond_accuracy\":", epoch.condAccuracy());
    putDouble(row, ",\"bus_wait_fraction\":", epoch.busWaitFraction());
    row += "}}";
    return JsonValue::raw(std::move(row));
}

JsonValue
toJson(const SetHeatmap &heatmap)
{
    JsonValue geometry = JsonValue::object();
    geometry
        .set("size_bytes", JsonValue::integer(heatmap.geometry().sizeBytes))
        .set("line_bytes", JsonValue::integer(heatmap.geometry().lineBytes))
        .set("ways", JsonValue::integer(heatmap.geometry().ways))
        .set("sets", JsonValue::integer(heatmap.sets()));

    JsonValue sets = JsonValue::object();
    sets.set("demand_accesses", seriesJson(heatmap.demandAccesses()))
        .set("demand_misses", seriesJson(heatmap.demandMisses()))
        .set("correct_fills", seriesJson(heatmap.correctFills()))
        .set("wrong_accesses", seriesJson(heatmap.wrongAccesses()))
        .set("wrong_misses", seriesJson(heatmap.wrongMisses()))
        .set("wrong_fills", seriesJson(heatmap.wrongFills()))
        .set("evictions_by_correct",
             seriesJson(heatmap.evictionsByCorrect()))
        .set("evictions_by_wrong", seriesJson(heatmap.evictionsByWrong()));

    JsonValue summary = JsonValue::object();
    summary.set("demand_misses_per_set",
                distributionJson(heatmap.demandMisses()))
        .set("wrong_fills_per_set", distributionJson(heatmap.wrongFills()))
        .set("evictions_by_wrong_per_set",
             distributionJson(heatmap.evictionsByWrong()));

    JsonValue out = JsonValue::object();
    out.set("geometry", std::move(geometry))
        .set("sets", std::move(sets))
        .set("summary", std::move(summary));
    return out;
}

JsonValue
makeTimeseriesRecord(const RunObservations &observations,
                     const SimResults &results, const SimConfig &config)
{
    panic_if(observations.epochs.empty(),
             "timeseries record needs at least one epoch");
    JsonValue record = recordShell("timeseries", results, config);
    record.set("sample_interval",
               JsonValue::integer(observations.sampleInterval));
    JsonValue epochs = JsonValue::array();
    epochs.reserve(observations.epochs.size());
    for (const EpochRecord &epoch : observations.epochs)
        epochs.push(toJson(epoch));
    record.set("epochs", std::move(epochs));
    return record;
}

JsonValue
makeHeatmapRecord(const SetHeatmap &heatmap, const SimResults &results,
                  const SimConfig &config)
{
    JsonValue record = recordShell("heatmap", results, config);
    record.set("heatmap", toJson(heatmap));
    return record;
}

} // namespace specfetch
