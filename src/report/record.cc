#include "report/record.hh"

#include <cstdint>

#include "cache/prefetch_unit.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

std::string
indexingName(PhtIndexing indexing)
{
    switch (indexing) {
      case PhtIndexing::Gshare:     return "gshare";
      case PhtIndexing::GlobalOnly: return "global";
      case PhtIndexing::PcOnly:     return "pc";
      case PhtIndexing::Local:      return "local";
      case PhtIndexing::Combining:  return "combining";
    }
    return "unknown";
}

JsonValue
countersJson(const SimResults &r)
{
    JsonValue penalty = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        penalty.set(toString(kind), JsonValue::integer(r.penalty.slots(kind)));

    JsonValue counters = JsonValue::object();
    counters.set("instructions", JsonValue::integer(r.instructions))
        .set("final_slot",
             JsonValue::integer(static_cast<uint64_t>(r.finalSlot)))
        .set("control_insts", JsonValue::integer(r.controlInsts))
        .set("cond_branches", JsonValue::integer(r.condBranches))
        .set("misfetches", JsonValue::integer(r.misfetches))
        .set("dir_mispredicts", JsonValue::integer(r.dirMispredicts))
        .set("target_mispredicts", JsonValue::integer(r.targetMispredicts))
        .set("demand_accesses", JsonValue::integer(r.demandAccesses))
        .set("demand_misses", JsonValue::integer(r.demandMisses))
        .set("demand_fills", JsonValue::integer(r.demandFills))
        .set("buffer_hits", JsonValue::integer(r.bufferHits))
        .set("wrong_accesses", JsonValue::integer(r.wrongAccesses))
        .set("wrong_misses", JsonValue::integer(r.wrongMisses))
        .set("wrong_fills", JsonValue::integer(r.wrongFills))
        .set("prefetches_issued", JsonValue::integer(r.prefetchesIssued))
        .set("memory_transactions",
             JsonValue::integer(r.memoryTransactions()))
        .set("penalty_slots", std::move(penalty));
    return counters;
}

JsonValue
derivedJson(const SimResults &r)
{
    JsonValue components = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        components.set(toString(kind), JsonValue::number(r.ispiOf(kind)));

    JsonValue derived = JsonValue::object();
    derived.set("ispi", JsonValue::number(r.ispi()))
        .set("ispi_components", std::move(components))
        .set("miss_rate_percent", JsonValue::number(r.missRatePercent()))
        .set("wrong_miss_rate_percent",
             JsonValue::number(r.wrongMissRatePercent()))
        .set("cond_accuracy", JsonValue::number(r.condAccuracy()))
        .set("pht_mispredict_ispi",
             JsonValue::number(r.phtMispredictIspi()))
        .set("btb_misfetch_ispi", JsonValue::number(r.btbMisfetchIspi()))
        .set("btb_mispredict_ispi",
             JsonValue::number(r.btbMispredictIspi()));
    return derived;
}

JsonValue
recordShell(const char *kind)
{
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string(kind));
    return record;
}

} // namespace

JsonValue
toJson(const SimConfig &config)
{
    JsonValue icache = JsonValue::object();
    icache.set("size_bytes", JsonValue::integer(config.icache.sizeBytes))
        .set("line_bytes", JsonValue::integer(config.icache.lineBytes))
        .set("ways", JsonValue::integer(config.icache.ways));

    JsonValue predictor = JsonValue::object();
    predictor
        .set("btb_entries", JsonValue::integer(config.predictor.btbEntries))
        .set("btb_ways", JsonValue::integer(config.predictor.btbWays))
        .set("pht_entries", JsonValue::integer(config.predictor.phtEntries))
        .set("pht_counter_bits",
             JsonValue::integer(config.predictor.phtCounterBits))
        .set("pht_indexing",
             JsonValue::string(indexingName(config.predictor.phtIndexing)))
        .set("pht_local_entries",
             JsonValue::integer(config.predictor.phtLocalEntries))
        .set("ras_depth", JsonValue::integer(config.predictor.rasDepth));

    JsonValue manifest = JsonValue::object();
    manifest.set("policy", JsonValue::string(toString(config.policy)))
        .set("issue_width", JsonValue::integer(config.issueWidth))
        .set("max_unresolved", JsonValue::integer(config.maxUnresolved))
        .set("decode_cycles", JsonValue::integer(config.decodeCycles))
        .set("resolve_cycles", JsonValue::integer(config.resolveCycles))
        .set("icache", std::move(icache))
        .set("miss_penalty_cycles",
             JsonValue::integer(config.missPenaltyCycles))
        .set("memory_channels", JsonValue::integer(config.memoryChannels))
        .set("l2_enabled", JsonValue::boolean(config.l2Enabled));
    // The L2 geometry and hit/miss latencies matter only when the L2
    // exists; they appear only then so records of single-level runs
    // stay byte-identical to schema v1 golden files.
    if (config.l2Enabled) {
        JsonValue l2 = JsonValue::object();
        l2.set("size_bytes", JsonValue::integer(config.l2Cache.sizeBytes))
            .set("line_bytes", JsonValue::integer(config.l2Cache.lineBytes))
            .set("ways", JsonValue::integer(config.l2Cache.ways));
        manifest.set("l2_cache", std::move(l2))
            .set("l2_hit_cycles", JsonValue::integer(config.l2HitCycles))
            .set("l2_miss_cycles", JsonValue::integer(config.l2MissCycles));
    }
    manifest.set("victim_entries", JsonValue::integer(config.victimEntries));
    if (config.victimEntries > 0) {
        manifest.set("victim_hit_cycles",
                     JsonValue::integer(config.victimHitCycles));
    }
    manifest
        .set("prefetch_kind",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("target_table_entries",
             JsonValue::integer(config.targetTableEntries))
        .set("predictor", std::move(predictor))
        .set("instruction_budget",
             JsonValue::integer(config.instructionBudget))
        .set("warmup_instructions",
             JsonValue::integer(config.warmupInstructions))
        .set("run_seed", JsonValue::integer(config.runSeed));
    // Auditing never changes results; the members appear only when
    // enabled so records of unaudited runs stay byte-identical to
    // schema v1 golden files.
    if (config.checkLevel != CheckLevel::Off) {
        manifest
            .set("check_level",
                 JsonValue::string(toString(config.checkLevel)))
            .set("checkpoint_interval",
                 JsonValue::integer(config.checkpointInterval));
    }
    // Observability likewise never changes results and its members
    // likewise appear only when armed.
    if (config.sampleInterval > 0) {
        manifest.set("sample_interval",
                     JsonValue::integer(config.sampleInterval));
    }
    if (config.setHeatmap)
        manifest.set("set_heatmap", JsonValue::boolean(true));
    // Adaptive selection *does* change results, but the members still
    // appear only when armed: every pre-adaptive record (and every
    // run with selection off) stays byte-identical to its golden.
    if (config.adaptiveSelector != SelectorKind::Off) {
        manifest
            .set("adaptive_selector",
                 JsonValue::string(toString(config.adaptiveSelector)))
            .set("adaptive_interval",
                 JsonValue::integer(config.adaptiveInterval));
        if (config.adaptiveSelector == SelectorKind::Bandit) {
            manifest
                .set("adaptive_seed",
                     JsonValue::integer(config.adaptiveSeed))
                .set("adaptive_epsilon",
                     JsonValue::number(config.adaptiveEpsilon));
        }
    }
    manifest.set("description", JsonValue::string(config.describe()));
    return manifest;
}

JsonValue
toJson(const SimResults &results)
{
    JsonValue out = JsonValue::object();
    out.set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch", JsonValue::boolean(results.prefetch))
        .set("counters", countersJson(results))
        .set("derived", derivedJson(results));
    return out;
}

JsonValue
toJson(const Classification &c)
{
    JsonValue out = JsonValue::object();
    out.set("instructions", JsonValue::integer(c.instructions))
        .set("both_miss", JsonValue::integer(c.bothMiss))
        .set("spec_pollute", JsonValue::integer(c.specPollute))
        .set("spec_prefetch", JsonValue::integer(c.specPrefetch))
        .set("wrong_path", JsonValue::integer(c.wrongPath))
        .set("oracle_misses", JsonValue::integer(c.oracleMisses()))
        .set("optimistic_misses", JsonValue::integer(c.optimisticMisses()))
        .set("both_miss_percent", JsonValue::number(c.bothMissPercent()))
        .set("spec_pollute_percent",
             JsonValue::number(c.specPollutePercent()))
        .set("spec_prefetch_percent",
             JsonValue::number(c.specPrefetchPercent()))
        .set("wrong_path_percent", JsonValue::number(c.wrongPathPercent()))
        .set("traffic_ratio", JsonValue::number(c.trafficRatio()));
    return out;
}

JsonValue
makeRunRecord(const SimResults &results, const SimConfig &config,
              const RunTiming *timing, const Classification *classification)
{
    JsonValue record = recordShell("run");
    record.set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("config", toJson(config))
        .set("counters", countersJson(results))
        .set("derived", derivedJson(results));
    if (classification)
        record.set("classification", toJson(*classification));
    if (timing) {
        JsonValue t = JsonValue::object();
        t.set("run_seconds", JsonValue::number(timing->runSeconds))
            .set("workload_build_seconds",
                 JsonValue::number(timing->workloadBuildSeconds))
            .set("snapshot_record_seconds",
                 JsonValue::number(timing->snapshotRecordSeconds))
            .set("sweep_total_seconds",
                 JsonValue::number(timing->sweepTotalSeconds));
        record.set("timing", std::move(t));
    }
    return record;
}

JsonValue
makeClassificationRecord(const Classification &classification,
                         const SimConfig &config)
{
    JsonValue record = recordShell("classification");
    record.set("workload", JsonValue::string(classification.workload))
        .set("config", toJson(config))
        .set("classification", toJson(classification));
    return record;
}

JsonValue
statsToJson(const StatGroup &root)
{
    JsonValue out = JsonValue::object();
    root.visitEntries([&](const std::string &qualified,
                          const Counter *counter, double value,
                          const std::string &) {
        // Dotted path -> nested objects; the leaf keeps counter
        // exactness.
        std::vector<std::string> path = split(qualified, '.');
        JsonValue *node = &out;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
            if (!node->find(path[i]))
                node->set(path[i], JsonValue::object());
            node = const_cast<JsonValue *>(node->find(path[i]));
        }
        node->set(path.back(), counter
                                   ? JsonValue::integer(counter->value())
                                   : JsonValue::number(value));
    });
    return out;
}

namespace {

void
flattenInto(const JsonValue &value, const std::string &prefix,
            std::vector<std::pair<std::string, std::string>> &out)
{
    switch (value.kind()) {
      case JsonValue::Kind::Object:
        for (const auto &[name, member] : value.members()) {
            flattenInto(member,
                        prefix.empty() ? name : prefix + "." + name, out);
        }
        break;
      case JsonValue::Kind::Array:
        break; // records never carry arrays; nothing sensible in CSV
      case JsonValue::Kind::String:
        out.emplace_back(prefix, value.asString());
        break;
      case JsonValue::Kind::Bool:
        out.emplace_back(prefix, value.asBool() ? "true" : "false");
        break;
      case JsonValue::Kind::Null:
        out.emplace_back(prefix, "");
        break;
      default:
        out.emplace_back(prefix, value.dump());
        break;
    }
}

} // namespace

std::vector<std::pair<std::string, std::string>>
flattenRecord(const JsonValue &record)
{
    std::vector<std::pair<std::string, std::string>> out;
    flattenInto(record, "", out);
    return out;
}

} // namespace specfetch
