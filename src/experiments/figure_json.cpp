#include "experiments/figure_json.hpp"

#include <cstdio>

namespace ppo::experiments {

using runner::Json;

// A telemetry cell is one pool task: in the alpha sweeps (Figures 3/4/7,
// fault tolerance) that is one simulation run, not one alpha point.
Json to_json(const runner::SweepTelemetry& telemetry) {
  Json j = Json::object();
  j["cells"] = static_cast<std::uint64_t>(telemetry.cells);
  j["jobs"] = static_cast<std::uint64_t>(telemetry.jobs);
  j["wall_seconds"] = telemetry.wall_seconds;
  j["cell_seconds"] = Json::array_of(telemetry.cell_seconds);
  return j;
}

Json to_json(const metrics::ProtocolHealth& health) {
  Json j = Json::object();
  j["requests_sent"] = health.requests_sent;
  j["responses_sent"] = health.responses_sent;
  j["exchanges_completed"] = health.exchanges_completed;
  j["request_timeouts"] = health.request_timeouts;
  j["request_retries"] = health.request_retries;
  j["exchanges_aborted"] = health.exchanges_aborted;
  j["stale_responses"] = health.stale_responses;
  j["messages_sent"] = health.messages_sent;
  j["messages_delivered"] = health.messages_delivered;
  j["messages_dropped"] = health.messages_dropped;
  j["forged_rejected"] = health.forged_rejected;
  j["requests_rate_limited"] = health.requests_rate_limited;
  j["displacements_damped"] = health.displacements_damped;
  j["forged_injected"] = health.forged_injected;
  j["replays_injected"] = health.replays_injected;
  j["eclipse_records_injected"] = health.eclipse_records_injected;
  j["responses_suppressed"] = health.responses_suppressed;
  j["slots_eclipsed"] = health.slots_eclipsed;
  j["honest_requests_sent"] = health.honest_requests_sent;
  j["honest_request_retries"] = health.honest_request_retries;
  j["honest_exchanges_completed"] = health.honest_exchanges_completed;
  j["honest_completion_rate"] = health.honest_completion_rate();
  j["completion_rate"] = health.completion_rate();
  j["delivery_rate"] = health.delivery_rate();
  return j;
}

Json to_json(const Series& series) {
  Json j = Json::object();
  j["name"] = series.name;
  j["values"] = Json::array_of(series.values);
  return j;
}

Json to_json(const Histogram& histogram) {
  Json bins = Json::array();
  for (const auto& [value, count] : histogram.bins()) {
    Json bin = Json::object();
    bin["value"] = static_cast<std::uint64_t>(value);
    bin["count"] = static_cast<std::uint64_t>(count);
    bins.push_back(std::move(bin));
  }
  Json j = Json::object();
  j["total"] = static_cast<std::uint64_t>(histogram.total());
  j["bins"] = std::move(bins);
  return j;
}

Json to_json(const metrics::TimeSeries& series) {
  Json j = Json::object();
  j["name"] = series.name();
  j["times"] = Json::array_of(series.times());
  j["values"] = Json::array_of(series.values());
  return j;
}

Json to_json(const FigureScale& scale) {
  Json j = Json::object();
  j["warmup"] = scale.window.warmup;
  j["measure"] = scale.window.measure;
  j["sample_every"] = scale.window.sample_every;
  j["apl_sources"] = static_cast<std::uint64_t>(scale.window.apl_sources);
  j["alphas"] = Json::array_of(scale.alphas);
  j["seed"] = scale.seed;
  j["jobs"] = static_cast<std::uint64_t>(scale.jobs);
  j["shards"] = static_cast<std::uint64_t>(scale.shards);
  j["replicas"] = static_cast<std::uint64_t>(scale.replicas);
  j["warm_start"] = !scale.warm_start_dir.empty();
  return j;
}

Json to_json(const WorkbenchOptions& options) {
  Json j = Json::object();
  j["seed"] = options.seed;
  j["base_nodes"] = static_cast<std::uint64_t>(options.social.num_nodes);
  j["trust_nodes"] = static_cast<std::uint64_t>(options.trust_nodes);
  return j;
}

namespace {

Json series_block(const std::vector<Series>& series) {
  Json arr = Json::array();
  for (const Series& s : series) arr.push_back(to_json(s));
  return arr;
}

/// Health rollups keyed by the matching series' name.
Json health_block(const std::vector<metrics::ProtocolHealth>& health,
                  const std::vector<Series>& names) {
  Json arr = Json::array();
  for (std::size_t i = 0; i < health.size(); ++i) {
    Json h = to_json(health[i]);
    h["name"] = names[i].name;
    arr.push_back(std::move(h));
  }
  return arr;
}

Json named_health(const metrics::ProtocolHealth& health, const char* name) {
  Json h = to_json(health);
  h["name"] = name;
  return h;
}

}  // namespace

Json to_json(const SweepFigure& fig) {
  Json j = Json::object();
  j["alphas"] = Json::array_of(fig.alphas);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["connectivity"] = series_block(fig.connectivity);
  j["napl"] = series_block(fig.napl);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["napl_ci"] = series_block(fig.napl_ci);
  j["health"] = health_block(fig.health, fig.connectivity);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const DegreeFigure& fig) {
  Json entries = Json::array();
  for (const auto& entry : fig.entries) {
    Json e = Json::object();
    e["f"] = entry.f;
    e["trust"] = to_json(entry.trust);
    e["overlay"] = to_json(entry.overlay);
    e["random"] = to_json(entry.random);
    e["health"] = to_json(entry.health);
    entries.push_back(std::move(e));
  }
  Json j = Json::object();
  j["entries"] = std::move(entries);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const MessageFigure& fig) {
  Json entries = Json::array();
  for (const auto& entry : fig.entries) {
    Json rows = Json::array();
    for (const auto& row : entry.rows) {
      Json r = Json::object();
      r["rank"] = static_cast<std::uint64_t>(row.rank);
      r["trust_degree"] = static_cast<std::uint64_t>(row.trust_degree);
      r["max_out_degree"] = static_cast<std::uint64_t>(row.max_out_degree);
      r["messages_per_period"] = row.messages_per_period;
      rows.push_back(std::move(r));
    }
    Json e = Json::object();
    e["f"] = entry.f;
    e["mean_messages"] = entry.mean_messages;
    e["health"] = to_json(entry.health);
    e["rows"] = std::move(rows);
    entries.push_back(std::move(e));
  }
  Json j = Json::object();
  j["entries"] = std::move(entries);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const ConvergenceFigure& fig) {
  Json series = Json::array();
  series.push_back(to_json(fig.trust));
  series.push_back(to_json(fig.overlay_r3));
  series.push_back(to_json(fig.overlay_r9));
  Json health = Json::array();
  health.push_back(named_health(fig.health_r3, "overlay-r3"));
  health.push_back(named_health(fig.health_r9, "overlay-r9"));
  Json j = Json::object();
  j["series"] = std::move(series);
  j["health"] = std::move(health);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const ReplacementFigure& fig) {
  Json series = Json::array();
  series.push_back(to_json(fig.r3));
  series.push_back(to_json(fig.r9));
  series.push_back(to_json(fig.r_infinite));
  Json health = Json::array();
  health.push_back(named_health(fig.health_r3, "r3"));
  health.push_back(named_health(fig.health_r9, "r9"));
  health.push_back(named_health(fig.health_r_infinite, "r-infinite"));
  Json j = Json::object();
  j["series"] = std::move(series);
  j["health"] = std::move(health);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const FaultFigure& fig) {
  Json j = Json::object();
  j["alphas"] = Json::array_of(fig.alphas);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["connectivity"] = series_block(fig.connectivity);
  j["napl"] = series_block(fig.napl);
  j["completion"] = series_block(fig.completion);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["napl_ci"] = series_block(fig.napl_ci);
  j["completion_ci"] = series_block(fig.completion_ci);
  j["health"] = health_block(fig.health, fig.connectivity);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const AdversaryFigure& fig) {
  Json j = Json::object();
  j["fractions"] = Json::array_of(fig.fractions);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["zero_adversary_identical"] = fig.zero_adversary_identical;
  j["connectivity"] = series_block(fig.connectivity);
  j["completion"] = series_block(fig.completion);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["completion_ci"] = series_block(fig.completion_ci);
  j["health"] = health_block(fig.health, fig.connectivity);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

void add_health_metrics(obs::MetricsRegistry& registry,
                        const metrics::ProtocolHealth& health,
                        const obs::MetricDims& dims) {
  registry.add_counter("protocol_requests_sent", health.requests_sent, dims);
  registry.add_counter("protocol_responses_sent", health.responses_sent, dims);
  registry.add_counter("protocol_exchanges_completed",
                       health.exchanges_completed, dims);
  registry.add_counter("protocol_request_timeouts", health.request_timeouts,
                       dims);
  registry.add_counter("protocol_request_retries", health.request_retries,
                       dims);
  registry.add_counter("protocol_exchanges_aborted", health.exchanges_aborted,
                       dims);
  registry.add_counter("protocol_stale_responses", health.stale_responses,
                       dims);
  registry.add_counter("transport_messages_sent", health.messages_sent, dims);
  registry.add_counter("transport_messages_delivered",
                       health.messages_delivered, dims);
  registry.add_counter("transport_messages_dropped", health.messages_dropped,
                       dims);
  registry.add_counter("defense_forged_rejected", health.forged_rejected,
                       dims);
  registry.add_counter("defense_requests_rate_limited",
                       health.requests_rate_limited, dims);
  registry.add_counter("defense_displacements_damped",
                       health.displacements_damped, dims);
  registry.add_counter("attack_forged_injected", health.forged_injected, dims);
  registry.add_counter("attack_replays_injected", health.replays_injected,
                       dims);
  registry.add_counter("attack_eclipse_records_injected",
                       health.eclipse_records_injected, dims);
  registry.add_counter("attack_responses_suppressed",
                       health.responses_suppressed, dims);
  registry.add_counter("attack_slots_eclipsed", health.slots_eclipsed, dims);
  registry.add_counter("protocol_honest_requests_sent",
                       health.honest_requests_sent, dims);
  registry.add_counter("protocol_honest_exchanges_completed",
                       health.honest_exchanges_completed, dims);
  registry.set_gauge("protocol_honest_completion_rate",
                     health.honest_completion_rate(), dims);
  registry.set_gauge("protocol_completion_rate", health.completion_rate(),
                     dims);
  registry.set_gauge("transport_delivery_rate", health.delivery_rate(), dims);
}

namespace {

obs::MetricsRegistry health_registry(
    const std::vector<metrics::ProtocolHealth>& health,
    const std::vector<Series>& names) {
  obs::MetricsRegistry registry;
  for (std::size_t i = 0; i < health.size(); ++i)
    add_health_metrics(registry, health[i], {{"series", names[i].name}});
  return registry;
}

}  // namespace

obs::MetricsRegistry collect_metrics(const SweepFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

obs::MetricsRegistry collect_metrics(const FaultFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

obs::MetricsRegistry collect_metrics(const AdversaryFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

Json to_json(const LinkPrivacyFigure& fig) {
  Json j = Json::object();
  j["lifetimes"] = Json::array_of(fig.lifetimes);
  j["coverages"] = Json::array_of(fig.coverages);
  Json attacks = Json::array();
  for (const std::string& name : fig.attacks) attacks.push_back(name);
  j["attacks"] = std::move(attacks);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["true_edges"] = fig.true_edges;
  j["zero_observer_identical"] = fig.zero_observer_identical;
  j["kinvariant"] = fig.kinvariant;
  Json fingerprints = Json::array();
  for (const ShardFingerprint& fp : fig.shard_fingerprints) {
    Json entry = Json::object();
    entry["shards"] = static_cast<std::uint64_t>(fp.shards);
    entry["log_fingerprint"] = fp.log;
    Json attack_fps = Json::array();
    for (const std::uint64_t value : fp.attacks) attack_fps.push_back(value);
    entry["attack_fingerprints"] = std::move(attack_fps);
    fingerprints.push_back(std::move(entry));
  }
  j["shard_fingerprints"] = std::move(fingerprints);
  Json cells = Json::array();
  for (const LinkPrivacyCell& cell : fig.cells) {
    Json entry = Json::object();
    entry["lifetime"] = cell.lifetime;
    entry["coverage"] = cell.coverage;
    entry["attack"] = cell.attack;
    entry["defended"] = cell.defended;
    entry["precision"] = cell.precision;
    entry["recall"] = cell.recall;
    entry["auc"] = cell.auc;
    entry["precision_ci"] = cell.precision_ci;
    entry["recall_ci"] = cell.recall_ci;
    entry["auc_ci"] = cell.auc_ci;
    entry["observations"] = cell.observations;
    entry["entities"] = cell.entities;
    cells.push_back(std::move(entry));
  }
  j["cells"] = std::move(cells);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

obs::MetricsRegistry collect_metrics(const LinkPrivacyFigure& fig) {
  obs::MetricsRegistry registry;
  const auto compact = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", x);
    return std::string(buf);
  };
  for (const LinkPrivacyCell& cell : fig.cells) {
    const obs::MetricDims dims = {
        {"attack", cell.attack},
        {"cell", "L" + compact(cell.lifetime) + "-c" +
                     compact(cell.coverage) +
                     (cell.defended ? "-defended" : "-open")}};
    registry.set_gauge("inference_precision", cell.precision, dims);
    registry.set_gauge("inference_recall", cell.recall, dims);
    registry.set_gauge("inference_auc", cell.auc, dims);
    registry.set_gauge("inference_observations", cell.observations, dims);
  }
  return registry;
}

}  // namespace ppo::experiments
