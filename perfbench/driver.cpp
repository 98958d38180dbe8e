// Benchmark driver: runs one perfbench workload in this process and
// prints one JSON line with its metrics, its correctness verdict and a
// record of the host and build. perfbench/run.py builds and calls it;
// README.md in this directory describes the workloads and metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --scratch <dir>
//
// A run repeats whole rounds of its workload until --seconds have
// passed. Each round sets the workload up from the seed (timed as
// setup_s), runs it, and verifies its outputs with the independent
// checks in checks.cpp (timed, with the run, as wall_s). End-to-end
// metrics are medians over rounds. With --trace 1 the rounds come in
// untraced/traced pairs: traced rounds turn on the sharded core's
// per-shard profile and report the per-layer metrics, and the pair
// gives the tracing overhead and a traced == untraced fingerprint check.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "churn/churn_model.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "experiments/adversary_study.hpp"
#include "experiments/figures.hpp"
#include "experiments/workbench.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"
#include "telemetry/service_mode.hpp"

namespace {

using namespace ppo;
using Clock = std::chrono::steady_clock;
using perfbench::Failures;

static_assert(std::is_same_v<graph::NodeId, std::uint32_t>,
              "checks.hpp edges are pairs of uint32");

// --- workload inputs (README.md lists them; change both together) ------

// crawl_k1: the scale_single_run workload, shortened horizon, timed on
// one shard and checked against an untimed run of the same inputs on
// kCrawlCheckShards shards.
constexpr std::size_t kCrawlNodes = 100'000;
constexpr double kCrawlHorizon = 5.0;
constexpr std::size_t kCrawlCheckShards = 4;

// All Holme-Kim runs: scale_single_run's graph and overlay parameters.
constexpr std::size_t kHolmeKimM = 5;
constexpr double kHolmeKimTriad = 0.3;
constexpr double kAlpha = 0.5;
constexpr double kMeanOffline = 30.0;
constexpr std::size_t kCacheSize = 50;
constexpr std::size_t kShuffleLength = 10;
constexpr std::size_t kTargetLinks = 20;
constexpr double kPseudonymLifetime = 90.0;

// service_ckpt: service mode's K=4 arms, periodic snapshots, mid-run resume.
constexpr std::size_t kServiceNodes = 30'000;
constexpr std::size_t kServiceShards = 4;
constexpr double kServiceHorizon = 8.0;
constexpr double kServiceSlice = 1.0;
constexpr double kCheckpointEvery = 2.0;
constexpr double kResumeFrom = 4.0;
constexpr int kResumesPerRound = 3;  // one resume is a single noisy sample
constexpr double kServiceLoss = 0.05;
constexpr double kAdversaryFraction = 0.1;
constexpr const char* kAttack = "mixed";
constexpr double kObserverCoverage = 0.1;

// fig3_sweep: Figure 3 on 1000-node samples of the synthetic social graph.
constexpr std::size_t kBaseNodes = 50'000;
constexpr std::size_t kTrustNodes = 1000;
const std::vector<double> kFig3Alphas = {0.125, 0.25, 0.375, 0.5};
constexpr double kFig3Warmup = 100.0;
constexpr double kFig3Measure = 20.0;
constexpr double kFig3SampleEvery = 10.0;
constexpr std::size_t kFig3AplSources = 48;

// --- small helpers -------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- command line --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench_driver: " << message
            << "\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n";
  std::exit(2);
}

/// Whole-string unsigned decimal: no sign, no exponent, no suffix.
std::uint64_t parse_uint(const std::string& flag, std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end)
    usage_error(flag + " needs an unsigned integer, got '" +
                std::string(text) + "'");
  return value;
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error(flag + " needs a value");
    }
    static const char* const kKnown[] = {"--workload", "--seed", "--seconds",
                                         "--trace", "--scratch"};
    if (std::find(std::begin(kKnown), std::end(kKnown), flag) ==
        std::end(kKnown))
      usage_error("unknown flag '" + flag + "'");
    if (!values.emplace(flag, value).second)
      usage_error(flag + " given twice");
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--scratch"})
    if (values.count(required) == 0)
      usage_error(std::string("missing ") + required);
  Args args;
  args.workload = values["--workload"];
  args.seed = parse_uint("--seed", values["--seed"]);
  args.seconds = parse_uint("--seconds", values["--seconds"]);
  if (args.seconds == 0) usage_error("--seconds must be at least 1");
  const std::uint64_t trace = parse_uint("--trace", values["--trace"]);
  if (trace > 1) usage_error("--trace must be 0 or 1");
  args.trace = trace == 1;
  args.scratch = values["--scratch"];
  if (args.scratch.empty()) usage_error("--scratch needs a directory");
  return args;
}

// --- rounds and metrics --------------------------------------------------

/// One round's measurements by metric name (counts fit a double exactly).
using Sample = std::map<std::string, double>;

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Failures failures;
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  /// Trajectory fingerprint of every successful round, in order; every
  /// round of a workload replays the same inputs, so all must agree.
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::pair<std::string, std::string>> metrics;  // name, JSON
  std::vector<std::pair<std::string, std::string>> record;   // key, JSON
};

// Rounds during which the hypervisor stole more than this share of the
// VM's CPU time are run and verified but left out of the medians. A
// descheduled vCPU stalls every shard at the next barrier, so on a
// shared host a K=4 round ran 2.4x slower at 19% steal than at 1%; that
// is the host's time, not the program's. When fewer than half of a run's
// rounds are clean, medians take the half of the rounds with the least
// steal instead. The run's length does not depend on steal, which keeps
// every run within its time limit.
constexpr double kCleanStealShare = 0.03;

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// ticks, from /proc/stat; {0, 0} where it cannot be read.
std::pair<double, double> steal_and_total_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

double steal_share(std::pair<double, double> from, std::pair<double, double> to) {
  const double total = to.second - from.second;
  return total > 0.0 ? (to.first - from.first) / total : 0.0;
}

bool clean(const Sample& s) { return s.at("steal_share") <= kCleanStealShare; }

std::size_t clean_rounds(const std::vector<Sample>& samples) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), clean));
}

/// Runs `round(traced, first)` until `seconds` have passed: plain
/// rounds, or untraced/traced pairs in trace mode so both sides of the
/// overhead ratio see the same host.
void run_rounds(const Args& args, Report& report,
                const std::function<void(bool traced, bool first)>& round) {
  const auto t0 = Clock::now();
  const auto run_ticks = steal_and_total_ticks();
  do {
    for (int side = 0; side < (args.trace ? 2 : 1); ++side) {
      const bool first = report.attempted == 0;
      ++report.attempted;
      std::vector<Sample>& samples = side == 1 ? report.traced : report.untraced;
      const std::size_t before = samples.size();
      const auto ticks = steal_and_total_ticks();
      try {
        round(side == 1, first);
      } catch (const std::exception& e) {
        ++report.failed;
        std::cerr << "perfbench: round " << report.attempted
                  << " failed: " << e.what() << "\n";
      }
      if (samples.size() > before)
        samples.back()["steal_share"] =
            steal_share(ticks, steal_and_total_ticks());
    }
  } while (seconds_since(t0) < static_cast<double>(args.seconds));
  report.record.emplace_back(
      "host_steal_share",
      json_number(steal_share(run_ticks, steal_and_total_ticks())));
  report.record.emplace_back(
      "clean_rounds",
      json_number(static_cast<double>(clean_rounds(report.untraced) +
                                      clean_rounds(report.traced))));
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported with --trace 0, and per-layer metrics,
// reported with --trace 1. Every workload reports every metric of the
// set it prints; each workload measures every end-to-end metric.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},          {"graph.trust_mb", "MB"},
    {"overlay.start_s", "s"},        {"overlay.node_state_mb", "MB"},
    {"sim.run_s", "s"},              {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.busy_s", "s"},             {"sim.stall_s", "s"},
    {"sim.barrier_s", "s"},          {"sim.windows", "count"},
    {"sim.mailbox_events", "count"}, {"sim.queue_peak", "count"},
    {"metrics.edges_s", "s"},        {"metrics.connectivity_s", "s"},
    {"metrics.overlay_edges", "count"},
    {"runner.cells", "count"},       {"runner.grid_s", "s"},
    {"runner.cell_s", "s"},          {"runner.max_cell_s", "s"},
    {"runner.idle_s", "s"},          {"experiments.serial_s", "s"},
    {"ckpt.encode_ms", "ms"},        {"ckpt.write_ms", "ms"},
    {"ckpt.pause_ms", "ms"},         {"ckpt.file_mb", "MB"},
    {"ckpt.load_s", "s"},            {"ckpt.restore_s", "s"},
    {"ckpt.resume_s", "s"},          {"trace.wall_ratio", "ratio"},
};

/// Median of `name` over the clean rounds, or over the half of the
/// rounds with the least steal when fewer than half were clean.
double median_of(const std::vector<Sample>& samples, const std::string& name) {
  std::vector<const Sample*> by_steal;
  for (const Sample& s : samples) by_steal.push_back(&s);
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->at("steal_share") < b->at("steal_share");
                   });
  const std::size_t keep =
      std::max(clean_rounds(samples), (samples.size() + 1) / 2);
  std::vector<double> values;
  for (std::size_t i = 0; i < keep; ++i)
    if (const auto it = by_steal[i]->find(name); it != by_steal[i]->end())
      values.push_back(it->second);
  return median(values);
}

void add_metric(Report& report, const MetricDef& def, double value) {
  if (!std::isfinite(value)) {
    report.failures.push_back({"metric", std::string(def.name) + " not measured"});
    return;
  }
  report.metrics.emplace_back(def.name, "{\"value\": " + json_number(value) +
                                            ", \"unit\": " +
                                            json_string(def.unit) + "}");
}

/// Emits the workload's metrics: without tracing every end-to-end metric
/// (medians of untraced rounds, plus process-wide peak RSS); with it every
/// per-layer metric (medians of traced rounds, plus the traced/untraced
/// wall ratio). `not_called` names the per-layer metrics of layers the
/// workload never calls, or runs only out of the driver's sight; they
/// read 0, the work the driver saw them do. Any other metric a round did
/// not measure is a failure.
void emit_metrics(const Args& args, Report& report, double rss_mb,
                  const std::vector<std::string>& not_called) {
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd)
      add_metric(report, def,
                 std::string(def.name) == "peak_rss_mb"
                     ? rss_mb
                     : median_of(report.untraced, def.name));
    return;
  }
  for (const MetricDef& def : kPerLayer) {
    if (std::string(def.name) == "trace.wall_ratio") {
      add_metric(report, def,
                 median_of(report.traced, "wall_s") /
                     median_of(report.untraced, "wall_s"));
    } else if (std::find(not_called.begin(), not_called.end(), def.name) !=
               not_called.end()) {
      add_metric(report, def, 0.0);
    } else {
      add_metric(report, def, median_of(report.traced, def.name));
    }
  }
}

// Per-layer metrics of the layers a workload leaves out (see emit_metrics).
const std::vector<std::string> kSweepLayers = {
    "runner.cells",  "runner.grid_s", "runner.cell_s", "runner.max_cell_s",
    "runner.idle_s", "experiments.serial_s"};
const std::vector<std::string> kCkptLayers = {
    "ckpt.encode_ms", "ckpt.write_ms",   "ckpt.pause_ms", "ckpt.file_mb",
    "ckpt.load_s",    "ckpt.restore_s",  "ckpt.resume_s"};
// Inside availability_sweep's cells, out of the driver's sight.
const std::vector<std::string> kCellLayers = {
    "overlay.start_s",       "overlay.node_state_mb", "sim.run_s",
    "sim.events",            "sim.events_per_s",      "sim.busy_s",
    "sim.stall_s",           "sim.barrier_s",         "sim.windows",
    "sim.mailbox_events",    "sim.queue_peak",        "metrics.edges_s",
    "metrics.connectivity_s", "metrics.overlay_edges"};

std::vector<std::string> joined(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

void check_fingerprints(Report& report) {
  for (std::size_t i = 1; i < report.fingerprints.size(); ++i)
    perfbench::check_equal("fingerprint",
                           "round " + std::to_string(i + 1) + " vs round 1",
                           report.fingerprints.front(), report.fingerprints[i],
                           report.failures);
}

// --- shared Holme-Kim workload pieces ------------------------------------

graph::Graph holme_kim_trust(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed ^ 0x6EA4);
  return graph::holme_kim(nodes, kHolmeKimM, kHolmeKimTriad, rng);
}

overlay::OverlayServiceOptions scale_options() {
  overlay::OverlayServiceOptions options;
  options.params.cache_size = kCacheSize;
  options.params.shuffle_length = kShuffleLength;
  options.params.target_links = kTargetLinks;
  options.params.pseudonym_lifetime = kPseudonymLifetime;
  return options;
}

perfbench::TrustInput trust_input(const graph::Graph& trust) {
  perfbench::TrustInput in;
  in.nodes = trust.num_nodes();
  in.target_links = kTargetLinks;
  in.degree.resize(in.nodes);
  for (graph::NodeId u = 0; u < in.nodes; ++u) {
    const auto nbrs = trust.neighbors(u);
    in.degree[u] = static_cast<std::uint32_t>(nbrs.size());
    for (const graph::NodeId v : nbrs)
      if (u < v) in.edges.emplace_back(u, v);
  }
  std::sort(in.edges.begin(), in.edges.end());
  return in;
}

/// The run's outputs as checks.hpp sees them, plus the fingerprint.
struct Outputs {
  perfbench::OverlayOutput overlay;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
};

/// Measures a service at its horizon: edge list (metrics.edges_s),
/// fingerprint, and Figure 3 point (metrics.connectivity_s).
Outputs measure(overlay::ShardedOverlayService& service,
                const sim::ShardedSimulator& sim, Sample& s) {
  Outputs out;
  out.events = sim.events_executed();
  std::span<const std::pair<graph::NodeId, graph::NodeId>> edges;
  s["metrics.edges_s"] = timed([&] { edges = service.overlay_edges(); });
  out.fingerprint =
      telemetry::trajectory_fingerprint(edges, service.protocol_health());
  metrics::StreamingConnectivity connectivity;
  s["metrics.connectivity_s"] = timed([&] {
    out.overlay.fraction_disconnected = connectivity.fraction_disconnected(
        service.num_nodes(), edges, service.online_mask());
  });
  s["metrics.overlay_edges"] = static_cast<double>(edges.size());
  out.overlay.edges.assign(edges.begin(), edges.end());
  out.overlay.online_count = service.online_count();
  const graph::NodeMask& mask = service.online_mask();
  out.overlay.online.resize(service.num_nodes());
  for (graph::NodeId v = 0; v < service.num_nodes(); ++v)
    out.overlay.online[v] = mask.contains(v) ? 1 : 0;
  s["overlay.node_state_mb"] =
      static_cast<double>(service.node_state_bytes()) / 1e6;
  return out;
}

/// Per-layer view of the sharded core's shard profile over `run_s`
/// seconds inside run_until.
void add_shard_layers(const std::vector<sim::ShardedSimulator::ShardStats>& stats,
                      double run_s, std::uint64_t events, Sample& s) {
  double busy = 0.0, stall = 0.0;
  std::uint64_t windows = 0, mailbox = 0;
  std::size_t queue_peak = 0;
  for (const auto& st : stats) {
    busy += st.busy_seconds;
    stall += st.stall_seconds;
    windows = std::max(windows, st.windows);
    mailbox += st.mailbox_out;
    queue_peak = std::max(queue_peak, st.max_queue);
  }
  // Every shard's busy + stall is the same window wall time; what
  // run_until spends outside windows is barrier work.
  const double window_s =
      stats.empty() ? 0.0 : stats[0].busy_seconds + stats[0].stall_seconds;
  s["sim.run_s"] = run_s;
  s["sim.events"] = static_cast<double>(events);
  s["sim.busy_s"] = busy;
  s["sim.stall_s"] = stall;
  s["sim.barrier_s"] = run_s - window_s;
  s["sim.windows"] = static_cast<double>(windows);
  s["sim.mailbox_events"] = static_cast<double>(mailbox);
  s["sim.queue_peak"] = static_cast<double>(queue_peak);
  s["sim.events_per_s"] = static_cast<double>(events) / run_s;
}

// --- crawl_k1 ------------------------------------------------------------

struct CrawlRound {
  Sample sample;
  Outputs out;
};

/// One crawl-scale trajectory: build the 10^5-node trust graph, start
/// the overlay on `shards` shards, run to the horizon, measure, verify.
CrawlRound crawl_round(std::uint64_t seed, std::size_t shards, bool profile,
                       bool selftest, Failures& failures) {
  CrawlRound r;
  Sample& s = r.sample;
  const auto setup_start = Clock::now();
  std::optional<graph::Graph> trust;
  s["graph.build_s"] = timed([&] { trust = holme_kim_trust(kCrawlNodes, seed); });
  s["graph.trust_mb"] =
      static_cast<double>(trust->csr()->memory_bytes()) / 1e6;
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(kAlpha, kMeanOffline);
  const overlay::OverlayServiceOptions options = scale_options();
  sim::ShardedSimulator::Options so;
  so.shards = shards;
  so.num_actors = kCrawlNodes;
  so.lookahead = options.transport.min_latency;
  so.profile = profile;
  std::optional<sim::ShardedSimulator> sim;
  std::optional<overlay::ShardedOverlayService> service;
  s["overlay.start_s"] = timed([&] {
    sim.emplace(so);
    service.emplace(*sim, *trust, model, options, seed);
    service->start();
  });
  s["setup_s"] = seconds_since(setup_start);

  const auto wall_start = Clock::now();
  const double run_s = timed([&] { sim->run_until(kCrawlHorizon); });
  r.out = measure(*service, *sim, s);
  add_shard_layers(sim->shard_stats(), run_s, r.out.events, s);
  const perfbench::TrustInput ti = trust_input(*trust);
  perfbench::check_overlay(r.out.overlay, ti, failures);
  s["wall_s"] = seconds_since(wall_start);

  if (selftest) {
    perfbench::selftest_overlay(r.out.overlay, ti, failures);
    perfbench::selftest_fingerprint(r.out.fingerprint, failures);
  }
  r.out.overlay = {};  // keep only the scalars; rounds add up otherwise
  return r;
}

void crawl_workload(const Args& args, Report& report) {
  std::vector<std::uint64_t> events;
  run_rounds(args, report, [&](bool traced, bool first) {
    CrawlRound r = crawl_round(args.seed, 1, traced, first, report.failures);
    (traced ? report.traced : report.untraced).push_back(std::move(r.sample));
    report.fingerprints.push_back(r.out.fingerprint);
    events.push_back(r.out.events);
  });
  const double rss_mb = peak_rss_mb();  // before the K=4 check below
  check_fingerprints(report);

  if (!report.fingerprints.empty()) {
    // K-invariance: the same inputs on several shards must give the same
    // trajectory. Recomputed here on every run, never stored; untimed.
    const CrawlRound sharded = crawl_round(args.seed, kCrawlCheckShards, false,
                                           false, report.failures);
    const std::string what = "K=" + std::to_string(kCrawlCheckShards) + " vs K=1";
    perfbench::check_equal("fingerprint", what, report.fingerprints.front(),
                           sharded.out.fingerprint, report.failures);
    perfbench::check_equal("events", what, events.front(), sharded.out.events,
                           report.failures);
    report.record.emplace_back("k4_check_fingerprint",
                               json_string(hex(sharded.out.fingerprint)));
  }
  std::ostringstream inputs;
  inputs << "holme_kim(n=" << kCrawlNodes << ", m=" << kHolmeKimM
         << ", triad=" << kHolmeKimTriad << "), alpha=" << kAlpha
         << ", horizon=" << kCrawlHorizon << ", shards=1 (checked against "
         << kCrawlCheckShards << "), cache=" << kCacheSize
         << ", shuffle_length=" << kShuffleLength
         << ", target_links=" << kTargetLinks;
  report.record.emplace_back("inputs", json_string(inputs.str()));
  if (!events.empty())
    report.record.emplace_back("events_per_round",
                               json_number(static_cast<double>(events.front())));
  emit_metrics(args, report, rss_mb, joined(kSweepLayers, kCkptLayers));
}

// --- fig3_sweep ----------------------------------------------------------

perfbench::Fig3Table fig3_table(const experiments::SweepFigure& fig) {
  perfbench::Fig3Table table;
  table.alphas = fig.alphas;
  for (const Series& series : fig.connectivity) {
    table.names.push_back(series.name);
    table.values.push_back(series.values);
  }
  return table;
}

/// FNV-1a over the table's exact bits: equal across rounds, traced or not.
std::uint64_t table_fingerprint(const perfbench::Fig3Table& table) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& row : table.values)
    for (const double v : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  return h;
}

void fig3_workload(const Args& args, Report& report) {
  const std::size_t jobs = nproc();
  run_rounds(args, report, [&](bool traced, bool first) {
    Sample s;
    const auto setup_start = Clock::now();
    experiments::WorkbenchOptions wo;
    wo.seed = args.seed;
    wo.social.num_nodes = kBaseNodes;
    wo.trust_nodes = kTrustNodes;
    experiments::Workbench bench(wo);
    const graph::Graph* graphs[] = {&bench.base_graph(), &bench.trust_graph(1.0),
                                    &bench.trust_graph(0.5)};
    s["setup_s"] = s["graph.build_s"] = seconds_since(setup_start);
    double graph_bytes = 0.0;
    for (const graph::Graph* g : graphs) {
      if (g->csr() == nullptr) throw std::runtime_error("workbench graph not in CSR");
      graph_bytes += static_cast<double>(g->csr()->memory_bytes());
    }
    s["graph.trust_mb"] = graph_bytes / 1e6;

    const auto wall_start = Clock::now();
    experiments::FigureScale scale;
    scale.window.warmup = kFig3Warmup;
    scale.window.measure = kFig3Measure;
    scale.window.sample_every = kFig3SampleEvery;
    scale.window.apl_sources = kFig3AplSources;
    scale.alphas = kFig3Alphas;
    scale.seed = args.seed;
    scale.jobs = jobs;
    std::optional<experiments::SweepFigure> fig;
    const double sweep_s =
        timed([&] { fig = experiments::availability_sweep(bench, scale); });
    const runner::SweepTelemetry& tel = fig->telemetry;
    double cells_s = 0.0, max_cell_s = 0.0;
    for (const double c : tel.cell_seconds) {
      cells_s += c;
      max_cell_s = std::max(max_cell_s, c);
    }
    s["runner.cells"] = static_cast<double>(tel.cells);
    s["runner.grid_s"] = tel.wall_seconds;
    s["runner.cell_s"] = cells_s;
    s["runner.max_cell_s"] = max_cell_s;
    s["runner.idle_s"] = static_cast<double>(tel.jobs) * tel.wall_seconds - cells_s;
    s["experiments.serial_s"] = sweep_s - tel.wall_seconds;
    const perfbench::Fig3Table table = fig3_table(*fig);
    perfbench::check_fig3_shape(table, report.failures);
    s["wall_s"] = seconds_since(wall_start);

    if (first) perfbench::selftest_fig3(table, report.failures);
    (traced ? report.traced : report.untraced).push_back(std::move(s));
    report.fingerprints.push_back(table_fingerprint(table));
  });
  const double rss_mb = peak_rss_mb();
  check_fingerprints(report);
  std::ostringstream inputs;
  inputs << "social graph n=" << kBaseNodes << ", trust samples n="
         << kTrustNodes << " (f=1.0, 0.5), alphas=";
  for (std::size_t i = 0; i < kFig3Alphas.size(); ++i)
    inputs << (i ? "," : "") << kFig3Alphas[i];
  inputs << ", warmup=" << kFig3Warmup << ", measure=" << kFig3Measure
         << ", sample_every=" << kFig3SampleEvery
         << ", apl_sources=" << kFig3AplSources
         << ", Table I overlay parameters, serial backend, jobs=" << jobs;
  report.record.emplace_back("inputs", json_string(inputs.str()));
  emit_metrics(args, report, rss_mb, joined(kCellLayers, kCkptLayers));
}

// --- service_ckpt --------------------------------------------------------

overlay::OverlayServiceOptions service_options(std::uint64_t seed) {
  overlay::OverlayServiceOptions options = scale_options();
  // The defended arm, with the same knobs as service mode's --defended.
  const experiments::AdversarySpec defaults;
  options.params.validate_received = true;
  options.params.peer_rate_limit = defaults.peer_rate_limit;
  options.params.peer_rate_window = defaults.peer_rate_window;
  options.params.sampler_min_dwell = defaults.sampler_min_dwell;
  fault::FaultPlan loss;
  loss.drop_probability = kServiceLoss;
  loss.per_link_streams = true;
  options.link_faults = loss;
  options.adversary =
      experiments::make_attack_plan(kAttack, kAdversaryFraction, seed);
  inference::ObserverPlan observer;
  observer.coverage = kObserverCoverage;
  observer.seed = seed ^ 0x0B5E;
  options.observer = observer;
  return options;
}

/// A service on its own simulator; the members are declared so the
/// service is destroyed before the simulator it schedules on.
struct ServiceRun {
  sim::ShardedSimulator sim;
  overlay::ShardedOverlayService service;
  ServiceRun(const sim::ShardedSimulator::Options& so, const graph::Graph& trust,
             const churn::ChurnModel& model,
             const overlay::OverlayServiceOptions& options, std::uint64_t seed)
      : sim(so), service(sim, trust, model, options, seed) {
    service.enable_checkpointing();
  }
};

/// Advances `run` slice by slice from `from` to the horizon, calling
/// `at_boundary(t)` after each slice; returns seconds inside run_until.
double drive(ServiceRun& run, double from,
             const std::function<void(double)>& at_boundary) {
  double run_s = 0.0;
  for (double t = from; t < kServiceHorizon - 1e-9;) {
    t = std::min(t + kServiceSlice, kServiceHorizon);
    run_s += timed([&] { run.sim.run_until(t); });
    run.service.prune_checkpoint_journal();
    at_boundary(t);
  }
  return run_s;
}

void service_workload(const Args& args, Report& report) {
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(kAlpha, kMeanOffline);
  const overlay::OverlayServiceOptions options = service_options(args.seed);
  std::ostringstream inputs;
  inputs << "holme_kim(n=" << kServiceNodes << ", m=" << kHolmeKimM
         << ", triad=" << kHolmeKimTriad << "), alpha=" << kAlpha
         << ", shards=" << kServiceShards << ", horizon=" << kServiceHorizon
         << ", slice=" << kServiceSlice << ", checkpoint_every="
         << kCheckpointEvery << ", resume_from=" << kResumeFrom
         << " (x" << kResumesPerRound << ")"
         << ", loss=" << kServiceLoss << ", adversary=" << kAttack << "@"
         << kAdversaryFraction << " defended, observer=" << kObserverCoverage
         << ", cache=" << kCacheSize << ", shuffle_length=" << kShuffleLength
         << ", target_links=" << kTargetLinks;
  const std::uint64_t config_hash = ckpt::fnv1a(inputs.str(), args.seed);
  std::size_t round_index = 0;

  run_rounds(args, report, [&](bool traced, bool first) {
    Sample s;
    const std::string dir =
        args.scratch + "/ckpt-round" + std::to_string(++round_index);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const auto setup_start = Clock::now();
    std::optional<graph::Graph> trust;
    s["graph.build_s"] =
        timed([&] { trust = holme_kim_trust(kServiceNodes, args.seed); });
    s["graph.trust_mb"] =
        static_cast<double>(trust->csr()->memory_bytes()) / 1e6;
    const std::uint64_t graph_fp = ckpt::fingerprint_graph(*trust);
    sim::ShardedSimulator::Options so;
    so.shards = kServiceShards;
    so.num_actors = kServiceNodes;
    so.lookahead = options.transport.min_latency;
    so.profile = traced;
    auto straight = std::optional<ServiceRun>();
    s["overlay.start_s"] = timed([&] {
      straight.emplace(so, *trust, model, options, args.seed);
      straight->service.start();
    });
    s["setup_s"] = seconds_since(setup_start);

    // Straight-through run with periodic checkpoints. A pause is the
    // time the simulation stands still: encode plus durable write.
    const auto wall_start = Clock::now();
    struct Snapshot {
      std::string path;
      double time;
    };
    std::vector<Snapshot> snapshots;
    std::vector<double> pause_ms, encode_ms, write_ms;
    const double run_s = drive(*straight, 0.0, [&](double t) {
      if (std::fmod(t + 1e-9, kCheckpointEvery) > 1e-6) return;
      ckpt::Writer w;
      const double encode_s = timed([&] { straight->service.save_checkpoint(w); });
      ckpt::Header h;
      h.backend = ckpt::BackendKind::kSharded;
      h.shards_hint = static_cast<std::uint32_t>(kServiceShards);
      h.graph_fingerprint = graph_fp;
      h.config_hash = config_hash;
      h.seed = args.seed;
      h.sim_time = t;
      const std::string path = ckpt::checkpoint_path(
          dir, static_cast<std::uint64_t>(std::llround(t / kServiceSlice)));
      std::string error;
      bool saved = false;
      const double write_s =
          timed([&] { saved = ckpt::save_file(path, h, w.buffer(), &error); });
      if (!saved) throw std::runtime_error("checkpoint write failed: " + error);
      encode_ms.push_back(encode_s * 1e3);
      write_ms.push_back(write_s * 1e3);
      pause_ms.push_back((encode_s + write_s) * 1e3);
      snapshots.push_back({path, t});
    });
    Outputs out = measure(straight->service, straight->sim, s);
    add_shard_layers(straight->sim.shard_stats(), run_s, out.events, s);
    straight.reset();
    if (snapshots.empty() || snapshots.back().time != kServiceHorizon)
      throw std::runtime_error("no checkpoint at the horizon");
    s["ckpt.file_mb"] =
        static_cast<double>(std::filesystem::file_size(snapshots.back().path)) /
        1e6;
    s["ckpt.pause_ms"] = median(pause_ms);
    s["ckpt.encode_ms"] = median(encode_ms);
    s["ckpt.write_ms"] = median(write_ms);

    // Resume from the mid-run snapshot into fresh services, each timed;
    // the last finishes the run and must land on the straight-through
    // trajectory.
    const auto mid = std::find_if(snapshots.begin(), snapshots.end(),
                                  [](const Snapshot& x) { return x.time == kResumeFrom; });
    if (mid == snapshots.end()) throw std::runtime_error("no mid-run checkpoint");
    std::vector<double> load_s, restore_s, resume_s;
    std::optional<ServiceRun> resumed;
    for (int i = 0; i < kResumesPerRound; ++i) {
      resumed.reset();
      resumed.emplace(so, *trust, model, options, args.seed);
      const auto resume_start = Clock::now();
      ckpt::LoadResult loaded;
      load_s.push_back(timed([&] { loaded = ckpt::load_file(mid->path); }));
      ckpt::Status status = loaded.status;
      if (status == ckpt::Status::kOk)
        status = ckpt::check_compat(loaded.header, ckpt::BackendKind::kSharded,
                                    graph_fp, config_hash);
      if (status != ckpt::Status::kOk)
        throw std::runtime_error(std::string("mid-run checkpoint rejected: ") +
                                 ckpt::status_name(status) + " " +
                                 loaded.message);
      restore_s.push_back(timed([&] {
        ckpt::Reader reader(loaded.payload);
        resumed->service.restore_from_checkpoint(reader);
      }));
      resume_s.push_back(seconds_since(resume_start));
    }
    s["ckpt.load_s"] = median(load_s);
    s["ckpt.restore_s"] = median(restore_s);
    s["ckpt.resume_s"] = median(resume_s);
    drive(*resumed, kResumeFrom, [](double) {});
    Sample resumed_layers;
    const Outputs resumed_out = measure(resumed->service, resumed->sim, resumed_layers);
    resumed.reset();
    perfbench::check_equal("fingerprint", "resumed vs straight-through",
                           out.fingerprint, resumed_out.fingerprint,
                           report.failures);
    perfbench::check_equal("events", "resumed vs straight-through", out.events,
                           resumed_out.events, report.failures);

    for (const Snapshot& snap : snapshots) {
      const ckpt::LoadResult lr = ckpt::load_file(snap.path);
      ckpt::Status st = lr.status;
      if (st == ckpt::Status::kOk)
        st = ckpt::check_compat(lr.header, ckpt::BackendKind::kSharded,
                                graph_fp, config_hash);
      if (st != ckpt::Status::kOk || lr.header.sim_time != snap.time)
        report.failures.push_back(
            {"checkpoint_load", snap.path + ": " + ckpt::status_name(st) +
                                    " " + lr.message});
    }
    const perfbench::TrustInput ti = trust_input(*trust);
    perfbench::check_overlay(out.overlay, ti, report.failures);
    s["wall_s"] = seconds_since(wall_start);
    std::filesystem::remove_all(dir);

    if (first) {
      perfbench::selftest_overlay(out.overlay, ti, report.failures);
      perfbench::selftest_fingerprint(out.fingerprint, report.failures);
    }
    (traced ? report.traced : report.untraced).push_back(std::move(s));
    report.fingerprints.push_back(out.fingerprint);
  });
  const double rss_mb = peak_rss_mb();
  check_fingerprints(report);
  report.record.emplace_back("inputs", json_string(inputs.str()));
  emit_metrics(args, report, rss_mb, kSweepLayers);
}

// --- output --------------------------------------------------------------

void print_report(const Args& args, const Report& report) {
  const bool correct = report.failures.empty() &&
                       report.attempted > report.failed &&
                       !report.metrics.empty();
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i)
    os << (i ? ", " : "") << json_string(report.metrics[i].first) << ": "
       << report.metrics[i].second;
  os << "}, \"record\": {\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"nproc\": " << nproc()
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"rounds_untraced\": " << report.untraced.size()
     << ", \"rounds_traced\": " << report.traced.size()
     << ", \"per_round\": {";
  // Every untraced round's end-to-end values, so a median can be traced
  // back to the rounds behind it.
  std::vector<std::string> names = {"steal_share"};
  for (const MetricDef& def : kEndToEnd) names.push_back(def.name);
  bool first_metric = true;
  for (const std::string& name : names) {
    if (report.untraced.empty() || report.untraced[0].count(name) == 0)
      continue;
    os << (first_metric ? "" : ", ") << json_string(name) << ": [";
    first_metric = false;
    for (std::size_t i = 0; i < report.untraced.size(); ++i)
      os << (i ? ", " : "") << json_number(report.untraced[i].at(name));
    os << "]";
  }
  os << "}";
  if (!report.fingerprints.empty())
    os << ", \"fingerprint\": " << json_string(hex(report.fingerprints.front()));
  for (const auto& [key, value] : report.record)
    os << ", " << json_string(key) << ": " << value;
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    os << (i ? ", " : "") << json_string(report.failures[i].check + ": " +
                                         report.failures[i].detail);
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  set_log_level(LogLevel::kWarn);
  static const std::map<std::string, std::function<void(const Args&, Report&)>>
      kWorkloads = {
          {"crawl_k1", crawl_workload},
          {"fig3_sweep", fig3_workload},
          {"service_ckpt", service_workload},
      };
  const auto it = kWorkloads.find(args.workload);
  if (it == kWorkloads.end()) usage_error("unknown workload '" + args.workload + "'");
  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  print_report(args, report);
  return 0;
}
