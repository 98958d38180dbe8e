// Parallel-vs-serial determinism of the figure sweeps: the same root
// seed must produce byte-identical results at --jobs 1 and --jobs 8.
// This is the acceptance gate for running the paper's evaluation
// artefacts on the ppo_runner pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include "experiments/figure_json.hpp"
#include "experiments/figures.hpp"
#include "runner/json.hpp"

#ifndef PPO_SOURCE_DIR
#error "PPO_SOURCE_DIR must point at the repository root"
#endif

namespace ppo::experiments {
namespace {

WorkbenchOptions tiny_bench() {
  WorkbenchOptions opts;
  opts.seed = 17;
  opts.social.num_nodes = 3000;
  opts.social.sub_community_size = 50;
  opts.social.community_size = 500;
  opts.trust_nodes = 150;
  return opts;
}

FigureScale tiny_scale(std::size_t jobs) {
  FigureScale scale;
  scale.window.warmup = 40.0;
  scale.window.measure = 20.0;
  scale.window.sample_every = 10.0;
  scale.window.apl_sources = 8;
  scale.alphas = {0.25, 0.75};
  scale.seed = 3;
  scale.jobs = jobs;
  return scale;
}

void expect_identical(const std::vector<Series>& a,
                      const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].name, b[j].name);
    ASSERT_EQ(a[j].values.size(), b[j].values.size());
    for (std::size_t i = 0; i < a[j].values.size(); ++i)
      EXPECT_EQ(a[j].values[i], b[j].values[i])
          << a[j].name << " diverges at alpha index " << i;
  }
}

TEST(ParallelFigures, AvailabilitySweepIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  const auto serial = availability_sweep(serial_bench, tiny_scale(1));
  const auto parallel = availability_sweep(parallel_bench, tiny_scale(8));

  EXPECT_EQ(serial.telemetry.jobs, 1u);
  EXPECT_EQ(parallel.telemetry.jobs, 8u);
  EXPECT_EQ(serial.alphas, parallel.alphas);
  expect_identical(serial.connectivity, parallel.connectivity);
  expect_identical(serial.napl, parallel.napl);
}

TEST(ParallelFigures, LifetimeSweepIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  FigureScale scale = tiny_scale(1);
  scale.alphas = {0.25};  // one cell keeps the doubled cost in check
  const auto serial = lifetime_sweep(serial_bench, scale);
  scale.jobs = 8;
  const auto parallel = lifetime_sweep(parallel_bench, scale);
  expect_identical(serial.connectivity, parallel.connectivity);
  expect_identical(serial.napl, parallel.napl);
}

TEST(ParallelFigures, ConvergenceTraceIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  const auto serial = convergence_trace(serial_bench, 100.0, 20.0, 11, 1);
  const auto parallel = convergence_trace(parallel_bench, 100.0, 20.0, 11, 8);
  EXPECT_EQ(serial.trust.times(), parallel.trust.times());
  EXPECT_EQ(serial.trust.values(), parallel.trust.values());
  EXPECT_EQ(serial.overlay_r3.values(), parallel.overlay_r3.values());
  EXPECT_EQ(serial.overlay_r9.values(), parallel.overlay_r9.values());
}

TEST(ParallelFigures, SweepJsonCarriesSeriesScaleAndTelemetry) {
  Workbench bench(tiny_bench());
  const FigureScale scale = tiny_scale(2);
  const auto fig = availability_sweep(bench, scale);

  const runner::Json j = to_json(fig);
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("alphas").size(), 2u);
  EXPECT_EQ(j.at("connectivity").size(), 5u);
  EXPECT_EQ(j.at("connectivity").at(0).at("name").as_string(), "trust-f1.0");
  EXPECT_EQ(j.at("connectivity").at(0).at("values").size(), 2u);
  // One telemetry cell per simulation run: the ER sizing run, 2 alphas
  // x 4 series in the first grid, then 2 random-graph runs.
  EXPECT_EQ(j.at("telemetry").at("cells").as_uint(), 11u);
  EXPECT_EQ(j.at("telemetry").at("jobs").as_uint(), 2u);
  EXPECT_EQ(j.at("telemetry").at("cell_seconds").size(), 11u);

  // The document survives a dump/parse round trip unchanged.
  EXPECT_EQ(runner::Json::parse(j.dump(2)), j);

  const runner::Json scale_json = to_json(scale);
  EXPECT_EQ(scale_json.at("seed").as_uint(), 3u);
  EXPECT_EQ(scale_json.at("jobs").as_uint(), 2u);
  EXPECT_DOUBLE_EQ(scale_json.at("warmup").as_double(), 40.0);
}

// --- Seed derivation -----------------------------------------------------
// The alpha sweeps document each run's seed: cell i = a*R + r starts
// from scale.seed ^ (salt + i) and each series xors in its own constant.
// Recomputing one alpha cell from those salts with direct
// run_overlay/run_static calls must match the sweep bit for bit, at any
// job count and replica count.

struct Sample {
  double conn = 0.0;
  double napl = 0.0;
  double completion = 0.0;
};

Sample sample_of(const StaticRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(), 0.0};
}

Sample sample_of(const OverlayRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(),
          run.health.completion_rate()};
}

/// The sweeps' per-run scenario: Table I lifetime = 3 x Toff.
OverlayScenario scenario_at(const FigureScale& scale, double alpha,
                            std::uint64_t seed) {
  OverlayScenario s;
  s.churn.alpha = alpha;
  s.window = scale.window;
  s.seed = seed;
  s.params.pseudonym_lifetime = 3.0 * s.churn.mean_offline;
  return s;
}

/// The shared Erdős–Rényi reference: sized by an overlay run on the
/// f = 0.5 trust graph at the highest alpha.
graph::Graph er_of(Workbench& bench, const FigureScale& scale,
                   std::uint64_t sizing_salt, std::uint64_t er_salt) {
  const graph::Graph& t05 = bench.trust_graph(0.5);
  const double alpha_max =
      *std::max_element(scale.alphas.begin(), scale.alphas.end());
  const auto sizing =
      run_overlay(t05, scenario_at(scale, alpha_max, scale.seed ^ sizing_salt));
  return er_reference(
      t05.num_nodes(),
      static_cast<std::size_t>(std::llround(sizing.stats.total_edges.mean())),
      scale.seed ^ er_salt);
}

using Samples = std::vector<std::vector<Sample>>;  // [series][replica]

Samples availability_direct(Workbench& bench, const FigureScale& scale,
                            std::size_t a) {
  const graph::Graph& t10 = bench.trust_graph(1.0);
  const graph::Graph& t05 = bench.trust_graph(0.5);
  const graph::Graph er = er_of(bench, scale, 99, 0xE6);
  const double alpha = scale.alphas[a];
  Samples out(5);
  for (std::size_t r = 0; r < scale.replicas; ++r) {
    const std::uint64_t seed = scale.seed ^ (101 + a * scale.replicas + r);
    const OverlayScenario s = scenario_at(scale, alpha, seed);
    out[0].push_back(sample_of(run_static(t10, s.churn, s.window, seed ^ 1)));
    out[1].push_back(sample_of(run_static(t05, s.churn, s.window, seed ^ 2)));
    out[2].push_back(sample_of(run_overlay(t10, s)));
    out[3].push_back(
        sample_of(run_overlay(t05, scenario_at(scale, alpha, seed ^ 0x51))));
    out[4].push_back(
        sample_of(run_static(er, s.churn, s.window, seed ^ 0x51 ^ 3)));
  }
  return out;
}

Samples lifetime_direct(Workbench& bench, const FigureScale& scale,
                        std::size_t a) {
  const graph::Graph& t05 = bench.trust_graph(0.5);
  const graph::Graph er = er_of(bench, scale, 199, 0xE7);
  const double ratios[] = {1.0, 3.0, 9.0, -1.0};
  const double alpha = scale.alphas[a];
  Samples out(6);
  for (std::size_t r = 0; r < scale.replicas; ++r) {
    const std::uint64_t seed = scale.seed ^ (211 + a * scale.replicas + r);
    const OverlayScenario s = scenario_at(scale, alpha, seed);
    out[0].push_back(sample_of(run_static(t05, s.churn, s.window, seed ^ 1)));
    for (std::size_t k = 0; k < 4; ++k) {
      OverlayScenario v = scenario_at(scale, alpha, seed ^ ((k + 2) * 0x91));
      v.params.pseudonym_lifetime =
          ratios[k] < 0 ? kInfiniteLifetime : ratios[k] * v.churn.mean_offline;
      out[1 + k].push_back(sample_of(run_overlay(t05, v)));
    }
    out[5].push_back(sample_of(run_static(er, s.churn, s.window, seed ^ 8)));
  }
  return out;
}

Samples fault_direct(Workbench& bench, const FigureScale& scale,
                     const FaultToleranceSpec& spec, std::size_t a) {
  const graph::Graph& t05 = bench.trust_graph(0.5);
  const double alpha = scale.alphas[a];
  Samples out(1 + 2 * spec.loss_rates.size());
  for (std::size_t r = 0; r < scale.replicas; ++r) {
    const std::uint64_t seed = scale.seed ^ (511 + a * scale.replicas + r);
    const OverlayScenario lossless = scenario_at(scale, alpha, seed);
    out[0].push_back(sample_of(run_overlay(t05, lossless)));
    for (std::size_t k = 0; k < spec.loss_rates.size(); ++k) {
      OverlayScenario lossy = lossless;
      fault::FaultPlan plan;
      plan.drop_probability = spec.loss_rates[k];
      plan.seed = seed ^ (0xFA0000 + k);
      lossy.faults = plan;
      lossy.params.shuffle_timeout = spec.shuffle_timeout;
      lossy.params.shuffle_retry_backoff = spec.retry_backoff;
      lossy.params.shuffle_max_retries = spec.max_retries;
      out[1 + 2 * k].push_back(sample_of(run_overlay(t05, lossy)));
      lossy.params.shuffle_max_retries = 0;
      out[2 + 2 * k].push_back(sample_of(run_overlay(t05, lossy)));
    }
  }
  return out;
}

/// Expects `series[j].values[a]` to be the replica mean of samples[j].
template <typename Field>
void expect_means(const std::vector<Series>& series, std::size_t a,
                  const Samples& samples, Field field,
                  const std::string& context) {
  ASSERT_EQ(series.size(), samples.size()) << context;
  for (std::size_t j = 0; j < series.size(); ++j) {
    RunningStats stats;
    for (const Sample& s : samples[j]) stats.add(s.*field);
    EXPECT_EQ(series[j].values.at(a), stats.mean())
        << context << ", series " << series[j].name;
  }
}

TEST(ParallelFigures, SweepSeedsFollowTheDocumentedSalts) {
  // Seeds, not convergence, are under test: a small graph and short
  // window keep the 2 x 2 grid of sweeps cheap.
  WorkbenchOptions small = tiny_bench();
  small.trust_nodes = 80;
  Workbench bench(small);
  FaultToleranceSpec fault_spec;
  fault_spec.loss_rates = {0.2};
  const std::size_t a = 1;  // the alpha = 0.75 cell
  for (const std::size_t replicas : {1, 2}) {
    FigureScale scale = tiny_scale(1);
    scale.window.warmup = 10.0;
    scale.window.measure = 10.0;
    scale.replicas = replicas;
    const Samples avail = availability_direct(bench, scale, a);
    const Samples life = lifetime_direct(bench, scale, a);
    const Samples fault = fault_direct(bench, scale, fault_spec, a);
    for (const std::size_t jobs : {1, 4}) {
      scale.jobs = jobs;
      const std::string at = "replicas " + std::to_string(replicas) +
                             ", jobs " + std::to_string(jobs);
      const auto fig3 = availability_sweep(bench, scale);
      expect_means(fig3.connectivity, a, avail, &Sample::conn, "fig3 " + at);
      expect_means(fig3.napl, a, avail, &Sample::napl, "fig3 " + at);
      const auto fig7 = lifetime_sweep(bench, scale);
      expect_means(fig7.connectivity, a, life, &Sample::conn, "fig7 " + at);
      expect_means(fig7.napl, a, life, &Sample::napl, "fig7 " + at);
      const auto faults = fault_tolerance_sweep(bench, scale, fault_spec);
      expect_means(faults.connectivity, a, fault, &Sample::conn, "fault " + at);
      expect_means(faults.napl, a, fault, &Sample::napl, "fault " + at);
      expect_means(faults.completion, a, fault, &Sample::completion,
                   "fault " + at);
    }
  }
}

// The committed Figure 3 baseline is written by the current envelope:
// bench_diff compares it field by field against fresh CI runs.
TEST(ParallelFigures, CommittedFig3BaselineIsAtTheCurrentSchema) {
  std::ifstream in(std::string(PPO_SOURCE_DIR) + "/BENCH_fig3.json");
  ASSERT_TRUE(in) << "BENCH_fig3.json missing from the repository root";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const runner::Json doc = runner::Json::parse(text);
  EXPECT_EQ(doc.at("artefact").as_string(), "fig3_connectivity");
  EXPECT_EQ(doc.at("schema_version").as_int(), kFigureJsonSchemaVersion);
  EXPECT_GE(doc.at("cores").as_uint(), 1u);
  EXPECT_EQ(doc.at("figure").at("telemetry").at("cells").as_uint(),
            doc.at("figure").at("telemetry").at("cell_seconds").size());
}

}  // namespace
}  // namespace ppo::experiments
