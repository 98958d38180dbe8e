#include "experiments/figures.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "common/stats.hpp"

namespace ppo::experiments {

namespace {

OverlayScenario base_scenario(const FigureScale& scale, double alpha,
                              std::uint64_t seed_salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ seed_salt;
  // Table I: lifetime = 3 x Toff.
  scenario.params.pseudonym_lifetime = 3.0 * scenario.churn.mean_offline;
  scenario.shards = scale.shards;
  scenario.warm_start_dir = scale.warm_start_dir;
  return scenario;
}

runner::SweepOptions sweep_options(std::size_t jobs, std::uint64_t seed,
                                   const char* label, bool progress = false) {
  runner::SweepOptions opt;
  opt.jobs = jobs;
  opt.root_seed = seed;
  opt.progress = progress;
  opt.label = label;
  return opt;
}

runner::SweepOptions sweep_options(const FigureScale& scale,
                                   const char* label) {
  return sweep_options(scale.jobs, scale.seed, label, scale.progress);
}

std::string loss_label(const char* prefix, double loss) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-loss%.2f", prefix, loss);
  return buf;
}

/// One time-series run of Figures 8/9 and its health rollup.
struct TraceCell {
  metrics::TimeSeries series;
  metrics::ProtocolHealth health;
};

/// Moves a trace into its figure slot under the slot's name; returns
/// the run's health.
metrics::ProtocolHealth take(metrics::TimeSeries& slot, TraceCell& cell) {
  cell.series.set_name(slot.name());
  slot = std::move(cell.series);
  return cell.health;
}

/// What one simulation run contributes to its series at one cell.
/// Static baselines leave `health` zero.
struct CellValue {
  double conn = 0.0;
  double napl = 0.0;
  metrics::ProtocolHealth health;
};

CellValue value_of(const StaticRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(), {}};
}

CellValue value_of(const OverlayRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(),
          run.health};
}

/// One output series of an alpha sweep. `run` is one simulation run:
/// the series' value at one cell, given that cell's base scenario. The
/// cell is the alpha-major index i = a*R + r and the scenario's seed is
/// scale.seed ^ (cell_salt + i); with R = 1 that is the historical
/// per-alpha seed, so every trajectory is unchanged.
struct SeriesSpec {
  std::string name;
  bool overlay;  // protocol runs cost far more than static baselines
  std::function<CellValue(OverlayScenario cell)> run;
};

/// A static baseline: graph `g` under the cell's churn, seed ^ `salt`.
SeriesSpec static_series(std::string name, const graph::Graph& g,
                         std::uint64_t salt) {
  return {std::move(name), false, [&g, salt](const OverlayScenario& s) {
            return value_of(run_static(g, s.churn, s.window, s.seed ^ salt));
          }};
}

/// An alpha sweep's values in fixed [cell][series] slots, and the
/// wall-clock accounting of every grid that filled them.
struct SweepValues {
  SweepValues(const FigureScale& scale, std::uint64_t cell_salt)
      : cell_salt(cell_salt),
        replicas(std::max<std::size_t>(1, scale.replicas)),
        cells(scale.alphas.size() * replicas) {}

  std::uint64_t cell_salt;
  std::size_t replicas;
  std::vector<std::string> names;             // series, in slot order
  std::vector<std::vector<CellValue>> cells;  // [cell][series]
  runner::SweepTelemetry telemetry;           // one telemetry cell per run
};

/// Appends `series` to `out` and runs each of them at every cell as its
/// own pool task. The FIFO pool gets the tasks longest first — `lead`
/// (when set), then the overlay runs, then the static runs, each from
/// the highest alpha down — a greedy longest-first schedule. Seeds
/// depend only on the cell, and each task writes only its own slot, so
/// the order moves wall time, never a value.
void run_series(const FigureScale& scale, const char* label,
                const std::vector<SeriesSpec>& series, SweepValues& out,
                const std::function<void()>& lead = {}) {
  const std::size_t first_slot = out.names.size();
  for (const SeriesSpec& s : series) out.names.push_back(s.name);
  for (auto& cell : out.cells) cell.resize(out.names.size());

  std::vector<std::pair<std::size_t, std::size_t>> runs;  // (cell, series)
  for (std::size_t cell = 0; cell < out.cells.size(); ++cell)
    for (std::size_t j = 0; j < series.size(); ++j) runs.emplace_back(cell, j);
  const auto cost = [&](const auto& run) {  // (overlay, alpha): higher first
    return std::pair(series[run.second].overlay,
                     scale.alphas[run.first / out.replicas]);
  };
  std::ranges::stable_sort(runs, std::greater<>{}, cost);

  const std::size_t leads = lead ? 1 : 0;
  runner::SweepTelemetry grid = runner::run_indexed(
      leads + runs.size(), sweep_options(scale, label),
      [&](const runner::CellInfo& task) {
        if (task.index < leads) return lead();
        const auto [cell, j] = runs[task.index - leads];
        out.cells[cell][first_slot + j] = series[j].run(base_scenario(
            scale, scale.alphas[cell / out.replicas], out.cell_salt + cell));
      });

  out.telemetry.cells += grid.cells;
  out.telemetry.jobs = grid.jobs;
  out.telemetry.wall_seconds += grid.wall_seconds;
  auto& seconds = out.telemetry.cell_seconds;
  seconds.insert(seconds.end(), grid.cell_seconds.begin(),
                 grid.cell_seconds.end());
}

/// Builds the figure from the values: per-series means and 95%
/// confidence half-widths over each alpha's replicas, and health rolled
/// up over every cell. Runs after the barrier, in alpha-then-replica
/// order, so nothing depends on which worker finished first.
template <typename Figure>
Figure summarize(const FigureScale& scale, SweepValues&& values) {
  constexpr bool kCompletion = requires(Figure f) { f.completion; };
  Figure fig;
  fig.alphas = scale.alphas;
  fig.replicas = values.replicas;
  fig.health.resize(values.names.size());
  const auto add = [](std::vector<Series>& mean, std::vector<Series>& ci,
                      const RunningStats& stats) {
    mean.back().values.push_back(stats.mean());
    ci.back().values.push_back(ci95_half_width(stats));
  };
  for (std::size_t j = 0; j < values.names.size(); ++j) {
    const Series named{values.names[j], {}};
    for (auto* series : {&fig.connectivity, &fig.connectivity_ci, &fig.napl,
                         &fig.napl_ci})
      series->push_back(named);
    if constexpr (kCompletion) {
      fig.completion.push_back(named);
      fig.completion_ci.push_back(named);
    }
    for (std::size_t a = 0; a < scale.alphas.size(); ++a) {
      RunningStats conn, napl, completion;
      for (std::size_t r = 0; r < values.replicas; ++r) {
        const CellValue& v = values.cells[a * values.replicas + r][j];
        conn.add(v.conn);
        napl.add(v.napl);
        completion.add(v.health.completion_rate());
        fig.health[j].merge(v.health);
      }
      add(fig.connectivity, fig.connectivity_ci, conn);
      add(fig.napl, fig.napl_ci, napl);
      if constexpr (kCompletion)
        add(fig.completion, fig.completion_ci, completion);
    }
  }
  fig.telemetry = std::move(values.telemetry);
  return fig;
}

/// Common shape of the Figure 3/4 and Figure 7 sweeps: the spec's
/// series, plus a trailing "random" series measured on ONE Erdős–Rényi
/// reference sized from a converged overlay run at the highest alpha —
/// the paper compares against a fixed random graph "of similar size
/// and average fan-out", not one resized per churn level.
struct AlphaSweepSpec {
  const char* label;
  std::uint64_t cell_salt;         // see SeriesSpec
  std::vector<SeriesSpec> series;  // every series but "random"
  std::uint64_t random_salt;       // the random run's seed: cell seed ^ this
  std::uint64_t sizing_salt;       // seed salt of the ER sizing run
  std::uint64_t er_seed_salt;      // salt of the ER construction seed
};

SweepFigure run_alpha_sweep(Workbench& bench, const FigureScale& scale,
                            const AlphaSweepSpec& spec) {
  SweepValues values(scale, spec.cell_salt);

  // The sizing run is the longest run of the sweep, so it leads the
  // first grid alongside every run that does not need the ER graph.
  const graph::Graph& sizing_trust = bench.trust_graph(0.5);
  const double alpha_max =
      *std::max_element(scale.alphas.begin(), scale.alphas.end());
  double sizing_edges = 0.0;
  run_series(scale, spec.label, spec.series, values, [&] {
    sizing_edges =
        run_overlay(sizing_trust,
                    base_scenario(scale, alpha_max, spec.sizing_salt))
            .stats.total_edges.mean();
  });
  const graph::Graph er = er_reference(
      sizing_trust.num_nodes(),
      static_cast<std::size_t>(std::llround(sizing_edges)),
      scale.seed ^ spec.er_seed_salt);

  // The random series alone needs the ER graph: a second, short grid.
  run_series(scale, spec.label, {static_series("random", er, spec.random_salt)},
             values);
  return summarize<SweepFigure>(scale, std::move(values));
}

}  // namespace

SweepFigure availability_sweep(Workbench& bench, const FigureScale& scale) {
  const graph::Graph& t10 = bench.trust_graph(1.0);
  const graph::Graph& t05 = bench.trust_graph(0.5);
  return run_alpha_sweep(
      bench, scale,
      {.label = "availability-sweep",
       .cell_salt = 101,
       .series = {static_series("trust-f1.0", t10, 1),
                  static_series("trust-f0.5", t05, 2),
                  {"overlay-f1.0", true,
                   [&](OverlayScenario s) {
                     return value_of(run_overlay(t10, s));
                   }},
                  {"overlay-f0.5", true,
                   [&](OverlayScenario s) {
                     s.seed ^= 0x51;
                     return value_of(run_overlay(t05, s));
                   }}},
       .random_salt = 0x51 ^ 3,
       .sizing_salt = 99,
       .er_seed_salt = 0xE6});
}

SweepFigure lifetime_sweep(Workbench& bench, const FigureScale& scale) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  static constexpr std::pair<const char*, double> kRatios[] = {
      {"r1", 1.0}, {"r3", 3.0}, {"r9", 9.0}, {"r-infinite", -1.0}};

  std::vector<SeriesSpec> series{static_series("trust-graph", trust, 1)};
  for (std::size_t k = 0; k < std::size(kRatios); ++k)
    series.push_back({kRatios[k].first, true, [&, k](OverlayScenario s) {
                        s.seed ^= (k + 2) * 0x91;
                        s.params.pseudonym_lifetime =
                            kRatios[k].second < 0
                                ? kInfiniteLifetime
                                : kRatios[k].second * s.churn.mean_offline;
                        return value_of(run_overlay(trust, s));
                      }});
  return run_alpha_sweep(bench, scale,
                         {.label = "lifetime-sweep",
                          .cell_salt = 211,
                          .series = std::move(series),
                          .random_salt = 8,
                          .sizing_salt = 199,
                          .er_seed_salt = 0xE7});
}

DegreeFigure degree_distributions(Workbench& bench, const FigureScale& scale,
                                  const std::vector<double>& fs) {
  // Build the trust graphs up front: cells must not race on the
  // workbench cache, and prefetching keeps cell wall times honest.
  for (const double f : fs) bench.trust_graph(f);

  auto grid = runner::run_grid(
      fs, sweep_options(scale, "degree-distributions"),
      [&](double f, const runner::CellInfo& cell) {
        const graph::Graph& trust = bench.trust_graph(f);
        OverlayScenario scenario =
            base_scenario(scale, 0.5, 311 + cell.index);

        const auto s_trust =
            run_static(trust, scenario.churn, scale.window, scenario.seed ^ 1);
        const auto o = run_overlay(trust, scenario);
        const auto er = er_reference(trust.num_nodes(), o.final_total_edges,
                                     scenario.seed ^ 5);
        const auto s_er =
            run_static(er, scenario.churn, scale.window, scenario.seed ^ 6);

        return DegreeFigure::PerF{f, s_trust.final_degree, o.final_degree,
                                  s_er.final_degree, o.health};
      });

  DegreeFigure fig;
  fig.entries = std::move(grid.cells);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

MessageFigure message_overhead(Workbench& bench, const FigureScale& scale,
                               const std::vector<double>& fs) {
  for (const double f : fs) bench.trust_graph(f);

  auto grid = runner::run_grid(
      fs, sweep_options(scale, "message-overhead"),
      [&](double f, const runner::CellInfo& cell) {
        const graph::Graph& trust = bench.trust_graph(f);
        const OverlayScenario scenario =
            base_scenario(scale, 0.5, 411 + cell.index);
        const auto run = run_overlay(trust, scenario);

        MessageFigure::PerF entry;
        entry.f = f;
        entry.health = run.health;
        entry.rows.reserve(run.per_node.size());
        for (std::size_t v = 0; v < run.per_node.size(); ++v) {
          const auto& pn = run.per_node[v];
          entry.rows.push_back(MessageFigure::Row{
              0, pn.trust_degree, pn.max_out_degree,
              pn.messages_per_online_period});
        }
        std::sort(entry.rows.begin(), entry.rows.end(),
                  [](const auto& a, const auto& b) {
                    return a.trust_degree > b.trust_degree;
                  });
        double total = 0.0;
        for (std::size_t r = 0; r < entry.rows.size(); ++r) {
          entry.rows[r].rank = r + 1;
          total += entry.rows[r].messages_per_period;
        }
        entry.mean_messages =
            entry.rows.empty()
                ? 0.0
                : total / static_cast<double>(entry.rows.size());
        return entry;
      });

  MessageFigure fig;
  fig.entries = std::move(grid.cells);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

ConvergenceFigure convergence_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  ConvergenceFigure fig;

  ChurnSpec churn;
  churn.alpha = 0.25;

  // Three independent runs: the static trust baseline and the overlay
  // at r = 3 and r = 9.
  const auto run = [&](const runner::CellInfo& cell) {
    TraceCell out;
    if (cell.index == 0) {
      out.series =
          run_static_trace(trust, churn, horizon, sample_every, seed ^ 1);
      return out;
    }
    const double ratio = cell.index == 1 ? 3.0 : 9.0;
    OverlayScenario scenario;
    scenario.churn = churn;
    scenario.seed = seed ^ static_cast<std::uint64_t>(ratio);
    scenario.params.pseudonym_lifetime = ratio * churn.mean_offline;
    OverlayTraceSpec spec;
    spec.horizon = horizon;
    spec.sample_every = sample_every;
    spec.track_connectivity = true;
    auto trace = run_overlay_trace(trust, scenario, spec);
    out.series = std::move(trace.connectivity);
    out.health = trace.health;
    return out;
  };
  auto grid =
      runner::run_grid(3, sweep_options(jobs, seed, "convergence-trace"), run);

  take(fig.trust, grid.cells[0]);
  fig.health_r3 = take(fig.overlay_r3, grid.cells[1]);
  fig.health_r9 = take(fig.overlay_r9, grid.cells[2]);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

FaultFigure fault_tolerance_sweep(Workbench& bench, const FigureScale& scale,
                                  const FaultToleranceSpec& spec) {
  const graph::Graph& trust = bench.trust_graph(0.5);

  std::vector<SeriesSpec> series{
      {"lossless", true, [&](const OverlayScenario& s) {
         return value_of(run_overlay(trust, s));  // no plan, no timer
       }}};
  for (std::size_t k = 0; k < spec.loss_rates.size(); ++k) {
    // Each loss rate runs with retries and then, on the same loss
    // pattern, without: the degradation the hardening buys back.
    for (const bool retry : {true, false}) {
      series.push_back(
          {loss_label(retry ? "retry" : "no-retry", spec.loss_rates[k]), true,
           [&, k, retry](OverlayScenario lossy) {
             fault::FaultPlan plan;
             plan.drop_probability = spec.loss_rates[k];
             plan.seed = lossy.seed ^ (0xFA0000 + k);
             plan.per_link_streams = lossy.shards > 0;
             lossy.faults = plan;
             lossy.params.shuffle_timeout = spec.shuffle_timeout;
             lossy.params.shuffle_retry_backoff = spec.retry_backoff;
             lossy.params.shuffle_max_retries = retry ? spec.max_retries : 0;
             return value_of(run_overlay(trust, lossy));
           }});
    }
  }
  SweepValues values(scale, 511);
  run_series(scale, "fault-tolerance-sweep", series, values);
  return summarize<FaultFigure>(scale, std::move(values));
}

ReplacementFigure replacement_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  ReplacementFigure fig;
  static constexpr double kRatios[] = {3.0, 9.0, -1.0};

  auto grid = runner::run_grid(
      std::size(kRatios), sweep_options(jobs, seed, "replacement-trace"),
      [&](const runner::CellInfo& cell) {
        const double ratio = kRatios[cell.index];
        OverlayScenario scenario;
        scenario.churn.alpha = 0.25;
        scenario.seed = seed ^ static_cast<std::uint64_t>(ratio + 100);
        scenario.params.pseudonym_lifetime =
            ratio < 0 ? kInfiniteLifetime
                      : ratio * scenario.churn.mean_offline;
        OverlayTraceSpec spec;
        spec.horizon = horizon;
        spec.sample_every = sample_every;
        spec.track_connectivity = false;
        spec.track_replacements = true;
        auto trace = run_overlay_trace(trust, scenario, spec);
        return TraceCell{std::move(trace.replacements), trace.health};
      });

  fig.health_r3 = take(fig.r3, grid.cells[0]);
  fig.health_r9 = take(fig.r9, grid.cells[1]);
  fig.health_r_infinite = take(fig.r_infinite, grid.cells[2]);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

}  // namespace ppo::experiments
