#include "experiments/adversary_study.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace ppo::experiments {

adversary::AdversaryPlan make_attack_plan(const std::string& attack,
                                          double fraction,
                                          std::uint64_t seed) {
  adversary::AdversaryPlan plan;
  plan.seed = seed;
  if (attack == "pollute") {
    plan.polluter_fraction = fraction;
  } else if (attack == "eclipse") {
    plan.eclipser_fraction = fraction;
  } else if (attack == "drop") {
    plan.dropper_fraction = fraction;
  } else if (attack == "replay") {
    plan.replayer_fraction = fraction;
  } else if (attack == "mixed") {
    plan.polluter_fraction = fraction / 4.0;
    plan.eclipser_fraction = fraction / 4.0;
    plan.dropper_fraction = fraction / 4.0;
    plan.replayer_fraction = fraction / 4.0;
  } else {
    PPO_CHECK_MSG(false, "unknown attack name");
  }
  plan.validate();
  return plan;
}

namespace {

OverlayScenario study_scenario(const FigureScale& scale, double alpha,
                               std::uint64_t seed_salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ seed_salt;
  scenario.params.pseudonym_lifetime = 3.0 * scenario.churn.mean_offline;
  scenario.shards = scale.shards;
  return scenario;
}

void arm_defenses(OverlayScenario& scenario, const AdversarySpec& spec) {
  scenario.params.validate_received = true;
  scenario.params.peer_rate_limit = spec.peer_rate_limit;
  scenario.params.peer_rate_window = spec.peer_rate_window;
  scenario.params.sampler_min_dwell = spec.sampler_min_dwell;
}

/// Everything the zero-adversary cross-check compares: summary stats,
/// message/replacement totals and the health counters that would move
/// first if the engine perturbed a trajectory.
bool runs_identical(const OverlayRunResult& a, const OverlayRunResult& b) {
  return a.stats.frac_disconnected.mean() ==
             b.stats.frac_disconnected.mean() &&
         a.stats.norm_apl.mean() == b.stats.norm_apl.mean() &&
         a.replacements == b.replacements &&
         a.messages_total == b.messages_total &&
         a.final_total_edges == b.final_total_edges &&
         a.health.requests_sent == b.health.requests_sent &&
         a.health.responses_sent == b.health.responses_sent &&
         a.health.exchanges_completed == b.health.exchanges_completed &&
         a.health.messages_delivered == b.health.messages_delivered &&
         a.health.forged_injected == 0 && b.health.forged_injected == 0 &&
         a.health.replays_injected == 0 && b.health.replays_injected == 0;
}

}  // namespace

AdversaryFigure adversary_resilience_sweep(Workbench& bench,
                                           const FigureScale& scale,
                                           const AdversarySpec& spec) {
  const graph::Graph& trust = bench.trust_graph(0.5);

  std::vector<std::string> names;
  for (const std::string& attack : spec.attacks) {
    names.push_back(attack + "-open");
    names.push_back(attack + "-defended");
  }

  struct CellEntry {
    double conn = 0.0;
    double completion = 0.0;
    metrics::ProtocolHealth health;
  };

  runner::SweepOptions opt;
  opt.jobs = scale.jobs;
  opt.root_seed = scale.seed;
  opt.progress = scale.progress;
  opt.label = "adversary-resilience-sweep";

  const std::size_t replicas = std::max<std::size_t>(1, scale.replicas);
  const std::size_t cells = spec.fractions.size() * replicas;

  // Zero-adversary cross-check: a plan with every fraction at zero must
  // leave the trajectory bit-identical to a run with no plan at all.
  const OverlayScenario plain = study_scenario(scale, spec.alpha, 911);
  OverlayScenario wrapped = plain;
  wrapped.adversary =
      make_attack_plan(spec.attacks.empty() ? "mixed" : spec.attacks[0], 0.0,
                       plain.seed ^ 0xAD0000);

  // Every overlay run is its own pool task writing only its own slot:
  // run i = cell * names + j is series j (attack j/2, open or defended
  // arm) at cell i/names; the two cross-check runs follow the grid.
  // Seeds depend only on the cell, so the order moves wall time, never
  // a value.
  const std::size_t grid_runs = cells * names.size();
  std::vector<CellEntry> values(grid_runs);
  std::vector<OverlayRunResult> zero_check(2);  // bare, with plan
  const runner::SweepTelemetry telemetry = runner::run_indexed(
      grid_runs + zero_check.size(), opt, [&](const runner::CellInfo& task) {
        if (task.index >= grid_runs) {
          const std::size_t k = task.index - grid_runs;
          zero_check[k] = run_overlay(trust, k == 0 ? plain : wrapped);
          return;
        }
        const std::size_t cell = task.index / names.size();
        const std::size_t j = task.index % names.size();
        const std::size_t k = j / 2;
        const double fraction = spec.fractions[cell / replicas];
        OverlayScenario attacked =
            study_scenario(scale, spec.alpha, 911 + cell);
        attacked.adversary = make_attack_plan(spec.attacks[k], fraction,
                                              attacked.seed ^ (0xAD0000 + k));
        attacked.params.shuffle_timeout = spec.shuffle_timeout;
        attacked.params.shuffle_max_retries = spec.max_retries;
        if (j % 2 == 1) arm_defenses(attacked, spec);

        // Completion is measured over the HONEST nodes' exchanges: the
        // global rate also counts the attackers' own exchanges, which
        // the defenses deliberately starve.
        const auto run = run_overlay(trust, attacked);
        values[task.index] = CellEntry{run.stats.frac_disconnected.mean(),
                                       run.health.honest_completion_rate(),
                                       run.health};
      });

  AdversaryFigure fig;
  fig.fractions = spec.fractions;
  fig.replicas = replicas;
  fig.health.resize(names.size());
  for (std::size_t j = 0; j < names.size(); ++j) {
    Series conn{names[j], {}}, comp{names[j], {}};
    Series conn_ci{names[j], {}}, comp_ci{names[j], {}};
    for (std::size_t a = 0; a < spec.fractions.size(); ++a) {
      RunningStats sc, sp;
      for (std::size_t r = 0; r < replicas; ++r) {
        const CellEntry& value = values[(a * replicas + r) * names.size() + j];
        sc.add(value.conn);
        sp.add(value.completion);
        if (spec.fractions[a] > 0.0) fig.health[j].merge(value.health);
      }
      conn.values.push_back(sc.mean());
      comp.values.push_back(sp.mean());
      conn_ci.values.push_back(ci95_half_width(sc));
      comp_ci.values.push_back(ci95_half_width(sp));
    }
    fig.connectivity.push_back(std::move(conn));
    fig.completion.push_back(std::move(comp));
    fig.connectivity_ci.push_back(std::move(conn_ci));
    fig.completion_ci.push_back(std::move(comp_ci));
  }

  fig.zero_adversary_identical = runs_identical(zero_check[0], zero_check[1]);
  fig.telemetry = telemetry;
  return fig;
}

}  // namespace ppo::experiments
