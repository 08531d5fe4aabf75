// E13 + PERF — the graph backend: dynamics beyond the clique, and the CSR
// engine's throughput against the frozen per-node reference.
//
// Three sections:
//
//  1. E13 (extension): 3-majority and the voter from the same biased start
//     on clique / random-regular / G(n,m) / torus / cycle, via
//     run_graph_trials. Expectation: expander-like graphs track the clique
//     (fast, plurality wins); low-expansion topologies are orders of
//     magnitude slower with weaker amplification.
//
//  2. Adversary sweep (Section 3.1 wired to graphs): 3-majority under
//     none / boost-runner-up / random corruption on clique and expander.
//     Exact consensus dies under boost-runner-up (only M-plurality
//     consensus is achievable); random noise merely slows things.
//
//  3. Throughput A/B/C: rounds/sec and node-updates/sec of BOTH engine
//     modes — strict (PR-2 fused xoshiro kernels) and batched (counter-
//     based Philox + stage-split SIMD pipeline) — against the FROZEN
//     pre-refactor stepper (reference_sim.cpp) per topology and dynamics,
//     plus the count-based clique stepper as the "don't simulate agents on
//     a clique" yardstick.
//
// Writes BENCH_graphs.json, schema_version 5 (override with --json); CI
// re-measures --quick per commit and gates regressions against the
// committed snapshot (scripts/perf_guard.py).
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "harness.hpp"
#include "core/adversary.hpp"
#include "core/backend.hpp"
#include "scenario/scenario.hpp"
#include "core/majority.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/reference_sim.hpp"
#include "io/json.hpp"
#include "rng/stream.hpp"
#include "stats/summary.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace plurality::bench {
namespace {

double average_degree(const graph::AgentGraph& g) {
  if (g.is_complete()) return static_cast<double>(g.num_nodes());
  return static_cast<double>(g.num_arcs()) / static_cast<double>(g.num_nodes());
}

/// Re-arm period of the throughput cells: a fresh simulation every kBlock
/// rounds keeps the measured workload shape pinned (harness.hpp timing
/// discipline; construction happens outside the timed window).
inline constexpr int kBlock = 8;

/// `make` returns a unique_ptr to a steppable object (GraphSimulation or
/// ReferenceGraphSimulation — both non-movable, so the factory owns the
/// allocation; it happens outside the timed window).
template <typename MakeSim>
double measure_sim_rounds_per_sec(MakeSim&& make, double budget_seconds) {
  decltype(make()) sim;
  return measure_rounds_per_sec(
      budget_seconds, kBlock, /*warmup_rounds=*/2, [&] { sim = make(); },
      [&] { sim->step(); });
}

int run(int argc, const char* const* argv) {
  Experiment exp("E13", "The graph backend: dynamics beyond the clique + CSR engine throughput",
                 "extension (open questions; related work [1], [20])", "bench_graphs");
  exp.cli().add_uint("n", 0, "consensus-study nodes (0 = mode default; square preferred)");
  exp.cli().add_uint("perf-n", 0, "throughput-section nodes (0 = mode default)");
  exp.cli().add_string("json", "BENCH_graphs.json",
                       "write machine-readable throughput results to this JSON path");
  if (!exp.parse(argc, argv)) return 0;

  const count_t n = exp.cli().get_uint("n") != 0 ? exp.cli().get_uint("n")
                                                 : exp.scaled<count_t>(900, 2'500, 22'500);
  const std::uint64_t trials =
      exp.trials() != 0 ? exp.trials() : exp.scaled<std::uint64_t>(6, 10, 30);
  const round_t cap = exp.scaled<round_t>(5'000, 10'000, 50'000);
  const auto side = static_cast<count_t>(std::llround(std::sqrt(static_cast<double>(n))));
  const count_t n_grid = side * side;

  exp.record().add("workload", "additive_bias(n, 3, 0.2n), shuffled onto each topology");
  exp.record().add("n (consensus study)", format_count(n_grid));
  exp.record().add("trials/point", std::to_string(trials));
  exp.record().add("round cap", format_count(cap));
  exp.record().add("threads", std::to_string(exp.threads()));
  exp.record().set_expectation(
      "d-regular and G(n,m) track the clique (fast, plurality wins); torus "
      "and cycle are orders of magnitude slower with weaker amplification; "
      "the CSR engine beats the frozen per-node reference >= 3x on "
      "random-regular node updates");
  exp.print_header();

  // ------------------------------------------------- consensus study (E13) --
  // One ScenarioSpec; the loops just rewrite its topology/dynamics fields.
  // backend=graph keeps the clique row per-agent (auto would route it to
  // the count backend, which is the yardstick's job below). Each cell
  // compiles its own graph from the spec — at this study's n (<= 22,500)
  // that build is noise next to the trials; the throughput section, which
  // runs at perf_n, keeps prebuilt graphs instead.
  const auto bias = static_cast<count_t>(0.2 * static_cast<double>(n_grid));
  scenario::ScenarioSpec spec;
  spec.workload = "bias:" + std::to_string(bias);
  spec.backend = "graph";
  spec.n = n_grid;
  spec.k = 3;
  spec.trials = trials;
  spec.seed = exp.seed() + 17;

  const std::string gnm_spec = "gnm:" + std::to_string(4 * n_grid);
  const std::vector<std::pair<std::string, std::string>> topologies = {
      {"clique", "clique"},
      {"random 8-regular", "regular:8"},
      {"G(n, 4n)", gnm_spec},
      {"torus", "torus"},
      {"cycle", "ring"}};

  ThreeMajority majority;
  Voter voter;
  UndecidedState undecided;

  io::Table table({"topology", "avg degree", "dynamics", "consensus rate",
                   "rounds (mean ± ci)", "win rate"});
  for (const auto& [label, topology] : topologies) {
    for (const char* dynamics : {"3-majority", "voter"}) {
      // The voter on sparse graphs is extremely slow; cap its topologies.
      const bool voter_on_slow_graph =
          std::string(dynamics) == "voter" && (topology == "ring" || topology == "torus");
      spec.topology = topology;
      spec.dynamics = dynamics;
      spec.max_rounds = voter_on_slow_graph ? cap / 4 : cap;
      const auto compiled = scenario::Scenario::compile(spec);
      const TrialSummary result = compiled.run();
      table.row()
          .cell(label)
          .cell(average_degree(compiled.graph()), 4)
          .cell(compiled.dynamics().name())
          .percent(result.consensus_rate())
          .cell(result.consensus_count > 0
                    ? mean_ci_cell(result.rounds.mean(), result.rounds.ci95_halfwidth())
                    : std::string("> cap"))
          .percent(result.win_rate());
    }
  }
  exp.emit(table, "consensus");

  // ------------------------------------------------------- adversary sweep --
  {
    const count_t budget = std::max<count_t>(1, n_grid / 100);
    scenario::ScenarioSpec adv_spec = spec;
    adv_spec.dynamics = "3-majority";
    adv_spec.seed = exp.seed() + 29;
    adv_spec.max_rounds = exp.scaled<round_t>(500, 2'000, 5'000);
    const std::string adversaries[] = {
        "none", "boost-runner-up:" + std::to_string(budget),
        "random:" + std::to_string(budget)};

    io::Table adv_table({"topology", "adversary (F = n/100)", "consensus rate",
                         "rounds (mean ± ci)", "round-limit rate"});
    for (const auto& [label, topology] :
         {topologies[0], topologies[1]}) {  // clique + expander
      for (const auto& adversary : adversaries) {
        adv_spec.topology = topology;
        adv_spec.adversary = adversary;
        const scenario::ScenarioResult run = scenario::run_scenario(adv_spec);
        const TrialSummary& result = run.summary;
        adv_table.row()
            .cell(label)
            .cell(adversary)
            .percent(result.consensus_rate())
            .cell(result.consensus_count > 0
                      ? mean_ci_cell(result.rounds.mean(),
                                     result.rounds.ci95_halfwidth())
                      : std::string("> cap"))
            .percent(static_cast<double>(result.round_limit_hits) /
                     static_cast<double>(result.trials));
      }
    }
    exp.emit(adv_table, "adversary");
    std::cout << "(boost-runner-up rebuilds the runner-up every round, so exact\n"
                 " consensus is unreachable — the paper's Section 3.1 weakens the\n"
                 " goal to M-plurality consensus for exactly this reason.)\n\n";
  }

  // ------------------------------------------- throughput A/B/C + JSON ------
  const count_t perf_n = exp.cli().get_uint("perf-n") != 0
                             ? exp.cli().get_uint("perf-n")
                             : exp.scaled<count_t>(20'000, 1'000'000, 2'500'000);
  const auto perf_side =
      static_cast<count_t>(std::ceil(std::sqrt(static_cast<double>(perf_n))));
  const count_t perf_n_grid = perf_side * perf_side;
  const double budget = exp.scaled(0.08, 0.4, 1.2);

  // Each graph is built once; the strict, batched and reference steppers
  // all sample the same packed AgentGraph over the same seeds.
  rng::Xoshiro256pp perf_topo_gen(exp.seed() + 2);
  const auto perf_clique = graph::AgentGraph::complete(perf_n_grid);
  const auto perf_regular = graph::random_regular(perf_n_grid, 8, perf_topo_gen);
  const auto perf_gnm = graph::erdos_renyi(perf_n_grid, 4 * perf_n_grid, perf_topo_gen,
                                           /*patch_isolated=*/true);
  const auto perf_torus = graph::torus(perf_side, perf_side);
  const auto perf_ring = graph::cycle(perf_n_grid);

  struct PerfEntry {
    const char* name;
    const graph::AgentGraph* graph;
  };
  const PerfEntry perf_entries[] = {{"clique-csr", &perf_clique},
                                    {"random 8-regular", &perf_regular},
                                    {"G(n, 4n)", &perf_gnm},
                                    {"torus", &perf_torus},
                                    {"cycle", &perf_ring}};

  struct PerfRow {
    std::string topology;
    std::string dynamics;
    double avg_degree = 0.0;
    double strict_rps = 0.0;
    double batched_rps = 0.0;
    double reference_rps = 0.0;
  };
  std::vector<PerfRow> perf_rows;

  const Configuration perf_start_colors = workloads::balanced(perf_n_grid, 3);
  const Configuration perf_start_undecided =
      UndecidedState::extend_with_undecided(perf_start_colors);

  io::Table perf_table({"topology", "dynamics", "strict rounds/s", "batched rounds/s",
                        "reference rounds/s", "strict/ref",
                        "batched/strict"});
  for (const auto& entry : perf_entries) {
    struct DynEntry {
      const Dynamics* dynamics;
      const Configuration* start;
    };
    const DynEntry dyns[] = {{&majority, &perf_start_colors},
                             {&voter, &perf_start_colors},
                             {&undecided, &perf_start_undecided}};
    for (const auto& dyn : dyns) {
      const std::uint64_t seed = exp.seed() + 101;
      const auto engine_rps = [&](graph::EngineMode mode) {
        return measure_sim_rounds_per_sec(
            [&] {
              return std::make_unique<graph::GraphSimulation>(
                  *dyn.dynamics, *entry.graph, *dyn.start, seed,
                  /*shuffle_layout=*/true, mode);
            },
            budget);
      };
      const double strict_rps = engine_rps(graph::EngineMode::Strict);
      const double batched_rps = engine_rps(graph::EngineMode::Batched);
      const double reference_rps = measure_sim_rounds_per_sec(
          [&] {
            return std::make_unique<graph::ReferenceGraphSimulation>(
                *dyn.dynamics, *entry.graph, *dyn.start, seed);
          },
          budget);
      PerfRow row;
      row.topology = entry.name;
      row.dynamics = dyn.dynamics->name();
      row.avg_degree = average_degree(*entry.graph);
      row.strict_rps = strict_rps;
      row.batched_rps = batched_rps;
      row.reference_rps = reference_rps;
      perf_rows.push_back(row);
      perf_table.row()
          .cell(row.topology)
          .cell(row.dynamics)
          .cell(strict_rps)
          .cell(batched_rps)
          .cell(reference_rps)
          .cell(format_sig(strict_rps / reference_rps, 3) + "x")
          .cell(format_sig(batched_rps / strict_rps, 3) + "x");
    }
  }

  // Count-based yardstick: the same clique workload through the exact-law
  // stepper — the reason the clique rows exist is to show when NOT to use
  // a per-node engine at all.
  double count_based_rps = 0.0;
  {
    StepWorkspace ws;
    Configuration config = perf_start_colors;
    rng::Xoshiro256pp gen(exp.seed() + 7);
    count_based_rps = measure_rounds_per_sec(
        budget, kBlock, /*warmup_rounds=*/3, [&] { config = perf_start_colors; },
        [&] { step_count_based(majority, config, gen, ws); });
    perf_table.row()
        .cell("clique (count-based)")
        .cell(majority.name())
        .cell(count_based_rps)
        .cell("—")
        .cell("—")
        .cell("—")
        .cell("—");
  }
  std::cout << "throughput at n = " << format_count(perf_n_grid)
            << " (re-armed every " << kBlock << " rounds, budget "
            << format_sig(budget, 2) << " s/cell)\n";
  exp.emit(perf_table, "throughput");

  // ----------------------------------------- JSON (schema_version 5) ------
  // v2: per-row strict/batched/reference engine numbers (the perf guard's
  // cells), and the count-based yardstick reports rounds_per_sec plus a
  // clearly named equivalent_node_updates_per_sec (a count round updates k
  // classes, not n nodes). v3 added relabeled-layout cells keyed
  // "<base>/<layout>"; v4 drops them (graph relabeling was removed) and
  // carried push_* metrics on the voter rows plus a push-vs-strict
  // headline; v5 drops those (the push engine was removed). "simd" names
  // the kernel table both engines stepped with ("scalar" when none);
  // readers ignore keys they don't know.
  io::JsonValue doc = make_bench_doc("graphs", 5, exp);
  const graph::simd::Ops* simd_ops = graph::simd::active();
  doc.set("simd", simd_ops != nullptr ? simd_ops->name : "scalar");
  doc.set("n", std::uint64_t{perf_n_grid});
  doc.set("time_budget_seconds", budget);
  doc.set("rearm_period_rounds", kBlock);
  doc.set("count_based_clique_rounds_per_sec", count_based_rps);
  doc.set("count_based_clique_equivalent_node_updates_per_sec",
          count_based_rps * static_cast<double>(perf_n_grid));

  io::JsonValue& rows = doc.set("topologies", io::JsonValue::array());
  double best_regular_strict_speedup = 0.0;
  double best_regular_batched_vs_strict = 0.0;
  const auto nups = [&](double rps) { return rps * static_cast<double>(perf_n_grid); };
  for (const PerfRow& row : perf_rows) {
    io::JsonValue& entry = rows.push(io::JsonValue::object());
    entry.set("topology", row.topology);
    entry.set("dynamics", row.dynamics);
    entry.set("n", std::uint64_t{perf_n_grid});
    entry.set("avg_degree", row.avg_degree);
    entry.set("strict_rounds_per_sec", row.strict_rps);
    entry.set("strict_node_updates_per_sec", nups(row.strict_rps));
    entry.set("batched_rounds_per_sec", row.batched_rps);
    entry.set("batched_node_updates_per_sec", nups(row.batched_rps));
    entry.set("reference_rounds_per_sec", row.reference_rps);
    entry.set("reference_node_updates_per_sec", nups(row.reference_rps));
    entry.set("strict_speedup_vs_reference", row.strict_rps / row.reference_rps);
    entry.set("batched_speedup_vs_strict", row.batched_rps / row.strict_rps);
    if (row.topology == "random 8-regular") {
      best_regular_strict_speedup =
          std::max(best_regular_strict_speedup, row.strict_rps / row.reference_rps);
      best_regular_batched_vs_strict =
          std::max(best_regular_batched_vs_strict, row.batched_rps / row.strict_rps);
    }
  }
  doc.set("best_random_regular_speedup", best_regular_strict_speedup);
  doc.set("best_random_regular_batched_vs_strict", best_regular_batched_vs_strict);

  write_bench_json(doc, exp.cli().get_string("json"));

  std::cout << "\n(locality is the obstacle: on the cycle, information travels\n"
               " O(1) hops per round, so global plurality cannot be amplified the\n"
               " way Lemma 3 amplifies it on the clique.)\n";
  exp.finish();
  return 0;
}

}  // namespace
}  // namespace plurality::bench

int main(int argc, char** argv) { return plurality::bench::run(argc, argv); }
