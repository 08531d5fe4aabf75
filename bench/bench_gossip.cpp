// PERF — the implicit-topology engine: gossip and arithmetic
// neighborhoods at populations no arena can hold.
//
// Two sections:
//
//  1. Throughput grid: gossip / implicit cycle / implicit torus ×
//     3-majority / voter, both engine modes, node-updates/sec. These are
//     the perf guard's cells (BENCH_gossip_quick.json baseline); the n is
//     arena-reachable on purpose so the numbers stay comparable with
//     BENCH_graphs.json's CSR rows.
//
//  2. Headline (default/full modes only): gossip and implicit ring at
//     n = 10^9 through run_graph_trials — the byte-wide node states
//     (~2n bytes of total state) are the whole reason these cells exist.
//     Reported as wall-clock rounds/sec of a capped run, initialization
//     included; CI never runs this section (--quick).
//
// Writes BENCH_gossip.json (schema_version 1, override with --json).
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "harness.hpp"
#include "core/majority.hpp"
#include "core/trials.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/graph_trials.hpp"
#include "graph/implicit_topology.hpp"
#include "io/json.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace plurality::bench {
namespace {

inline constexpr int kBlock = 8;

template <typename MakeSim>
double measure_sim_rounds_per_sec(MakeSim&& make, double budget_seconds) {
  decltype(make()) sim;
  return measure_rounds_per_sec(
      budget_seconds, kBlock, /*warmup_rounds=*/2, [&] { sim = make(); },
      [&] { sim->step(); });
}

int run(int argc, const char* const* argv) {
  Experiment exp("PERF-implicit",
                 "Implicit-topology engine throughput: gossip + arithmetic neighborhoods",
                 "performance (gossip model of arXiv:1407.2565)", "bench_gossip");
  exp.cli().add_uint("n", 0, "throughput-grid nodes (0 = mode default; square preferred)");
  exp.cli().add_uint("headline-n", 0,
                     "headline population (0 = mode default: 1e9, quick skips)");
  exp.cli().add_string("json", "BENCH_gossip.json",
                       "write machine-readable results to this JSON path");
  if (!exp.parse(argc, argv)) return 0;

  const count_t n_req = exp.cli().get_uint("n") != 0
                            ? exp.cli().get_uint("n")
                            : exp.scaled<count_t>(90'000, 1'000'000, 4'500'000);
  const auto side = static_cast<count_t>(std::llround(std::sqrt(static_cast<double>(n_req))));
  const count_t n = side * side;
  const double budget = exp.scaled(0.08, 0.4, 1.2);

  exp.record().add("n (throughput grid)", format_count(n));
  exp.record().add("threads", std::to_string(exp.threads()));
  exp.record().set_expectation(
      "gossip tracks the clique-CSR rows of BENCH_graphs.json; implicit "
      "cycle/torus pay the arithmetic-neighbor overhead but drop the arena "
      "entirely, and the n = 1e9 headline cells run in ~2 GB of state");
  exp.print_header();

  ThreeMajority majority;
  Voter voter;
  const Configuration start = workloads::balanced(n, 3);

  struct Cell {
    const char* name;
    graph::AgentGraph graph;
  };
  std::vector<Cell> cells;
  cells.push_back({"gossip", graph::AgentGraph::complete(n)});
  cells.push_back({"implicit cycle",
                   graph::AgentGraph::implicit(graph::ImplicitTopology::ring(n))});
  cells.push_back({"implicit torus",
                   graph::AgentGraph::implicit(graph::ImplicitTopology::torus(side, side))});

  struct Row {
    std::string topology;
    std::string dynamics;
    double strict_rps = 0.0;
    double batched_rps = 0.0;
  };
  std::vector<Row> rows;

  io::Table table({"topology", "dynamics", "strict rounds/s", "batched rounds/s",
                   "batched/strict"});
  for (const auto& cell : cells) {
    for (const Dynamics* dynamics :
         {static_cast<const Dynamics*>(&majority), static_cast<const Dynamics*>(&voter)}) {
      const std::uint64_t seed = exp.seed() + 101;
      const auto engine_rps = [&](graph::EngineMode mode) {
        return measure_sim_rounds_per_sec(
            [&] {
              return std::make_unique<graph::GraphSimulation>(
                  *dynamics, cell.graph, start, seed, /*shuffle_layout=*/true, mode);
            },
            budget);
      };
      Row row;
      row.topology = cell.name;
      row.dynamics = dynamics->name();
      row.strict_rps = engine_rps(graph::EngineMode::Strict);
      row.batched_rps = engine_rps(graph::EngineMode::Batched);
      rows.push_back(row);
      table.row()
          .cell(row.topology)
          .cell(row.dynamics)
          .cell(row.strict_rps)
          .cell(row.batched_rps)
          .cell(format_sig(row.batched_rps / row.strict_rps, 3) + "x");
    }
  }
  std::cout << "throughput at n = " << format_count(n) << " (re-armed every " << kBlock
            << " rounds, budget " << format_sig(budget, 2) << " s/cell)\n";
  exp.emit(table, "throughput");

  io::JsonValue doc = make_bench_doc("gossip", 1, exp);
  doc.set("n", std::uint64_t{n});
  doc.set("time_budget_seconds", budget);
  doc.set("rearm_period_rounds", kBlock);
  io::JsonValue& json_rows = doc.set("topologies", io::JsonValue::array());
  for (const Row& row : rows) {
    io::JsonValue& entry = json_rows.push(io::JsonValue::object());
    entry.set("topology", row.topology);
    entry.set("dynamics", row.dynamics);
    entry.set("n", std::uint64_t{n});
    entry.set("strict_rounds_per_sec", row.strict_rps);
    entry.set("strict_node_updates_per_sec", row.strict_rps * static_cast<double>(n));
    entry.set("batched_rounds_per_sec", row.batched_rps);
    entry.set("batched_node_updates_per_sec", row.batched_rps * static_cast<double>(n));
  }

  // ------------------------------------------------------------- headline --
  // Capped batched runs through run_graph_trials, whose node states are
  // one byte each at k <= 256: total state ~2n bytes. Wall clock
  // includes trial initialization (workload layout + shuffle), so these are
  // end-to-end numbers, slightly below steady-state stepping throughput.
  const count_t headline_n = exp.cli().get_uint("headline-n") != 0
                                 ? exp.cli().get_uint("headline-n")
                                 : exp.scaled<count_t>(0, 1'000'000'000, 1'000'000'000);
  if (headline_n > 0) {
    const round_t headline_rounds = 5;
    io::JsonValue& headline = doc.set("headline", io::JsonValue::array());
    io::Table hl_table({"topology", "n", "rounds", "wall s", "node updates/s"});
    struct HeadlineCell {
      const char* name;
      graph::AgentGraph graph;
    };
    std::vector<HeadlineCell> hl_cells;
    hl_cells.push_back({"gossip", graph::AgentGraph::complete(headline_n)});
    hl_cells.push_back(
        {"implicit ring",
         graph::AgentGraph::implicit(graph::ImplicitTopology::ring(headline_n))});
    const Configuration hl_start =
        workloads::additive_bias(headline_n, 2, headline_n / 5);
    for (const auto& cell : hl_cells) {
      CommonTrialOptions options;
      options.trials = 1;
      options.seed = exp.seed() + 7;
      options.max_rounds = headline_rounds;
      options.mode = EngineMode::Batched;
      WallTimer timer;
      const TrialSummary summary = run_graph_trials(majority, cell.graph, hl_start, options);
      const double wall = timer.seconds();
      // The cap is tighter than any consensus time at this n, so every
      // trial runs exactly headline_rounds rounds.
      const double updates =
          static_cast<double>(headline_n) * static_cast<double>(headline_rounds);
      hl_table.row()
          .cell(cell.name)
          .cell(format_count(headline_n))
          .cell(static_cast<double>(headline_rounds))
          .cell(format_sig(wall, 3))
          .cell(updates / wall);
      io::JsonValue& entry = headline.push(io::JsonValue::object());
      entry.set("topology", cell.name);
      entry.set("n", std::uint64_t{headline_n});
      entry.set("engine", "batched");
      entry.set("rounds", std::uint64_t{headline_rounds});
      entry.set("wall_seconds", wall);
      entry.set("node_updates_per_sec", updates / wall);
      entry.set("round_limit_hits", summary.round_limit_hits);
    }
    std::cout << "headline: end-to-end capped runs, byte node states "
                 "(~2 bytes/node of total state)\n";
    exp.emit(hl_table, "headline");
  }

  write_bench_json(doc, exp.cli().get_string("json"));
  exp.finish();
  return 0;
}

}  // namespace
}  // namespace plurality::bench

int main(int argc, char** argv) { return plurality::bench::run(argc, argv); }
