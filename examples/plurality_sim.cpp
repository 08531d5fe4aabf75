// plurality_sim — the general-purpose simulator CLI, now a thin shell
// around the scenario API: every run is a ScenarioSpec, whether it arrives
// as a JSON file (--spec), a compact spec string (--scenario), or the
// classic flags (which just fill spec fields).
//
//   $ ./plurality_sim --dynamics 3-majority --workload bias:2c --n 1e7 --k 8
//   $ ./plurality_sim --scenario "dynamics=undecided topology=regular:8 \
//         workload=zipf:0.8 n=1e6 k=50 engine=batched trials=32"
//   $ ./plurality_sim --spec scenarios/graph_batched.json --out result.json
//   $ ./plurality_sim --dynamics undecided --workload zipf:0.8 --n 1e6 \
//         --k 50 --trajectory
//   $ ./plurality_sim --list
#include <filesystem>
#include <iostream>

#include "core/adversary.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/workloads.hpp"
#include "graph/topology_registry.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace {

using namespace plurality;

void print_catalog() {
  io::Table table({"dynamics", "protocol", "h", "aux states", "memory bits",
                   "own-state law", "exact law (k=8)"});
  for (const DynamicsInfo& info : dynamics_catalog()) {
    table.row()
        .cell(info.name)
        .cell(info.display_name)
        .cell(static_cast<std::uint64_t>(info.sample_arity))
        .cell(static_cast<std::uint64_t>(info.aux_states))
        .cell(static_cast<std::uint64_t>(info.memory_bits))
        .cell(info.law_depends_on_own_state ? "yes" : "no")
        .cell(info.exact_law_at_k8 ? "yes" : "no");
  }
  table.print(std::cout);
  std::cout << "(any \"<h>-plurality\" constructs; the list shows the members whose\n"
               " exact law fits the default enumeration budget)\n\n";

  const auto print_grammar = [](const char* what, const std::vector<std::string>& names) {
    std::cout << what << ": ";
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::cout << (i > 0 ? " | " : "") << names[i];
    }
    std::cout << "\n";
  };
  print_grammar("workloads", workloads::workload_names());
  print_grammar("topologies", graph::topology_names());
  print_grammar("adversaries", adversary_names());
  std::cout << "stops: consensus | m-plurality:<M> | any-reaches:<T>\n"
            << "backends: auto | count | graph    engines: strict | batched\n";
}

/// Runs the --trajectory mode: one run, round-by-round table (count path;
/// the compiled scenario supplies the dynamics/start/backend resolution).
int run_trajectory(const scenario::Scenario& compiled, const std::string& csv_path) {
  PLURALITY_REQUIRE(!compiled.uses_graph_driver(),
                    "--trajectory is a count-path feature; drop it or set "
                    "topology=clique");
  const auto& spec = compiled.spec();
  rng::Xoshiro256pp gen(spec.seed);
  RunOptions options;
  options.max_rounds = spec.max_rounds;
  options.record_trajectory = true;
  options.engine = compiled.options().mode;
  options.adversary = compiled.adversary();
  options.stop_predicate = compiled.options().stop_predicate;
  const RunResult result = run_dynamics(compiled.dynamics(), compiled.start(), options, gen);

  io::Table table({"round", "plurality", "count", "bias", "minority"});
  io::CsvWriter csv =
      csv_path.empty() ? io::CsvWriter() : io::CsvWriter(csv_path, table.headers());
  const std::size_t stride = std::max<std::size_t>(1, result.trajectory.size() / 32);
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& pt = result.trajectory[i];
    csv.add_row({std::to_string(pt.round), std::to_string(pt.plurality_color),
                 std::to_string(pt.plurality_count), std::to_string(pt.bias),
                 std::to_string(pt.minority_mass)});
    if (i % stride != 0 && i + 1 != result.trajectory.size()) continue;
    table.row()
        .cell(pt.round)
        .cell(static_cast<std::uint64_t>(pt.plurality_color))
        .cell(pt.plurality_count)
        .cell(pt.bias)
        .cell(pt.minority_mass);
  }
  table.print(std::cout);
  std::cout << "\nstopped after " << result.rounds << " rounds: "
            << (result.reason == StopReason::ColorConsensus
                    ? (result.plurality_won ? "consensus on the initial plurality"
                                            : "consensus on a NON-plurality color")
                    : "no consensus within the round cap")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("plurality_sim", "run any scenario: one declarative spec, any backend");
  cli.add_string("spec", "", "read the ScenarioSpec from this JSON file");
  cli.add_string("scenario", "", "compact spec string: \"key=value ...\" (see --list)");
  cli.add_string("dynamics", "3-majority", "protocol name (see --list)");
  cli.add_string("workload", "bias:2c", "initial configuration spec (see --list)");
  cli.add_string("topology", "clique", "topology spec (see --list)");
  cli.add_string("adversary", "none", "adversary spec (see --list)");
  cli.add_string("backend", "auto", "auto | count | graph");
  cli.add_string("engine", "strict", "strict | batched");
  cli.add_string("stop", "consensus", "consensus | m-plurality:<M> | any-reaches:<T>");
  cli.add_uint("n", 1'000'000, "number of nodes");
  cli.add_uint("k", 4, "number of colors");
  cli.add_uint("trials", 20, "independent trials");
  cli.add_uint("seed", 1, "master seed");
  cli.add_uint("max-rounds", 10'000'000, "round cap per trial");
  cli.add_flag("trajectory", "print one trial's round-by-round trajectory");
  cli.add_string("csv", "", "write the trajectory to this CSV path");
  cli.add_string("out", "", "write the ScenarioResult JSON to this path");
  cli.add_flag("force", "allow --out to overwrite an existing result file");
  cli.add_flag("print-spec", "print the resolved spec JSON and exit without running");
  cli.add_flag("list", "list dynamics, workloads, topologies, adversaries, then exit");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.flag("list")) {
    print_catalog();
    return 0;
  }

  // Build the spec: file < string < explicitly-provided flags (so a CI
  // matrix can shrink a committed spec with --trials 2).
  scenario::ScenarioSpec spec;
  if (!cli.get_string("spec").empty()) {
    spec = scenario::ScenarioSpec::from_json_file(cli.get_string("spec"));
  } else if (!cli.get_string("scenario").empty()) {
    spec = scenario::ScenarioSpec::parse(cli.get_string("scenario"));
  }
  const bool from_file = !cli.get_string("spec").empty() || !cli.get_string("scenario").empty();
  const auto take_string = [&](const char* flag, std::string& field) {
    if (!from_file || cli.provided(flag)) field = cli.get_string(flag);
  };
  take_string("dynamics", spec.dynamics);
  take_string("workload", spec.workload);
  take_string("topology", spec.topology);
  take_string("adversary", spec.adversary);
  take_string("backend", spec.backend);
  take_string("engine", spec.engine);
  take_string("stop", spec.stop);
  if (!from_file || cli.provided("n")) spec.n = cli.get_uint("n");
  if (!from_file || cli.provided("k")) spec.k = static_cast<state_t>(cli.get_uint("k"));
  if (!from_file || cli.provided("trials")) spec.trials = cli.get_uint("trials");
  if (!from_file || cli.provided("seed")) spec.seed = cli.get_uint("seed");
  if (!from_file || cli.provided("max-rounds")) spec.max_rounds = cli.get_uint("max-rounds");

  const scenario::Scenario compiled = scenario::Scenario::compile(spec);
  const auto& resolved = compiled.spec();

  if (cli.flag("print-spec")) {
    std::cout << resolved.to_json().to_string();
    return 0;
  }

  // Check --out BEFORE running (but after the non-writing --print-spec
  // exit): result files are what sweep resume (and any human reading them
  // later) trusts, so a stale file must never be clobbered silently — and
  // refusing after the trials ran would waste the run.
  const std::string out_path = cli.get_string("out");
  PLURALITY_REQUIRE(out_path.empty() || cli.flag("force") ||
                        !std::filesystem::exists(out_path),
                    "plurality_sim: --out " << out_path
                        << " already exists; pass --force to overwrite it");

  const state_t colors = compiled.dynamics().num_colors(compiled.start().k());
  std::cout << "dynamics:  " << compiled.dynamics().name() << " ("
            << compiled.dynamics().sample_arity() << " samples/node/round)\n"
            << "workload:  " << resolved.workload << "  ->  n = "
            << format_count(compiled.start().n()) << ", k = " << colors << ", bias s = "
            << format_count(compiled.start().bias(colors)) << " (critical scale "
            << format_count(static_cast<count_t>(
                   workloads::critical_bias_scale(resolved.n, colors)))
            << ")\n"
            << "topology:  " << resolved.topology << "\n"
            << "backend:   " << resolved.backend << " / " << resolved.engine
            << (resolved.adversary != "none" ? "   adversary: " + resolved.adversary : "")
            << "\n";

  if (cli.flag("trajectory")) {
    return run_trajectory(compiled, cli.get_string("csv"));
  }

  WallTimer timer;
  scenario::ScenarioResult result;
  result.resolved = resolved;
  result.plan = compiled.plan();
  std::cout << "threads:   trial team " << result.plan->trial_team << ", round team "
            << result.plan->round_team << "\n";
  result.summary = compiled.run();
  result.wall_seconds = timer.seconds();
  const TrialSummary& summary = result.summary;

  io::Table table({"metric", "value"});
  table.row().cell("trials").cell(summary.trials);
  table.row().cell("consensus rate").cell(format_percent(summary.consensus_rate()));
  table.row().cell("plurality win rate").cell(format_percent(summary.win_rate()));
  const auto ci = summary.win_ci();
  table.row().cell("win rate 95% CI").cell(
      format_percent(ci.low) + " .. " + format_percent(ci.high));
  if (summary.predicate_stops > 0) {
    table.row().cell("predicate stops").cell(summary.predicate_stops);
  }
  if (summary.rounds.count() > 0) {
    table.row().cell("rounds mean").cell(summary.rounds.mean(), 5);
    table.row().cell("rounds min/max").cell(
        format_sig(summary.rounds.min(), 4) + " / " + format_sig(summary.rounds.max(), 4));
    table.row().cell("rounds p50").cell(summary.rounds_p(0.5), 5);
    table.row().cell("rounds p95").cell(summary.rounds_p(0.95), 5);
  }
  table.row().cell("wall time").cell(format_duration(timer.seconds()));
  table.print(std::cout);

  if (!out_path.empty()) {
    io::write_json_file(out_path, scenario::scenario_result_to_json(result));
    std::cout << "\nresult JSON -> " << out_path << "\n";
  }
  return 0;
}
