#include "scenario/scenario.hpp"

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"
#include "rng/stream.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace plurality::scenario {

const graph::AgentGraph& Scenario::graph() const {
  PLURALITY_REQUIRE(use_graph_, "Scenario::graph: scenario compiled to the count path "
                                "(no packed topology)");
  return graph_;
}

Scenario Scenario::compile(const ScenarioSpec& spec) {
  const std::string backend = spec.resolved_backend();  // validates first

  Scenario compiled;
  compiled.spec_ = spec;
  compiled.spec_.backend = backend;

  compiled.dynamics_ = make_dynamics(spec.dynamics);
  compiled.adversary_ = make_adversary(spec.adversary);

  // Start configuration: the workload in color space, lifted into the
  // dynamics' state space when the protocol carries auxiliary states
  // (the undecided marker is always the last state).
  Configuration start = workloads::parse_workload(spec.workload, spec.n, spec.k);
  if (compiled.dynamics_->num_states(start.k()) > start.k()) {
    start = UndecidedState::extend_with_undecided(start);
  }
  compiled.start_ = std::move(start);

  compiled.use_graph_ = backend == "graph";
  if (compiled.use_graph_) {
    // topology_backend "auto" resolves here (echoed into the resolved spec
    // like `backend` above). Implicit builds are deterministic and
    // arena-free; arena builds draw their randomness from a dedicated
    // stream family so the SAME seed reproduces the same random graph
    // without touching trial streams.
    const std::string topo_backend = spec.resolved_topology_backend();
    compiled.spec_.topology_backend = topo_backend;
    if (topo_backend == "implicit") {
      compiled.graph_ = graph::make_topology_implicit(spec.topology, spec.n);
    } else {
      rng::Xoshiro256pp topo_gen =
          rng::StreamFactory(spec.seed).child(kTopologyStreamTag).stream(0);
      compiled.graph_ = graph::make_topology(spec.topology, spec.n, topo_gen);
    }
  }

  CommonTrialOptions& options = compiled.options_;
  options.trials = spec.trials;
  options.seed = spec.seed;
  options.parallel = spec.parallel;
  options.max_rounds = spec.max_rounds;
  options.mode = spec.engine == "batched"  ? EngineMode::Batched
                 : spec.engine == "push"   ? EngineMode::Push
                                           : EngineMode::Strict;
  options.adversary = compiled.adversary_.get();
  options.shuffle_layout = spec.shuffle_layout;
  options.tile_nodes = spec.tile_nodes;
  options.prefetch_distance = spec.prefetch_distance;
  options.backend = backend == "agent" ? Backend::Agent : Backend::CountBased;

  const StopCondition stop = parse_stop_condition(spec.stop);
  const state_t num_colors = compiled.dynamics_->num_colors(compiled.start_.k());
  switch (stop.kind) {
    case StopCondition::Kind::Consensus:
      break;
    case StopCondition::Kind::MPlurality:
      // Every workload generator puts the plurality on color 0.
      options.stop_predicate = stop_at_m_plurality(stop.value, 0);
      break;
    case StopCondition::Kind::AnyReaches:
      options.stop_predicate = stop_when_any_color_reaches(stop.value, num_colors);
      break;
  }

  return compiled;
}

TrialSummary Scenario::run(RoundObserver* observer,
                           const CancellationToken* cancel) const {
  if (observer == nullptr && cancel == nullptr) {
    if (use_graph_) {
      return graph::run_graph_trials(*dynamics_, graph_, start_, options_);
    }
    return run_trials(*dynamics_, start_, options_);
  }
  CommonTrialOptions extended = options_;
  extended.observer = observer;
  extended.cancel = cancel;
  if (use_graph_) {
    return graph::run_graph_trials(*dynamics_, graph_, start_, extended);
  }
  return run_trials(*dynamics_, start_, extended);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, RoundObserver* observer,
                            const CancellationToken* cancel) {
  const Scenario compiled = Scenario::compile(spec);
  ScenarioResult result;
  result.resolved = compiled.spec();
  WallTimer timer;
  result.summary = compiled.run(observer, cancel);
  result.wall_seconds = timer.seconds();
  return result;
}

io::JsonValue scenario_result_to_json(const ScenarioResult& result) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("schema_version", 1);
  doc.set("spec", result.resolved.to_json());

  const TrialSummary& summary = result.summary;
  io::JsonValue& out = doc.set("summary", io::JsonValue::object());
  out.set("trials", summary.trials);
  out.set("consensus_count", summary.consensus_count);
  out.set("plurality_wins", summary.plurality_wins);
  out.set("round_limit_hits", summary.round_limit_hits);
  out.set("predicate_stops", summary.predicate_stops);
  out.set("consensus_rate", summary.consensus_rate());
  out.set("win_rate", summary.win_rate());
  const auto ci = summary.win_ci();
  io::JsonValue& win_ci = out.set("win_ci95", io::JsonValue::object());
  win_ci.set("low", ci.low);
  win_ci.set("high", ci.high);
  io::JsonValue& rounds = out.set("rounds", io::JsonValue::object());
  rounds.set("count", summary.rounds.count());
  if (summary.rounds.count() > 0) {
    rounds.set("mean", summary.rounds.mean());
    rounds.set("min", summary.rounds.min());
    rounds.set("max", summary.rounds.max());
    rounds.set("p50", summary.rounds_p(0.5));
    rounds.set("p95", summary.rounds_p(0.95));
    rounds.set("quantiles_exact", summary.round_quantiles.exact());
  }

  doc.set("wall_seconds", result.wall_seconds);
  return doc;
}

}  // namespace plurality::scenario
