// The scenario layer's load-bearing contract: run_scenario() must
// reproduce the EXACT TrialSummary of the legacy entry points — same spec,
// same streams, bitwise-identical counters and per-trial round samples —
// across the (backend × engine × adversary) grid. If this suite passes,
// nothing PR 1–3 froze (golden trajectories, stream families, thread
// invariance) can have drifted behind the new API.
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"
#include "rng/stream.hpp"

namespace plurality::scenario {
namespace {

/// Bitwise TrialSummary comparison: counters, the online moments, and the
/// raw per-trial round samples (double ==, no tolerance — the two paths
/// must consume identical streams).
void expect_same_summary(const TrialSummary& actual, const TrialSummary& expected) {
  EXPECT_EQ(actual.trials, expected.trials);
  EXPECT_EQ(actual.consensus_count, expected.consensus_count);
  EXPECT_EQ(actual.plurality_wins, expected.plurality_wins);
  EXPECT_EQ(actual.round_limit_hits, expected.round_limit_hits);
  EXPECT_EQ(actual.predicate_stops, expected.predicate_stops);
  EXPECT_EQ(actual.rounds.count(), expected.rounds.count());
  if (expected.rounds.count() > 0) {
    EXPECT_EQ(actual.rounds.mean(), expected.rounds.mean());
    EXPECT_EQ(actual.rounds.min(), expected.rounds.min());
    EXPECT_EQ(actual.rounds.max(), expected.rounds.max());
  }
  ASSERT_EQ(actual.round_samples.size(), expected.round_samples.size());
  for (std::size_t i = 0; i < expected.round_samples.size(); ++i) {
    EXPECT_EQ(actual.round_samples[i], expected.round_samples[i]) << "trial sample " << i;
  }
}

/// The legacy count-path call for a spec: workload parsed by hand,
/// CommonTrialOptions filled field by field, run_trials — exactly what the
/// pre-scenario binaries wrote.
TrialSummary legacy_count_run(const ScenarioSpec& spec, const Adversary* adversary,
                              EngineMode engine,
                              std::function<bool(const Configuration&, round_t)> stop = {}) {
  const auto dynamics = make_dynamics(spec.dynamics);
  Configuration start = workloads::parse_workload(spec.workload, spec.n, spec.k);
  if (dynamics->num_states(start.k()) > start.k()) {
    start = UndecidedState::extend_with_undecided(start);
  }
  CommonTrialOptions options;
  options.trials = spec.trials;
  options.seed = spec.seed;
  options.parallel = spec.parallel;
  options.max_rounds = spec.max_rounds;
  options.mode = engine;
  options.adversary = adversary;
  options.stop_predicate = std::move(stop);
  return run_trials(*dynamics, start, options);
}

/// The legacy graph-path call for a spec: graph built from the same
/// topology stream the scenario layer reserves, CommonTrialOptions filled
/// field by field, run_graph_trials.
TrialSummary legacy_graph_run(const ScenarioSpec& spec, const Adversary* adversary,
                              EngineMode mode,
                              std::function<bool(const Configuration&, round_t)> stop = {}) {
  const auto dynamics = make_dynamics(spec.dynamics);
  Configuration start = workloads::parse_workload(spec.workload, spec.n, spec.k);
  if (dynamics->num_states(start.k()) > start.k()) {
    start = UndecidedState::extend_with_undecided(start);
  }
  rng::Xoshiro256pp topo_gen =
      rng::StreamFactory(spec.seed).child(kTopologyStreamTag).stream(0);
  const graph::AgentGraph graph = graph::make_topology(spec.topology, spec.n, topo_gen);
  CommonTrialOptions options;
  options.trials = spec.trials;
  options.seed = spec.seed;
  options.parallel = spec.parallel;
  options.shuffle_layout = spec.shuffle_layout;
  options.max_rounds = spec.max_rounds;
  options.adversary = adversary;
  options.mode = mode;
  options.stop_predicate = std::move(stop);
  return run_graph_trials(*dynamics, graph, start, options);
}

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.dynamics = "3-majority";
  spec.workload = "bias:400";
  spec.n = 5000;
  spec.k = 4;
  spec.trials = 10;
  spec.seed = 9;
  spec.max_rounds = 2000;
  return spec;
}

TEST(ScenarioEquivalence, CountStrict) {
  const ScenarioSpec spec = base_spec();
  expect_same_summary(run_scenario(spec).summary,
                      legacy_count_run(spec, nullptr, EngineMode::Strict));
}

TEST(ScenarioEquivalence, CountStrictAdversary) {
  ScenarioSpec spec = base_spec();
  spec.adversary = "boost-runner-up:25";
  spec.max_rounds = 300;  // boost-runner-up blocks exact consensus
  const BoostRunnerUp adversary(25);
  expect_same_summary(run_scenario(spec).summary,
                      legacy_count_run(spec, &adversary, EngineMode::Strict));
}

TEST(ScenarioEquivalence, CountBatched) {
  ScenarioSpec spec = base_spec();
  spec.dynamics = "undecided";
  spec.engine = "batched";
  expect_same_summary(run_scenario(spec).summary,
                      legacy_count_run(spec, nullptr, EngineMode::Batched));
}

TEST(ScenarioEquivalence, CountBatchedAdversary) {
  ScenarioSpec spec = base_spec();
  spec.engine = "batched";
  spec.adversary = "feed-weakest:10";
  spec.max_rounds = 300;
  const FeedWeakest adversary(10);
  expect_same_summary(run_scenario(spec).summary,
                      legacy_count_run(spec, &adversary, EngineMode::Batched));
}

TEST(ScenarioEquivalence, CountStopPredicate) {
  ScenarioSpec spec = base_spec();
  spec.stop = "m-plurality:1500";
  expect_same_summary(
      run_scenario(spec).summary,
      legacy_count_run(spec, nullptr, EngineMode::Strict,
                       stop_at_m_plurality(1500, 0)));

  spec.stop = "any-reaches:2500";
  expect_same_summary(
      run_scenario(spec).summary,
      legacy_count_run(spec, nullptr, EngineMode::Strict,
                       stop_when_any_color_reaches(2500, spec.k)));
}

TEST(ScenarioEquivalence, NoLawCliqueAutoResolvesToGraph) {
  // backend=auto must route no-exact-law clique dynamics to the graph
  // engine's implicit clique and match the explicit graph call.
  ScenarioSpec spec = base_spec();
  spec.dynamics = "20-plurality";
  spec.k = 16;
  spec.n = 1200;
  spec.workload = "share:0.3";
  spec.trials = 3;
  spec.max_rounds = 500;
  EXPECT_EQ(spec.resolved_backend(), "graph");
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, nullptr, EngineMode::Strict));
}

TEST(ScenarioEquivalence, GraphStrict) {
  ScenarioSpec spec = base_spec();
  spec.topology = "regular:8";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 6;
  EXPECT_EQ(spec.resolved_backend(), "graph");
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, nullptr, EngineMode::Strict));
}

TEST(ScenarioEquivalence, GraphStopPredicate) {
  ScenarioSpec spec = base_spec();
  spec.topology = "regular:8";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 6;
  spec.stop = "m-plurality:300";
  const TrialSummary summary = run_scenario(spec).summary;
  EXPECT_EQ(summary.predicate_stops, spec.trials);
  expect_same_summary(summary, legacy_graph_run(spec, nullptr, EngineMode::Strict,
                                                stop_at_m_plurality(300, 0)));
}

TEST(ScenarioEquivalence, GraphStrictAdversary) {
  ScenarioSpec spec = base_spec();
  spec.topology = "gnm:10000";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 6;
  spec.adversary = "random:15";
  const RandomCorruption adversary(15);
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, &adversary, EngineMode::Strict));
}

TEST(ScenarioEquivalence, GraphBatched) {
  ScenarioSpec spec = base_spec();
  spec.dynamics = "undecided";
  spec.topology = "torus:50x50";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 6;
  spec.engine = "batched";
  spec.max_rounds = 400;
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, nullptr, EngineMode::Batched));
}

TEST(ScenarioEquivalence, GraphBatchedAdversary) {
  ScenarioSpec spec = base_spec();
  spec.topology = "regular:6";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 6;
  spec.engine = "batched";
  spec.adversary = "boost-runner-up:20";
  spec.max_rounds = 300;
  const BoostRunnerUp adversary(20);
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, &adversary, EngineMode::Batched));
}

TEST(ScenarioEquivalence, CliqueGraphBackendMatchesExplicitGraphCall) {
  // backend=graph on the clique must hit the implicit-complete engine, not
  // the count backend.
  ScenarioSpec spec = base_spec();
  spec.backend = "graph";
  spec.n = 2000;
  spec.trials = 5;
  expect_same_summary(run_scenario(spec).summary,
                      legacy_graph_run(spec, nullptr, EngineMode::Strict));
}

TEST(ScenarioEquivalence, SameSpecSameResult) {
  // A spec is a value: running it twice (and via its JSON round trip) must
  // give identical summaries.
  ScenarioSpec spec = base_spec();
  spec.topology = "regular:8";
  spec.n = 2500;
  spec.k = 3;
  spec.trials = 5;
  const TrialSummary first = run_scenario(spec).summary;
  const TrialSummary second = run_scenario(spec).summary;
  expect_same_summary(second, first);
  const ScenarioSpec reloaded =
      ScenarioSpec::from_json(io::parse_json(spec.to_json().to_string()));
  expect_same_summary(run_scenario(reloaded).summary, first);
}

}  // namespace
}  // namespace plurality::scenario
