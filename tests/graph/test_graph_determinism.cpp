// Determinism regression suite for the CSR graph engine — the graph-layer
// mirror of tests/core/test_determinism.cpp. Three bitwise contracts:
//
//  1. Golden fixed-seed trajectories, recorded from the FROZEN pre-refactor
//     per-node stepper (reference_sim.cpp) on ring / torus / clique. Both
//     the reference and the CSR engine must keep reproducing them forever.
//  2. Engine == reference round by round — node states AND count vectors —
//     for every dynamics (fused kernels and the generic fallback alike),
//     on sparse explicit graphs and on the implicit clique.
//  3. Thread-count independence: GraphSimulation trajectories and
//     run_graph_trials summaries are identical under 1, 4, and max OpenMP
//     threads (and with parallel trials disabled).
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/registry.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/reference_sim.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

std::vector<count_t> counts_of(const Configuration& c) {
  return {c.counts().begin(), c.counts().end()};
}

// --- 1. Golden fixed-seed trajectories (recorded from the frozen
//        reference stepper; see file comment). -----------------------------

TEST(GoldenGraphTrajectories, RingMajority) {
  ThreeMajority dyn;
  const AgentGraph topo = cycle(60);
  const Configuration start = workloads::additive_bias(60, 3, 18);
  const std::vector<count_t> golden = {33, 8, 19};

  ReferenceGraphSimulation ref(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, TorusUndecided) {
  UndecidedState dyn;
  const AgentGraph topo = torus(10, 10);
  const Configuration start =
      UndecidedState::extend_with_undecided(workloads::additive_bias(100, 4, 20));
  const std::vector<count_t> golden = {75, 0, 5, 9, 11};

  ReferenceGraphSimulation ref(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, CliqueMajority) {
  ThreeMajority dyn;
  const AgentGraph topo = AgentGraph::complete(150);
  const Configuration start = workloads::additive_bias(150, 3, 30);
  const std::vector<count_t> golden = {140, 3, 7};

  ReferenceGraphSimulation ref(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

// --- 2. Engine vs frozen reference, all dynamics, round by round. ---------

struct EngineVsReferenceCase {
  const Dynamics* dynamics;
  bool extend_undecided;
};

class EngineVsReference : public ::testing::TestWithParam<EngineVsReferenceCase> {};

TEST_P(EngineVsReference, BitwiseEqualOnRandomRegular) {
  const auto& param = GetParam();
  rng::Xoshiro256pp topo_gen(42);
  const AgentGraph graph = random_regular(200, 6, topo_gen);

  Configuration start = workloads::additive_bias(200, 4, 40);
  if (param.extend_undecided) start = UndecidedState::extend_with_undecided(start);

  ReferenceGraphSimulation ref(*param.dynamics, graph, start, 1234);
  GraphSimulation engine(*param.dynamics, graph, start, 1234);
  for (int round = 0; round < 25; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

TEST_P(EngineVsReference, BitwiseEqualOnClique) {
  const auto& param = GetParam();
  const AgentGraph topo = AgentGraph::complete(200);
  Configuration start = workloads::additive_bias(200, 4, 40);
  if (param.extend_undecided) start = UndecidedState::extend_with_undecided(start);

  ReferenceGraphSimulation ref(*param.dynamics, topo, start, 555);
  GraphSimulation engine(*param.dynamics, topo, start, 555);
  for (int round = 0; round < 15; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;
const HPlurality kFivePlurality(5);
// No fused kernel exists for rule tables: exercises the generic
// virtual-dispatch fallback path.
const std::unique_ptr<Dynamics> kRuleMin = make_dynamics("rule:min");

INSTANTIATE_TEST_SUITE_P(
    AllDynamics, EngineVsReference,
    ::testing::Values(EngineVsReferenceCase{&kMajority, false},
                      EngineVsReferenceCase{&kVoter, false},
                      EngineVsReferenceCase{&kTwoChoices, false},
                      EngineVsReferenceCase{&kMedian, false},
                      EngineVsReferenceCase{&kMedianOwnTwo, false},
                      EngineVsReferenceCase{&kUndecided, true},
                      EngineVsReferenceCase{&kFivePlurality, false},
                      EngineVsReferenceCase{kRuleMin.get(), false}),
    [](const auto& info) {
      std::string name = info.param.dynamics->name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(EngineVsReferenceWide, BitwiseEqualBeyondByteMirror) {
  // k > 256 disables the byte-wide sampling mirror, taking the state_t
  // sweep path — pin that branch against the reference too (the k <= 256
  // cases above never reach it).
  const state_t k = 300;
  rng::Xoshiro256pp topo_gen(77);
  const AgentGraph graph = random_regular(600, 6, topo_gen);
  std::vector<count_t> counts(k, 2);  // 600 nodes over 300 colors
  const Configuration start(std::move(counts));

  const Voter voter;
  const MedianDynamics median;
  for (const Dynamics* dynamics :
       {static_cast<const Dynamics*>(&voter), static_cast<const Dynamics*>(&median)}) {
    ReferenceGraphSimulation ref(*dynamics, graph, start, 4242);
    GraphSimulation engine(*dynamics, graph, start, 4242);
    for (int round = 0; round < 12; ++round) {
      ref.step();
      engine.step();
      ASSERT_EQ(ref.configuration(), engine.configuration())
          << dynamics->name() << " (k=300) counts diverged at round " << round;
      ASSERT_EQ(ref.states(), engine.states())
          << dynamics->name() << " (k=300) node states diverged at round " << round;
    }
  }
}

TEST(EngineWorkspaceReuse, SharedAcrossTrialsMatchesFresh) {
  // One workspace carried across different dynamics and k values (the
  // run_graph_trials reuse pattern) must reproduce fresh-workspace runs:
  // everything except ws.nodes is rewritten per round, and ws.nodes is
  // rewritten per load_nodes.
  ThreeMajority majority;
  UndecidedState undecided;
  rng::Xoshiro256pp topo_gen(11);
  const AgentGraph graph = random_regular(120, 4, topo_gen);
  const Configuration start_a = workloads::additive_bias(120, 3, 30);
  const Configuration start_b =
      UndecidedState::extend_with_undecided(workloads::additive_bias(120, 5, 20));

  GraphStepWorkspace shared;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int which = 0; which < 2; ++which) {
      const Dynamics& dyn = which == 0 ? static_cast<const Dynamics&>(majority)
                                       : static_cast<const Dynamics&>(undecided);
      const Configuration& start = which == 0 ? start_a : start_b;
      const rng::StreamFactory streams(301 + which);

      Configuration shared_cfg = start;
      shared.prepare(start.n(), start.k());
      load_nodes(start, true, streams, shared);

      GraphStepWorkspace fresh;
      Configuration fresh_cfg = start;
      fresh.prepare(start.n(), start.k());
      load_nodes(start, true, streams, fresh);

      for (round_t round = 0; round < 8; ++round) {
        step_graph(dyn, graph, shared_cfg, streams, round, shared);
        step_graph(dyn, graph, fresh_cfg, streams, round, fresh);
        ASSERT_EQ(shared_cfg, fresh_cfg) << dyn.name() << " round " << round;
        ASSERT_EQ(shared.nodes, fresh.nodes) << dyn.name() << " round " << round;
      }
    }
  }
}

// --- Golden run_graph_trials summary (pins the trial driver's stream
//     plumbing: per-trial families, layout stream, outcome filters). ------

TEST(GoldenGraphTrajectories, GraphTrialSummary) {
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(8);
  const AgentGraph graph = random_regular(300, 8, topo_gen);
  CommonTrialOptions options;
  options.trials = 24;
  options.seed = 31;
  options.parallel = false;
  options.max_rounds = 4000;
  const TrialSummary s =
      run_graph_trials(dyn, graph, workloads::additive_bias(300, 3, 90), options);
  EXPECT_EQ(s.consensus_count, 24u);
  EXPECT_EQ(s.plurality_wins, 24u);
  EXPECT_EQ(s.round_limit_hits, 0u);
  EXPECT_DOUBLE_EQ(s.rounds.mean(), 10.83333333333333);
}

// --- 3. Thread-count independence. ----------------------------------------

#if defined(PLURALITY_HAVE_OPENMP)

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

TEST(GraphThreadInvariance, TrajectoryIdenticalAcrossThreadCounts) {
  UndecidedState dyn;
  // 128x128 gives chunks long enough for the strict lane kernels (on hosts
  // that have them); 12x12 chunks are too short and stay scalar. A team of
  // 16 exceeds the lane path's 8 work items per round and steps scalar.
  for (const auto& [side, bias] : {std::pair<count_t, count_t>{12, 40}, {128, 4096}}) {
    const AgentGraph topo = torus(side, side);
    const Configuration start =
        UndecidedState::extend_with_undecided(workloads::additive_bias(side * side, 3, bias));

    std::vector<std::vector<count_t>> baseline;
    {
      ThreadCountGuard guard(1);
      GraphSimulation sim(dyn, topo, start, 4096);
      for (int r = 0; r < 10; ++r) {
        sim.step();
        baseline.push_back(counts_of(sim.configuration()));
      }
    }
    for (const int threads : {4, 16, omp_get_max_threads()}) {
      ThreadCountGuard guard(threads);
      GraphSimulation sim(dyn, topo, start, 4096);
      for (int r = 0; r < 10; ++r) {
        sim.step();
        ASSERT_EQ(counts_of(sim.configuration()), baseline[static_cast<std::size_t>(r)])
            << threads << " threads diverged at round " << r << " on torus " << side;
      }
    }
  }
}

TrialSummary torus_trials(bool parallel) {
  ThreeMajority dyn;
  const AgentGraph graph = torus(10, 10);
  CommonTrialOptions options;
  options.trials = 16;
  options.seed = 2026;
  options.parallel = parallel;
  options.max_rounds = 3000;
  return run_graph_trials(dyn, graph, workloads::additive_bias(100, 2, 40), options);
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
  EXPECT_EQ(a.predicate_stops, b.predicate_stops);
  EXPECT_EQ(a.round_samples, b.round_samples);  // bitwise, order included
}

TEST(GraphThreadInvariance, TrialSummaryIdenticalAcrossThreadCounts) {
  const TrialSummary serial = torus_trials(false);
  for (const int threads : {1, 4, omp_get_max_threads()}) {
    ThreadCountGuard guard(threads);
    expect_same_summary(torus_trials(true), serial);
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality::graph
