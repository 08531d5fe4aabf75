// Statistical battery for the fused CSR stepping kernels.
//
// The kernels (src/graph/kernels.hpp) re-implement each dynamics' node rule
// inline; a transcription slip that survives compilation would silently
// bias every sparse-topology experiment. Two lines of defense here:
//
//  * Exact-law goodness of fit: on a small FIXED graph with a fixed state
//    layout, one node's next-state distribution is exactly the dynamics'
//    adoption law evaluated on its neighborhood multiset (sampling is
//    uniform with repetition from the neighbor list, which is precisely
//    the law's count-vector semantics). We run thousands of independent
//    one-round simulations through the engine and chi-square the observed
//    per-node adoption frequencies against that law, for every fused
//    dynamics — 3-majority, voter, 2-choices, undecided-state, both
//    medians, and h-plurality — plus the clique path.
//
//  * The battery runs in BOTH engine modes: Strict (the fused xoshiro
//    kernels) and Batched (the counter-based stage-split pipeline of
//    kernels_batched.hpp) — a batched kernel is a second, independent
//    transcription of each rule, plus a rejection-free bounded-bias index
//    conversion, so it gets the same exact-law pinning.
//
//  * The kernels' inlined uniform_below clone is pinned bit-for-bit
//    (outputs AND generator states, rejection path included) against
//    rng::uniform_below.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "graph/kernels.hpp"
#include "rng/distributions.hpp"
#include "stats/chi_square.hpp"

namespace plurality::graph {
namespace {

/// Fixed 7-node test graph with heterogeneous degrees (0:4, 1:3, 2:2, 3:2,
/// 4:3, 5:2, 6:2) — includes the battery's target nodes of degree 4 and 2.
AgentGraph battery_graph() {
  const std::vector<std::pair<count_t, count_t>> edges = {
      {0, 1}, {0, 3}, {0, 5}, {0, 6}, {1, 2}, {2, 3}, {4, 5}, {4, 6}, {1, 4}};
  return AgentGraph::from_edges(7, edges);
}

/// The layout GraphSimulation uses with shuffle off: node ids 0,1,2 hold
/// color 0, ids 3,4 color 1, ids 5,6 color 2.
Configuration battery_start(state_t states) {
  std::vector<count_t> counts = {3, 2, 2};
  counts.resize(states, 0);  // auxiliary states start empty
  return Configuration(std::move(counts));
}

/// Exact next-state law of `node` under `dynamics`: the adoption law
/// evaluated on the node's neighborhood state counts.
std::vector<double> exact_node_law(const Dynamics& dynamics, const AgentGraph& graph,
                                   const std::vector<state_t>& layout, count_t node,
                                   state_t states) {
  std::vector<double> neighborhood(states, 0.0);
  if (graph.is_complete()) {
    for (count_t v = 0; v < graph.num_nodes(); ++v) neighborhood[layout[v]] += 1.0;
  } else {
    for (const std::uint32_t v : graph.neighbors_of(node)) {
      neighborhood[layout[v]] += 1.0;
    }
  }
  std::vector<double> law(states, 0.0);
  if (dynamics.law_depends_on_own_state()) {
    dynamics.adoption_law_given(layout[node], neighborhood, law);
  } else {
    dynamics.adoption_law(neighborhood, law);
  }
  return law;
}

/// Runs `trials` independent one-round engine steps under `mode` and
/// chi-squares `node`'s observed next-state frequencies against the exact
/// law.
void expect_node_matches_law_mode(const Dynamics& dynamics, const AgentGraph& graph,
                                  const Configuration& start, count_t node,
                                  std::uint64_t seed_base, EngineMode mode,
                                  int trials = 6000) {
  const state_t states = start.k();
  GraphSimulation probe(dynamics, graph, start, seed_base, /*shuffle_layout=*/false);
  const std::vector<state_t> layout = probe.states().to_vector();
  const std::vector<double> law = exact_node_law(dynamics, graph, layout, node, states);

  std::vector<std::uint64_t> observed(states, 0);
  for (int t = 0; t < trials; ++t) {
    GraphSimulation sim(dynamics, graph, start, seed_base + static_cast<std::uint64_t>(t),
                        /*shuffle_layout=*/false, mode);
    sim.step();
    ++observed[sim.states()[node]];
  }
  const auto result = stats::chi_square_gof(observed, law);
  EXPECT_GT(result.p_value, 1e-6)
      << dynamics.name() << " node " << node
      << (mode == EngineMode::Batched ? " (batched)" : " (strict)")
      << ": stat=" << result.statistic << " dof=" << result.dof;
}

/// Both engine modes against the same exact law.
void expect_node_matches_law(const Dynamics& dynamics, const AgentGraph& graph,
                             const Configuration& start, count_t node,
                             std::uint64_t seed_base, int trials = 6000) {
  expect_node_matches_law_mode(dynamics, graph, start, node, seed_base,
                               EngineMode::Strict, trials);
  expect_node_matches_law_mode(dynamics, graph, start, node, seed_base + 500'000,
                               EngineMode::Batched, trials);
}

TEST(GraphKernelBattery, ThreeMajorityMatchesLaw) {
  ThreeMajority dyn;
  const AgentGraph graph = battery_graph();
  const Configuration start = battery_start(3);
  expect_node_matches_law(dyn, graph, start, 0, 10'000);
  expect_node_matches_law(dyn, graph, start, 2, 20'000);
}

TEST(GraphKernelBattery, VoterMatchesLaw) {
  Voter dyn;
  const AgentGraph graph = battery_graph();
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 30'000);
}

TEST(GraphKernelBattery, TwoChoicesMatchesLaw) {
  TwoChoices dyn;
  const AgentGraph graph = battery_graph();
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 40'000);
}

TEST(GraphKernelBattery, UndecidedStateMatchesLaw) {
  UndecidedState dyn;
  const AgentGraph graph = battery_graph();
  // Extended state space: 3 colors + empty undecided state.
  const Configuration start = battery_start(4);
  // Node 0 (sees a conflicting mix) and node 1 (sees its own color twice
  // and a conflict once: stays with prob 2/3, backs off with prob 1/3).
  expect_node_matches_law(dyn, graph, start, 0, 50'000);
  expect_node_matches_law(dyn, graph, start, 1, 60'000);
}

TEST(GraphKernelBattery, MedianMatchesLaw) {
  MedianDynamics dyn;
  const AgentGraph graph = battery_graph();
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 70'000);
}

TEST(GraphKernelBattery, MedianOwnTwoMatchesLaw) {
  MedianOwnTwo dyn;
  const AgentGraph graph = battery_graph();
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 80'000);
}

TEST(GraphKernelBattery, HPluralityMatchesLaw) {
  HPlurality dyn(4);
  const AgentGraph graph = battery_graph();
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 90'000);
}

TEST(GraphKernelBattery, CliquePathMatchesLaw) {
  // The implicit-complete kernel: every node's law is the adoption law of
  // the whole configuration (self included), exactly the paper's model.
  ThreeMajority dyn;
  const AgentGraph graph = AgentGraph::complete(7);
  expect_node_matches_law(dyn, graph, battery_start(3), 0, 100'000);
}

// --- uniform_below clone pin. ---------------------------------------------

TEST(GraphKernelBattery, UniformBelowCloneIsBitwiseIdentical) {
  // Outputs AND post-call generator states must match rng::uniform_below
  // draw for draw. The huge bound forces the rejection loop (threshold
  // (2^64 mod bound) ≈ bound for bound just above 2^63), covering the
  // multi-draw path too.
  const std::uint64_t bounds[] = {1,  2,   3,   7,    8,          60,
                                  64, 100, 255, 1024, 1000000007, (1ULL << 63) + 12345};
  for (const std::uint64_t bound : bounds) {
    rng::Xoshiro256pp gen_lib(987), gen_clone(987);
    for (int draw = 0; draw < 2000; ++draw) {
      const std::uint64_t expected = rng::uniform_below(gen_lib, bound);
      const std::uint64_t actual = kernels::uniform_below(gen_clone, bound);
      ASSERT_EQ(actual, expected) << "bound=" << bound << " draw=" << draw;
      ASSERT_EQ(gen_clone.state(), gen_lib.state())
          << "bound=" << bound << " draw=" << draw << ": streams diverged";
    }
  }
}

}  // namespace
}  // namespace plurality::graph
