#include "graph/agent_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/builders.hpp"
#include "stats/chi_square.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

TEST(GraphSim, PreservesPopulation) {
  ThreeMajority dynamics;
  const AgentGraph topo = torus(10, 10);
  GraphSimulation sim(dynamics, topo, workloads::additive_bias(100, 3, 30), 1);
  for (int round = 0; round < 20; ++round) {
    sim.step();
    EXPECT_EQ(sim.configuration().n(), 100u);
  }
}

TEST(GraphSim, DeterministicForSeed) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(60);
  GraphSimulation a(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  GraphSimulation b(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  for (int round = 0; round < 10; ++round) {
    a.step();
    b.step();
    EXPECT_EQ(a.configuration(), b.configuration());
  }
}

TEST(GraphSim, OwnsTemporaryGraphs) {
  // A temporary graph is moved into the simulation, never borrowed: bound
  // to the borrowing constructor, every step below would read a destroyed
  // graph (the sanitizer build reports it). Owned and borrowed runs over
  // the same graph must agree state for state.
  ThreeMajority dynamics;
  const Configuration ring_start = workloads::additive_bias(60, 3, 12);
  const Configuration clique_start = workloads::additive_bias(150, 3, 30);
  GraphSimulation owned_ring(dynamics, cycle(60), ring_start, 31);
  GraphSimulation owned_clique(dynamics, AgentGraph::complete(150), clique_start, 32);
  const AgentGraph ring = cycle(60);
  const AgentGraph clique = AgentGraph::complete(150);
  GraphSimulation named_ring(dynamics, ring, ring_start, 31);
  GraphSimulation named_clique(dynamics, clique, clique_start, 32);
  EXPECT_EQ(owned_ring.graph().num_arcs(), 120u);
  EXPECT_TRUE(owned_clique.graph().is_complete());
  for (int round = 0; round < 20; ++round) {
    owned_ring.step();
    owned_clique.step();
    named_ring.step();
    named_clique.step();
  }
  EXPECT_EQ(owned_ring.states().to_vector(), named_ring.states().to_vector());
  EXPECT_EQ(owned_ring.configuration(), named_ring.configuration());
  EXPECT_EQ(owned_clique.states().to_vector(), named_clique.states().to_vector());
  EXPECT_EQ(owned_clique.configuration(), named_clique.configuration());
}

TEST(GraphSim, PopulationMismatchThrows) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(10);
  EXPECT_THROW(
      GraphSimulation(dynamics, topo, workloads::additive_bias(20, 2, 5), 1),
      CheckError);
}

TEST(GraphSim, CompleteTopologyMatchesCliqueBackendInDistribution) {
  // On AgentGraph::complete, one GraphSimulation round must sample the same
  // transition distribution as the clique count-based backend.
  ThreeMajority dynamics;
  const count_t n = 150;
  const Configuration start({80, 40, 30});
  const AgentGraph topo = AgentGraph::complete(n);

  const int kTrials = 3000;
  std::vector<std::uint64_t> graph_hist(n + 1, 0), count_hist(n + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    GraphSimulation sim(dynamics, topo, start, 5000 + t, /*shuffle_layout=*/false);
    sim.step();
    ++graph_hist[sim.configuration().at(0)];
  }
  rng::Xoshiro256pp gen(9);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    step_count_based(dynamics, c, gen);
    ++count_hist[c.at(0)];
  }
  const auto result = stats::chi_square_two_sample(graph_hist, count_hist);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(GraphSim, ConsensusOnDenseRandomGraph) {
  // Strong bias on a well-connected random regular graph: 3-majority should
  // still reach consensus on the plurality.
  ThreeMajority dynamics;
  rng::Xoshiro256pp topo_gen(10);
  const AgentGraph topo = random_regular(500, 16, topo_gen);
  GraphSimulation sim(dynamics, topo, workloads::additive_bias(500, 2, 300), 11);
  const round_t rounds = sim.run_to_consensus(2000);
  EXPECT_LT(rounds, 2000u);
  EXPECT_TRUE(sim.configuration().color_consensus(2));
  EXPECT_EQ(sim.configuration().at(0), 500u);
}

TEST(GraphSim, VoterOnCycleEventuallyAbsorbs) {
  // The voter on a small cycle absorbs in reasonable time; mostly a smoke
  // test of neighbor sampling on a sparse topology.
  Voter dynamics;
  const AgentGraph topo = cycle(30);
  GraphSimulation sim(dynamics, topo, workloads::balanced(30, 2), 12);
  const round_t rounds = sim.run_to_consensus(200000);
  EXPECT_LT(rounds, 200000u);
  EXPECT_TRUE(sim.configuration().color_consensus(2));
}

TEST(GraphSim, ShuffleLayoutChangesNodePlacementNotCounts) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(50);
  const Configuration start = workloads::additive_bias(50, 2, 10);
  GraphSimulation plain(dynamics, topo, start, 13, /*shuffle_layout=*/false);
  GraphSimulation shuffled(dynamics, topo, start, 13, /*shuffle_layout=*/true);
  EXPECT_EQ(plain.configuration(), shuffled.configuration());
  EXPECT_NE(plain.states().to_vector(), shuffled.states().to_vector());
}

TEST(GraphSim, CliqueCountsTrackNodeArray) {
  // The cached counts must equal a recount of the node array every round,
  // for a stateless rule and for one with an auxiliary (undecided) state.
  ThreeMajority majority;
  UndecidedState undecided;
  const Configuration starts[] = {
      Configuration({40, 30, 30}),
      UndecidedState::extend_with_undecided(Configuration({60, 40}))};
  const Dynamics* dynamics[] = {&majority, &undecided};
  for (int d = 0; d < 2; ++d) {
    const Configuration& start = starts[d];
    GraphSimulation sim(*dynamics[d], AgentGraph::complete(start.n()), start, 2 + d,
                        /*shuffle_layout=*/false);
    for (int round = 0; round < 30; ++round) {
      sim.step();
      std::vector<count_t> manual(start.k(), 0);
      for (const state_t s : sim.states()) ++manual[s];
      EXPECT_EQ(sim.configuration(), Configuration(std::move(manual)))
          << dynamics[d]->name() << " round " << round;
    }
  }
}

TEST(GraphSim, RoundCounterAdvances) {
  Voter dynamics;
  const AgentGraph topo = cycle(10);
  GraphSimulation sim(dynamics, topo, workloads::balanced(10, 2), 14);
  EXPECT_EQ(sim.round(), 0u);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.round(), 2u);
}

// --- Degree-0 nodes. -------------------------------------------------------

TEST(GraphSim, IsolatedVertexRejected) {
  // Node 3 has no edges: it cannot sample, so the engine must refuse the
  // topology up front instead of drawing uniform_below(gen, 0) mid-round.
  ThreeMajority dynamics;
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 1}, {1, 2}, {2, 0}};
  const AgentGraph csr = AgentGraph::from_edges(4, edges);
  EXPECT_EQ(csr.min_degree(), 0u);
  EXPECT_EQ(csr.degree(3), 0u);
  EXPECT_THROW(GraphSimulation(dynamics, csr, workloads::balanced(4, 2), 1),
               CheckError);
  EXPECT_THROW(GraphSimulation(dynamics, AgentGraph::from_edges(4, edges),
                               workloads::balanced(4, 2), 1),
               CheckError);
}

TEST(GraphSim, ErdosRenyiPatchIsolatedLeavesNoDegreeZero) {
  // Sparse G(n, m) (m = n/4) leaves many isolated vertices; with
  // patch_isolated every node must end up sampleable.
  rng::Xoshiro256pp gen(15);
  const AgentGraph sparse = erdos_renyi(200, 50, gen, /*patch_isolated=*/false);
  EXPECT_EQ(sparse.min_degree(), 0u) << "workload regression: pick a sparser m";
  const AgentGraph patched = erdos_renyi(200, 50, gen, /*patch_isolated=*/true);
  EXPECT_GE(patched.min_degree(), 1u);
  // Patching must make the topology acceptable to the engine.
  ThreeMajority dynamics;
  GraphSimulation sim(dynamics, patched, workloads::additive_bias(200, 2, 60), 16);
  sim.step();
  EXPECT_EQ(sim.configuration().n(), 200u);
}

// --- Self-loop rejection in the random builders. ---------------------------

TEST(GraphSim, RandomRegularBuilderRejectsSelfLoops) {
  // The Steger–Wormald pairing must never emit a self-loop (it re-draws the
  // pair), at every scale the tests exercise — including small n where the
  // stub pool is tight.
  for (const count_t n : {8u, 20u, 150u}) {
    rng::Xoshiro256pp gen(17 + n);
    const AgentGraph topo = random_regular(n, 4, gen);
    for (count_t v = 0; v < n; ++v) {
      for (const count_t u : topo.neighbors_of(v)) {
        ASSERT_NE(u, v) << "self-loop at node " << v << " (n=" << n << ")";
      }
    }
  }
}

TEST(GraphSim, ErdosRenyiBuilderRejectsSelfLoops) {
  rng::Xoshiro256pp gen(18);
  const AgentGraph topo = erdos_renyi(120, 300, gen, /*patch_isolated=*/true);
  for (count_t v = 0; v < 120; ++v) {
    for (const count_t u : topo.neighbors_of(v)) {
      ASSERT_NE(u, v) << "self-loop at node " << v;
    }
  }
}

TEST(GraphSim, ExplicitSelfLoopsAreStillLegalTopologyInput) {
  // from_edges supports self-loops by contract (sampling semantics): a
  // self-loop contributes ONE arc, and the node can sample itself.
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 0}, {0, 1}, {1, 2}, {2, 0}};
  const AgentGraph csr = AgentGraph::from_edges(3, edges);
  EXPECT_EQ(csr.degree(0), 3u);  // self-loop once + two neighbors
  Voter dynamics;
  GraphSimulation sim(dynamics, csr, workloads::balanced(3, 3), 19,
                      /*shuffle_layout=*/false);
  sim.step();
  EXPECT_EQ(sim.configuration().n(), 3u);
}

// --- CSR packing. ----------------------------------------------------------

TEST(AgentGraphCsr, RowsCoverEveryEdgeBothWays) {
  // Every stored arc u -> v has its twin v -> u, and the degree bounds
  // are those of the rows.
  rng::Xoshiro256pp gen(20);
  const AgentGraph csr = erdos_renyi(80, 200, gen, /*patch_isolated=*/true);
  std::multiset<std::pair<count_t, count_t>> arcs;
  count_t min_deg = csr.num_nodes(), max_deg = 0;
  for (count_t v = 0; v < csr.num_nodes(); ++v) {
    const auto row = csr.neighbors_of(v);
    min_deg = std::min<count_t>(min_deg, row.size());
    max_deg = std::max<count_t>(max_deg, row.size());
    for (const std::uint32_t u : row) arcs.insert({v, u});
  }
  EXPECT_EQ(arcs.size(), csr.num_arcs());
  for (const auto& [v, u] : arcs) {
    ASSERT_EQ(arcs.count({u, v}), arcs.count({v, u})) << v << " -> " << u;
  }
  EXPECT_EQ(csr.min_degree(), min_deg);
  EXPECT_EQ(csr.max_degree(), max_deg);
}

TEST(AgentGraphCsr, SingleArenaLayout) {
  const AgentGraph csr = cycle(10);
  // Offsets and neighbors live in one contiguous arena: the neighbor array
  // begins exactly one u64 row past the n+1 offsets.
  EXPECT_EQ(static_cast<const void*>(csr.neighbors()),
            static_cast<const void*>(csr.offsets() + csr.num_nodes() + 1));
  EXPECT_EQ(csr.arena_bytes(),
            (10 + 1 + (20 + 1) / 2) * sizeof(std::uint64_t));
  const AgentGraph clique = AgentGraph::complete(1000);
  EXPECT_EQ(clique.arena_bytes(), 0u);  // implicit: no adjacency memory
  EXPECT_EQ(clique.degree(0), 1000u);   // self included, the clique model
}

}  // namespace
}  // namespace plurality::graph
