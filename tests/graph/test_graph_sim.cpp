#include "graph/agent_graph.hpp"

#include <gtest/gtest.h>

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
  const Topology topo = torus(10, 10);
  GraphSimulation sim(dynamics, topo, workloads::additive_bias(100, 3, 30), 1);
  for (int round = 0; round < 20; ++round) {
    sim.step();
    EXPECT_EQ(sim.configuration().n(), 100u);
  }
}

TEST(GraphSim, DeterministicForSeed) {
  ThreeMajority dynamics;
  const Topology topo = cycle(60);
  GraphSimulation a(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  GraphSimulation b(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  for (int round = 0; round < 10; ++round) {
    a.step();
    b.step();
    EXPECT_EQ(a.configuration(), b.configuration());
  }
}

TEST(GraphSim, PopulationMismatchThrows) {
  ThreeMajority dynamics;
  const Topology topo = cycle(10);
  EXPECT_THROW(
      GraphSimulation(dynamics, topo, workloads::additive_bias(20, 2, 5), 1),
      CheckError);
}

TEST(GraphSim, CompleteTopologyMatchesCliqueBackendInDistribution) {
  // On Topology::complete, one GraphSimulation round must sample the same
  // transition distribution as the clique count-based backend.
  ThreeMajority dynamics;
  const count_t n = 150;
  const Configuration start({80, 40, 30});
  const Topology topo = Topology::complete(n);

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
  const Topology topo = random_regular(500, 16, topo_gen);
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
  const Topology topo = cycle(30);
  GraphSimulation sim(dynamics, topo, workloads::balanced(30, 2), 12);
  const round_t rounds = sim.run_to_consensus(200000);
  EXPECT_LT(rounds, 200000u);
  EXPECT_TRUE(sim.configuration().color_consensus(2));
}

TEST(GraphSim, ShuffleLayoutChangesNodePlacementNotCounts) {
  ThreeMajority dynamics;
  const Topology topo = cycle(50);
  const Configuration start = workloads::additive_bias(50, 2, 10);
  GraphSimulation plain(dynamics, topo, start, 13, /*shuffle_layout=*/false);
  GraphSimulation shuffled(dynamics, topo, start, 13, /*shuffle_layout=*/true);
  EXPECT_EQ(plain.configuration(), shuffled.configuration());
  EXPECT_NE(plain.states(), shuffled.states());
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
    GraphSimulation sim(*dynamics[d], Topology::complete(start.n()), start, 2 + d,
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
  const Topology topo = cycle(10);
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
  const Topology topo = Topology::from_edges(4, edges);
  EXPECT_EQ(topo.min_degree(), 0u);
  EXPECT_THROW(GraphSimulation(dynamics, topo, workloads::balanced(4, 2), 1),
               CheckError);
  const AgentGraph csr = AgentGraph::from_topology(topo);
  EXPECT_EQ(csr.min_degree(), 0u);
  EXPECT_EQ(csr.degree(3), 0u);
  EXPECT_THROW(GraphSimulation(dynamics, csr, workloads::balanced(4, 2), 1),
               CheckError);
}

TEST(GraphSim, ErdosRenyiPatchIsolatedLeavesNoDegreeZero) {
  // Sparse G(n, m) (m = n/4) leaves many isolated vertices; with
  // patch_isolated every node must end up sampleable.
  rng::Xoshiro256pp gen(15);
  const Topology sparse = erdos_renyi(200, 50, gen, /*patch_isolated=*/false);
  EXPECT_EQ(sparse.min_degree(), 0u) << "workload regression: pick a sparser m";
  const Topology patched = erdos_renyi(200, 50, gen, /*patch_isolated=*/true);
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
    const Topology topo = random_regular(n, 4, gen);
    for (count_t v = 0; v < n; ++v) {
      for (const count_t u : topo.neighbors(v)) {
        ASSERT_NE(u, v) << "self-loop at node " << v << " (n=" << n << ")";
      }
    }
  }
}

TEST(GraphSim, ErdosRenyiBuilderRejectsSelfLoops) {
  rng::Xoshiro256pp gen(18);
  const Topology topo = erdos_renyi(120, 300, gen, /*patch_isolated=*/true);
  for (count_t v = 0; v < 120; ++v) {
    for (const count_t u : topo.neighbors(v)) {
      ASSERT_NE(u, v) << "self-loop at node " << v;
    }
  }
}

TEST(GraphSim, ExplicitSelfLoopsAreStillLegalTopologyInput) {
  // from_edges supports self-loops by contract (sampling semantics): a
  // self-loop contributes ONE arc, and the node can sample itself.
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 0}, {0, 1}, {1, 2}, {2, 0}};
  const Topology topo = Topology::from_edges(3, edges);
  EXPECT_EQ(topo.degree(0), 3u);  // self-loop once + two neighbors
  const AgentGraph csr = AgentGraph::from_topology(topo);
  EXPECT_EQ(csr.degree(0), 3u);
  Voter dynamics;
  GraphSimulation sim(dynamics, csr, workloads::balanced(3, 3), 19,
                      /*shuffle_layout=*/false);
  sim.step();
  EXPECT_EQ(sim.configuration().n(), 3u);
}

// --- CSR packing. ----------------------------------------------------------

TEST(AgentGraphCsr, PackingPreservesTopology) {
  rng::Xoshiro256pp gen(20);
  const Topology topo = erdos_renyi(80, 200, gen, /*patch_isolated=*/true);
  const AgentGraph csr = AgentGraph::from_topology(topo);
  ASSERT_EQ(csr.num_nodes(), topo.num_nodes());
  ASSERT_EQ(csr.num_arcs(), topo.num_arcs());
  EXPECT_EQ(csr.min_degree(), topo.min_degree());
  EXPECT_EQ(csr.max_degree(), topo.max_degree());
  for (count_t v = 0; v < csr.num_nodes(); ++v) {
    const auto expected = topo.neighbors(v);
    const auto actual = csr.neighbors_of(v);
    ASSERT_EQ(actual.size(), expected.size()) << "node " << v;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(static_cast<count_t>(actual[i]), expected[i]) << "node " << v;
    }
  }
}

TEST(AgentGraphCsr, SingleArenaLayout) {
  const AgentGraph csr = AgentGraph::from_topology(cycle(10));
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
