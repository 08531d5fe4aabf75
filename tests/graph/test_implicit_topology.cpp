// Contracts of the implicit-topology engine (implicit_topology.hpp):
//
//  * CSR-order pin: ImplicitTopology::neighbor(v, idx) must return EXACTLY
//    AgentGraph::neighbors_of(v)[idx] of the arena build, for every (v,
//    idx), across ring / torus (square, non-square, edge rows) / lattice
//    degrees. This is the load-bearing bitwise contract — the samplers
//    draw the same index either way, so matching rows make implicit and
//    arena runs indistinguishable.
//  * Trajectory equivalence: implicit vs arena full-state trajectories are
//    bitwise-equal in BOTH engine modes, and invariant under the OpenMP
//    team size.
//  * Gossip: topology=gossip and topology=clique backend=graph compile to
//    the same complete graph, so their scenario summaries are identical.
//  * Adoption-law battery: one-round chi-square pins for the complete
//    graph and the implicit families in both modes, with the exact law
//    computed from ImplicitTopology::neighbor itself (the arena is not
//    consulted).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/majority.hpp"
#include "core/thread_plan.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/implicit_topology.hpp"
#include "scenario/scenario.hpp"
#include "stats/chi_square.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

void expect_matches_arena_rows(const ImplicitTopology& topo, const AgentGraph& arena,
                               const char* label) {
  ASSERT_EQ(arena.num_nodes(), topo.n) << label;
  for (count_t v = 0; v < arena.num_nodes(); ++v) {
    const auto row = arena.neighbors_of(v);
    ASSERT_EQ(row.size(), topo.degree) << label << " node " << v;
    for (std::uint64_t idx = 0; idx < topo.degree; ++idx) {
      ASSERT_EQ(topo.neighbor(v, idx), row[idx])
          << label << " node " << v << " idx " << idx;
    }
  }
}

TEST(ImplicitTopology, RingMatchesArenaCsrOrder) {
  for (const count_t n : {3, 4, 5, 8, 17}) {
    expect_matches_arena_rows(ImplicitTopology::ring(n), cycle(n), "ring");
  }
}

TEST(ImplicitTopology, TorusMatchesArenaCsrOrder) {
  const std::pair<count_t, count_t> shapes[] = {{3, 3}, {3, 5}, {5, 3}, {4, 4}, {6, 3}};
  for (const auto [rows, cols] : shapes) {
    expect_matches_arena_rows(ImplicitTopology::torus(rows, cols), torus(rows, cols),
                              "torus");
  }
}

TEST(ImplicitTopology, LatticeMatchesArenaCsrOrder) {
  for (const count_t d : {2, 4, 6}) {
    for (const count_t n : {9, 12, 31}) {
      expect_matches_arena_rows(ImplicitTopology::lattice(n, d),
                                circulant_lattice(n, d), "lattice");
    }
  }
}

/// `rounds` full-state snapshots under `mode` (same helper as the batched
/// suite, parameterized on mode).
std::vector<std::vector<state_t>> trajectory(const Dynamics& dynamics,
                                             const AgentGraph& graph,
                                             const Configuration& start,
                                             std::uint64_t seed, int rounds,
                                             EngineMode mode) {
  GraphSimulation sim(dynamics, graph, start, seed, /*shuffle_layout=*/true, mode);
  std::vector<std::vector<state_t>> out;
  for (int r = 0; r < rounds; ++r) {
    sim.step();
    out.push_back(sim.states().to_vector());
  }
  return out;
}

TEST(ImplicitTopology, ImplicitMatchesArenaBitwise) {
  ThreeMajority majority;
  struct Case {
    const char* name;
    AgentGraph arena;
    AgentGraph implicit_graph;
  };
  std::vector<Case> cases;
  cases.push_back({"ring", cycle(900),
                   AgentGraph::implicit(ImplicitTopology::ring(900))});
  cases.push_back({"torus", torus(30, 30),
                   AgentGraph::implicit(ImplicitTopology::torus(30, 30))});
  cases.push_back({"torus 20x45", torus(20, 45),
                   AgentGraph::implicit(ImplicitTopology::torus(20, 45))});
  cases.push_back({"lattice:6", circulant_lattice(900, 6),
                   AgentGraph::implicit(ImplicitTopology::lattice(900, 6))});
  const Configuration start = workloads::additive_bias(900, 3, 200);
  for (auto& c : cases) {
    for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
      const auto arena = trajectory(majority, c.arena, start, 33, 4, mode);
      const auto implicit = trajectory(majority, c.implicit_graph, start, 33, 4, mode);
      ASSERT_EQ(implicit, arena)
          << c.name << (mode == EngineMode::Batched ? " (batched)" : " (strict)");
    }
  }
}

TEST(ImplicitTopology, GossipMatchesCliqueBitwise) {
  // Gossip is uniform pull over the whole population — the clique's
  // sampling, kept on the node engine — so the spec-level pair must agree
  // summary for summary under both engines.
  for (const char* engine : {"strict", "batched"}) {
    const std::string tail = std::string(" engine=") + engine +
                             " dynamics=3-majority workload=bias:200 n=900 k=3 trials=6 "
                             "seed=44";
    const scenario::ScenarioResult gossip =
        scenario::run_scenario(scenario::ScenarioSpec::parse("topology=gossip" + tail));
    const scenario::ScenarioResult clique = scenario::run_scenario(
        scenario::ScenarioSpec::parse("topology=clique backend=graph" + tail));
    EXPECT_EQ(gossip.resolved.backend, "graph") << engine;
    EXPECT_EQ(scenario::scenario_result_to_json(gossip).at("summary").to_compact_string(),
              scenario::scenario_result_to_json(clique).at("summary").to_compact_string())
        << engine;
    EXPECT_EQ(gossip.summary.round_samples, clique.summary.round_samples) << engine;
  }
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(ImplicitTopology, ThreadCountNeverChangesResults) {
  struct ThreadCountGuard {
    int saved;
    explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
      omp_set_num_threads(threads);
    }
    ~ThreadCountGuard() { omp_set_num_threads(saved); }
  };
  // 4800 nodes: above the crossover, so the rounds run on a real team of
  // 2 and 4 (below it every round steps on one thread whatever the team).
  static_assert(60 * 80 >= kRoundTeamMinNodes);
  ThreeMajority majority;
  const AgentGraph graph = AgentGraph::implicit(ImplicitTopology::torus(60, 80));
  const Configuration start = workloads::additive_bias(60 * 80, 3, 1200);
  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    std::vector<std::vector<state_t>> baseline;
    {
      ThreadCountGuard guard(1);
      baseline = trajectory(majority, graph, start, 55, 4, mode);
    }
    for (const int threads : {2, 4}) {
      ThreadCountGuard guard(threads);
      EXPECT_EQ(trajectory(majority, graph, start, 55, 4, mode), baseline)
          << threads << " threads"
          << (mode == EngineMode::Batched ? " (batched)" : " (strict)");
    }
  }
}
#endif

// --- adoption-law battery over the implicit samplers. ----------------------

/// Exact next-state law of `node`, with the neighborhood multiset read off
/// ImplicitTopology::neighbor — deliberately NOT the arena (that equality
/// has its own pin above); a bug in the implicit sampler's indexing would
/// make the engine disagree with this law. On the complete graph the
/// neighborhood is the whole population, self included.
std::vector<double> node_law(const Dynamics& dynamics, const AgentGraph& graph,
                             const std::vector<state_t>& layout, count_t node,
                             state_t states) {
  std::vector<double> neighborhood(states, 0.0);
  if (graph.is_complete()) {
    for (const state_t s : layout) neighborhood[s] += 1.0;
  } else {
    const ImplicitTopology& topo = graph.implicit_topology();
    for (std::uint64_t idx = 0; idx < topo.degree; ++idx) {
      neighborhood[layout[topo.neighbor(node, idx)]] += 1.0;
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

void expect_matches_law(const Dynamics& dynamics, const AgentGraph& graph,
                        const Configuration& start, count_t node, std::uint64_t seed_base,
                        int trials = 6000) {
  const state_t states = start.k();
  GraphSimulation probe(dynamics, graph, start, seed_base, /*shuffle_layout=*/false);
  const std::vector<state_t> layout = probe.states().to_vector();
  const std::vector<double> law = node_law(dynamics, graph, layout, node, states);

  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    std::vector<std::uint64_t> observed(states, 0);
    const std::uint64_t seed0 =
        seed_base + (mode == EngineMode::Batched ? 500'000 : 0);
    for (int t = 0; t < trials; ++t) {
      GraphSimulation sim(dynamics, graph, start, seed0 + static_cast<std::uint64_t>(t),
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
}

/// Node ids 0..2 hold color 0, 3..4 color 1, the rest color 2 (shuffle off).
Configuration battery_start(count_t n) {
  return Configuration(std::vector<count_t>{3, 2, n - 5});
}

TEST(ImplicitLawBattery, CompleteGraphMatchesLaw) {
  // The complete graph's law (topology=clique or gossip) is the adoption
  // law of the whole configuration, self included — exactly the
  // uniform-pull model of arXiv:1407.2565.
  ThreeMajority majority;
  expect_matches_law(majority, AgentGraph::complete(7), battery_start(7), 0, 110'000);
  Voter voter;
  expect_matches_law(voter, AgentGraph::complete(7), battery_start(7), 3, 120'000);
}

TEST(ImplicitLawBattery, RingMatchesLaw) {
  ThreeMajority majority;
  const AgentGraph ring = AgentGraph::implicit(ImplicitTopology::ring(7));
  // Node 4 sees colors {1, 2} (ids 3 and 5) — a genuinely mixed boundary.
  expect_matches_law(majority, ring, battery_start(7), 4, 130'000);
  // Node 0 wraps: neighbors n-1 (color 2) and 1 (color 0).
  expect_matches_law(majority, ring, battery_start(7), 0, 140'000);
}

TEST(ImplicitLawBattery, TorusMatchesLaw) {
  ThreeMajority majority;
  const AgentGraph torus3 = AgentGraph::implicit(ImplicitTopology::torus(3, 3));
  // 3x3: node 4 (interior of the id range) sees ids {1, 3, 5, 7} = colors
  // {0, 1, 2, 2}; node 0 wraps both axes.
  expect_matches_law(majority, torus3, battery_start(9), 4, 150'000);
  expect_matches_law(majority, torus3, battery_start(9), 0, 160'000);
}

TEST(ImplicitLawBattery, LatticeMatchesLaw) {
  ThreeMajority majority;
  // degree 4 on 9 nodes: node 4 sees ids {2, 3, 5, 6} = colors {0, 1, 2, 2}.
  expect_matches_law(majority, AgentGraph::implicit(ImplicitTopology::lattice(9, 4)),
                     battery_start(9), 4, 170'000);
}

}  // namespace
}  // namespace plurality::graph
