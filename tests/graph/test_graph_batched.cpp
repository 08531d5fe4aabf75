// Invariance and equivalence contracts of the batched engine
// (EngineMode::Batched, step_batched.cpp).
//
// Four batched pins:
//  * SIMD == scalar, bitwise: the fused/vector paths must reproduce the
//    scalar stage-split pipeline word for word — SIMD availability can
//    change speed, never results.
//  * Batch-size invariance: the tile size is a pure performance knob; the
//    (seed, round, node, draw) randomness addressing makes results
//    independent of it by construction, and this test keeps it that way.
//  * Thread-count invariance: same property for the OpenMP team size.
//  * Cross-mode distributional equivalence: Strict and Batched simulate
//    the same Markov chain with different generators, so their
//    consensus-time distributions must agree (two-sample chi-square on
//    shared quantile bins) on clique + ring + random-regular scenarios.
//
// Plus the push engine (EngineMode::Push) pinned bitwise to batched, and
// the StepTuning knobs pinned bitwise inert in every mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/rule_table.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/step_batched.hpp"
#include "graph/step_push.hpp"
#include "graph/topology_registry.hpp"
#include "stats/chi_square.hpp"
#include "stats/quantile.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

Topology test_regular(count_t n, count_t d, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  return random_regular(n, d, gen);
}

Topology test_er(count_t n, std::uint64_t m, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  return erdos_renyi(n, m, gen, /*patch_isolated=*/true);
}

/// Runs `rounds` rounds under `mode` and returns the per-round state
/// vectors (exact comparison material for the bitwise pins).
std::vector<std::vector<state_t>> trajectory(const Dynamics& dynamics,
                                             const AgentGraph& graph,
                                             const Configuration& start,
                                             std::uint64_t seed, EngineMode mode,
                                             int rounds,
                                             const StepTuning& tuning = {}) {
  GraphSimulation sim(dynamics, graph, start, seed, /*shuffle_layout=*/true, mode);
  sim.set_tuning(tuning);
  std::vector<std::vector<state_t>> out;
  for (int r = 0; r < rounds; ++r) {
    sim.step();
    out.push_back(sim.states());
  }
  return out;
}

struct Scenario {
  const char* name;
  AgentGraph graph;
};

std::vector<Scenario> scenarios() {
  rng::Xoshiro256pp topo_gen(1234);
  std::vector<Scenario> out;
  out.push_back({"clique", AgentGraph::complete(900)});
  out.push_back({"ring", AgentGraph::from_topology(cycle(900))});
  out.push_back(
      {"random 8-regular", AgentGraph::from_topology(random_regular(900, 8, topo_gen))});
  // An irregular graph exercises the CSR (non-fused) pipeline too.
  out.push_back({"G(n,m)", AgentGraph::from_topology(
                               erdos_renyi(900, 3600, topo_gen, /*patch_isolated=*/true))});
  return out;
}

TEST(GraphBatched, SimdMatchesScalarBitwise) {
  if (!batched_simd_active()) {
    GTEST_SKIP() << "no SIMD kernels on this host; scalar path is the only path";
  }
  ThreeMajority majority;
  Voter voter;
  TwoChoices two_choices;
  UndecidedState undecided;
  MedianDynamics median;
  HPlurality hplur(4);
  const Configuration start = workloads::additive_bias(900, 3, 200);
  const Configuration start_undecided = UndecidedState::extend_with_undecided(start);

  for (auto& scenario : scenarios()) {
    for (const Dynamics* dynamics :
         {static_cast<const Dynamics*>(&majority), static_cast<const Dynamics*>(&voter),
          static_cast<const Dynamics*>(&two_choices),
          static_cast<const Dynamics*>(&undecided),
          static_cast<const Dynamics*>(&median), static_cast<const Dynamics*>(&hplur)}) {
      const Configuration& s0 = dynamics == &undecided ? start_undecided : start;
      set_batched_simd_enabled(true);
      const auto simd =
          trajectory(*dynamics, scenario.graph, s0, 77, EngineMode::Batched, 4);
      set_batched_simd_enabled(false);
      const auto scalar =
          trajectory(*dynamics, scenario.graph, s0, 77, EngineMode::Batched, 4);
      set_batched_simd_enabled(true);
      ASSERT_EQ(simd, scalar) << scenario.name << " / " << dynamics->name();
    }
  }
}

TEST(GraphBatched, TileSizeNeverChangesResults) {
  ThreeMajority majority;
  UndecidedState undecided;
  rng::Xoshiro256pp topo_gen(5);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(1000, 8, topo_gen));
  const Configuration start = workloads::additive_bias(1000, 3, 250);
  const Configuration start_undecided = UndecidedState::extend_with_undecided(start);

  // Force the scalar pipeline so the tile loop actually runs, then sweep
  // tile sizes including awkward ones.
  set_batched_simd_enabled(false);
  const auto baseline = trajectory(majority, graph, start, 9, EngineMode::Batched, 4);
  const auto baseline_u =
      trajectory(undecided, graph, start_undecided, 9, EngineMode::Batched, 4);
  for (const std::size_t tile : {1UL, 7UL, 64UL, 129UL, 4096UL}) {
    set_batched_tile_nodes_override(tile);
    EXPECT_EQ(trajectory(majority, graph, start, 9, EngineMode::Batched, 4), baseline)
        << "tile=" << tile;
    EXPECT_EQ(trajectory(undecided, graph, start_undecided, 9, EngineMode::Batched, 4),
              baseline_u)
        << "tile=" << tile;
  }
  set_batched_tile_nodes_override(0);
  // And the SIMD path (fused kernels ignore tiling) must agree with every
  // scalar tiling.
  if (batched_simd_active()) {
    set_batched_simd_enabled(true);
    EXPECT_EQ(trajectory(majority, graph, start, 9, EngineMode::Batched, 4), baseline);
  }
  set_batched_simd_enabled(true);
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(GraphBatched, ThreadCountNeverChangesResults) {
  struct ThreadCountGuard {
    int saved;
    explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
      omp_set_num_threads(threads);
    }
    ~ThreadCountGuard() { omp_set_num_threads(saved); }
  };
  ThreeMajority majority;
  rng::Xoshiro256pp topo_gen(6);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(1200, 8, topo_gen));
  const Configuration start = workloads::additive_bias(1200, 3, 300);

  std::vector<std::vector<state_t>> baseline;
  {
    ThreadCountGuard guard(1);
    baseline = trajectory(majority, graph, start, 11, EngineMode::Batched, 5);
  }
  for (const int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(trajectory(majority, graph, start, 11, EngineMode::Batched, 5), baseline)
        << threads << " threads";
  }
}
#endif

/// Collects per-trial consensus times under one mode.
std::vector<double> consensus_times(const Dynamics& dynamics, const AgentGraph& graph,
                                    const Configuration& start, EngineMode mode,
                                    std::uint64_t seed, std::uint64_t trials) {
  CommonTrialOptions options;
  options.trials = trials;
  options.seed = seed;
  options.max_rounds = 200'000;
  options.mode = mode;
  const TrialSummary summary = run_graph_trials(dynamics, graph, start, options);
  return summary.round_samples;
}

TEST(GraphBatched, CrossModeConsensusTimesAgree) {
  // Strict and Batched must be the same process in distribution. For each
  // scenario: bin both samples on the pooled quartiles and run a two-sample
  // chi-square; additionally the medians must sit within the other mode's
  // inter-quartile range (a direct "quantiles agree" check that stays
  // meaningful even if the binning pools). The ring runs at a much smaller
  // n than clique/random-regular: low-expansion consensus is ~quadratic in
  // n, and this is a distribution test, not a scale test.
  ThreeMajority majority;
  UndecidedState undecided;
  Voter voter;
  const std::uint64_t trials = 120;

  rng::Xoshiro256pp topo_gen(4321);
  struct ModeScenario {
    const char* name;
    AgentGraph graph;
    count_t n;
    std::vector<const Dynamics*> dynamics;
  };
  // Dynamics are matched to the topology so consensus stays CI-sized:
  // 3-majority needs expansion to amplify (it stalls on a ring for most of
  // 200k rounds), while the voter's coalescing random walks finish a small
  // ring quickly.
  std::vector<ModeScenario> mode_scenarios;
  mode_scenarios.push_back({"clique", AgentGraph::complete(900), 900,
                            {&majority, &undecided}});
  // ODD ring: on an even cycle the synchronous voter is bipartite and can
  // oscillate forever instead of coalescing.
  mode_scenarios.push_back({"ring", AgentGraph::from_topology(cycle(63)), 63, {&voter}});
  mode_scenarios.push_back({"random 8-regular",
                            AgentGraph::from_topology(random_regular(900, 8, topo_gen)),
                            900,
                            {&majority, &undecided}});

  for (auto& scenario : mode_scenarios) {
    for (const Dynamics* dynamics : scenario.dynamics) {
      const count_t n = scenario.n;
      const Configuration colors = workloads::additive_bias(n, 3, (n * 2) / 5);
      const Configuration start = dynamics == &undecided
                                      ? UndecidedState::extend_with_undecided(colors)
                                      : colors;
      const auto strict =
          consensus_times(*dynamics, scenario.graph, start, EngineMode::Strict, 501, trials);
      const auto batched =
          consensus_times(*dynamics, scenario.graph, start, EngineMode::Batched, 502, trials);
      ASSERT_EQ(strict.size(), trials) << scenario.name << ": strict trials timed out";
      ASSERT_EQ(batched.size(), trials) << scenario.name << ": batched trials timed out";

      // Quantile agreement: each mode's median inside the other's [q10, q90].
      const double med_s = stats::median(strict);
      const double med_b = stats::median(batched);
      EXPECT_GE(med_b, stats::quantile(strict, 0.10))
          << scenario.name << " / " << dynamics->name();
      EXPECT_LE(med_b, stats::quantile(strict, 0.90))
          << scenario.name << " / " << dynamics->name();
      EXPECT_GE(med_s, stats::quantile(batched, 0.10))
          << scenario.name << " / " << dynamics->name();
      EXPECT_LE(med_s, stats::quantile(batched, 0.90))
          << scenario.name << " / " << dynamics->name();

      // Two-sample chi-square over pooled-quartile bins.
      std::vector<double> pooled = strict;
      pooled.insert(pooled.end(), batched.begin(), batched.end());
      const std::vector<double> qs = {0.25, 0.5, 0.75};
      const std::vector<double> edges = stats::quantiles(pooled, qs);
      const auto bin_counts = [&edges](std::span<const double> xs) {
        std::vector<std::uint64_t> bins(edges.size() + 1, 0);
        for (const double x : xs) {
          std::size_t b = 0;
          while (b < edges.size() && x > edges[b]) ++b;
          ++bins[b];
        }
        return bins;
      };
      const auto result =
          stats::chi_square_two_sample(bin_counts(strict), bin_counts(batched));
      EXPECT_GT(result.p_value, 1e-5)
          << scenario.name << " / " << dynamics->name() << ": stat=" << result.statistic
          << " dof=" << result.dof;
    }
  }
}

TEST(GraphBatched, RuleTableFallsBackToStrict) {
  // Dynamics without a batched kernel run the strict path under
  // EngineMode::Batched — bitwise the same results as EngineMode::Strict.
  ThreeMajority majority;
  EXPECT_TRUE(batched_has_kernel(majority));
  ThreeInputDynamics first("first-of-three",
                           [](state_t a, state_t, state_t) { return a; });
  EXPECT_FALSE(batched_has_kernel(first));

  rng::Xoshiro256pp topo_gen(8);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(600, 6, topo_gen));
  const Configuration start = workloads::additive_bias(600, 3, 150);
  GraphSimulation strict(first, graph, start, 21, true, EngineMode::Strict);
  GraphSimulation batched(first, graph, start, 21, true, EngineMode::Batched);
  for (int r = 0; r < 4; ++r) {
    strict.step();
    batched.step();
    ASSERT_EQ(strict.states(), batched.states()) << "round " << r;
  }
}

// ---------------------------------------------------------------------------
// Push engine and tuning knobs (EngineMode::Push, step_push.cpp, StepTuning).

// Push == Batched, bitwise: the scatter stepper consumes the batched
// pipeline's randomness word for word, so trajectories are identical on
// every topology shape it dispatches over (complete, regular row, general
// CSR, implicit), for both arity-1 dynamics.

TEST(PushEngine, KernelCoverage) {
  EXPECT_TRUE(push_has_kernel(Voter{}));
  EXPECT_TRUE(push_has_kernel(UndecidedState{}));
  EXPECT_FALSE(push_has_kernel(ThreeMajority{}));
}

TEST(PushEngine, MatchesBatchedBitwiseAcrossTopologies) {
  const Voter voter;
  const UndecidedState undecided;
  const count_t n = 2000;
  struct Case {
    const char* name;
    AgentGraph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"complete", AgentGraph::complete(n)});
  cases.push_back({"regular", AgentGraph::from_topology(test_regular(n, 8, 41))});
  cases.push_back({"torus", AgentGraph::from_topology(torus(40, 50))});
  cases.push_back({"er", AgentGraph::from_topology(test_er(n, 6000, 42))});

  const Configuration start2 = workloads::parse_workload("bias:60", n, 2);
  const Configuration start3 =
      UndecidedState::extend_with_undecided(workloads::parse_workload("bias:60", n, 3));
  for (const Case& c : cases) {
    EXPECT_EQ(trajectory(voter, c.graph, start2, 91, EngineMode::Push, 5),
              trajectory(voter, c.graph, start2, 91, EngineMode::Batched, 5))
        << "voter on " << c.name;
    EXPECT_EQ(trajectory(undecided, c.graph, start3, 92, EngineMode::Push, 5),
              trajectory(undecided, c.graph, start3, 92, EngineMode::Batched, 5))
        << "undecided on " << c.name;
  }
}

TEST(PushEngine, MatchesBatchedOnImplicitTopologies) {
  const Voter voter;
  const AgentGraph ring_graph = make_topology_implicit("ring", 3000);
  const AgentGraph lattice_graph = make_topology_implicit("lattice:6", 3000);
  const Configuration start = workloads::parse_workload("bias:80", 3000, 2);
  EXPECT_EQ(trajectory(voter, ring_graph, start, 93, EngineMode::Push, 5),
            trajectory(voter, ring_graph, start, 93, EngineMode::Batched, 5));
  EXPECT_EQ(trajectory(voter, lattice_graph, start, 94, EngineMode::Push, 5),
            trajectory(voter, lattice_graph, start, 94, EngineMode::Batched, 5));
}

TEST(PushEngine, FallsBackToBatchedForHigherArity) {
  // Push on a rule without a push kernel must run the batched pipeline
  // (then strict, for rules without either) — silently, like Batched's own
  // fallback contract.
  const ThreeMajority majority;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1200, 6, 44));
  const Configuration start = workloads::parse_workload("bias:40", 1200, 3);
  EXPECT_EQ(trajectory(majority, graph, start, 95, EngineMode::Push, 4),
            trajectory(majority, graph, start, 95, EngineMode::Batched, 4));
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(PushEngine, ThreadCountInvariant) {
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(2000, 8, 45));
  const Configuration start = workloads::parse_workload("bias:60", 2000, 2);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto serial = trajectory(voter, graph, start, 96, EngineMode::Push, 5);
  omp_set_num_threads(saved);
  const auto parallel = trajectory(voter, graph, start, 96, EngineMode::Push, 5);
  EXPECT_EQ(serial, parallel);
}
#endif

TEST(PushEngine, ConsensusStatisticsMatchStrict) {
  // Push and strict are different generators over the same Markov chain;
  // their trial statistics must agree loosely (the tight pin is the
  // bitwise push==batched equality plus the batched-vs-strict equivalence
  // above — this is an end-to-end smoke over the driver).
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(600, 8, 46));
  const Configuration start = workloads::parse_workload("bias:120", 600, 2);
  CommonTrialOptions options;
  options.trials = 24;
  options.seed = 5;
  options.max_rounds = 60000;
  options.mode = EngineMode::Push;
  const TrialSummary push = run_graph_trials(voter, graph, start, options);
  options.mode = EngineMode::Strict;
  const TrialSummary strict = run_graph_trials(voter, graph, start, options);
  ASSERT_GT(push.consensus_count, 20u);
  ASSERT_GT(strict.consensus_count, 20u);
  const double ratio = push.rounds_p(0.5) / strict.rounds_p(0.5);
  EXPECT_GT(ratio, 1.0 / 4.0);
  EXPECT_LT(ratio, 4.0);
}

// Tuning is performance-only: tile size and prefetch distance (strict AND
// batched) never change a single bit of the trajectory.

TEST(StepTuningKnobs, StrictPrefetchWindowIsBitwiseInert) {
  // prefetch_distance=0 runs the legacy per-node loop; the default windowed
  // path must reproduce it exactly (same draw order, same states).
  const ThreeMajority majority;
  const UndecidedState undecided;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 51));
  const Configuration start3 = workloads::parse_workload("bias:40", 1500, 3);
  const Configuration startu =
      UndecidedState::extend_with_undecided(workloads::parse_workload("bias:40", 1500, 3));
  for (const std::uint32_t distance : {0u, 4u, 16u, 300u}) {
    const StepTuning tuning{0, distance};
    EXPECT_EQ(trajectory(majority, graph, start3, 61, EngineMode::Strict, 4, tuning),
              trajectory(majority, graph, start3, 61, EngineMode::Strict, 4))
        << "prefetch " << distance;
    EXPECT_EQ(trajectory(undecided, graph, startu, 62, EngineMode::Strict, 4, tuning),
              trajectory(undecided, graph, startu, 62, EngineMode::Strict, 4))
        << "prefetch " << distance;
  }
}

TEST(StepTuningKnobs, BatchedTileAndPrefetchAreBitwiseInert) {
  const ThreeMajority majority;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 52));
  const Configuration start = workloads::parse_workload("bias:40", 1500, 3);
  const auto reference = trajectory(majority, graph, start, 63, EngineMode::Batched, 4);
  for (const std::uint32_t tile : {0u, 64u, 777u, 8192u}) {
    for (const std::uint32_t distance : {0u, 16u}) {
      const StepTuning tuning{tile, distance};
      EXPECT_EQ(trajectory(majority, graph, start, 63, EngineMode::Batched, 4, tuning),
                reference)
          << "tile " << tile << " prefetch " << distance;
    }
  }
}

TEST(StepTuningKnobs, PushIgnoresTuning) {
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 53));
  const Configuration start = workloads::parse_workload("bias:40", 1500, 2);
  const StepTuning tuning{512, 64};
  EXPECT_EQ(trajectory(voter, graph, start, 64, EngineMode::Push, 4, tuning),
            trajectory(voter, graph, start, 64, EngineMode::Push, 4));
}

}  // namespace
}  // namespace plurality::graph
