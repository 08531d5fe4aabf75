// Scale and edge-of-domain tests: the count-based backend must be exact
// and fast at n = 10^9 (the repro's headline capability), and every code
// path must behave at the tiny extremes (k = 1, n = 2).
#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/runner.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "support/timer.hpp"

namespace plurality {
namespace {

TEST(Scale, BillionNodeRoundIsExactAndFast) {
  ThreeMajority dynamics;
  const count_t n = 1'000'000'000;
  Configuration config = workloads::additive_bias(n, 8, n / 10);
  rng::Xoshiro256pp gen(1);
  WallTimer timer;
  for (int round = 0; round < 100; ++round) {
    step_count_based(dynamics, config, gen);
    ASSERT_EQ(config.n(), n);
  }
  EXPECT_LT(timer.seconds(), 5.0);  // ~0.5us/round measured; huge headroom
}

TEST(Scale, BillionNodeRunConvergesToPlurality) {
  ThreeMajority dynamics;
  const count_t n = 1'000'000'000;
  const auto s = static_cast<count_t>(2.0 * workloads::critical_bias_scale(n, 4));
  rng::Xoshiro256pp gen(2);
  const RunResult result =
      run_dynamics(dynamics, workloads::additive_bias(n, 4, s), RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_TRUE(result.plurality_won);
  // O(min{2k, (n/ln n)^(1/3)} log n): generous cap.
  EXPECT_LT(result.rounds, 500u);
}

TEST(Scale, BillionNodeVoterStaysBalanced) {
  // The voter's martingale at n = 10^9: after 50 rounds the counts remain
  // within a few fluctuation scales (sigma ~ sqrt(n) ~ 3e4 per round,
  // random-walk accumulation over 50 rounds ~ 2e5).
  Voter dynamics;
  const count_t n = 1'000'000'000;
  Configuration config({n / 2, n / 2});
  rng::Xoshiro256pp gen(3);
  for (int round = 0; round < 50; ++round) step_count_based(dynamics, config, gen);
  const double drift = std::fabs(static_cast<double>(config.at(0)) -
                                 static_cast<double>(n) / 2.0);
  EXPECT_LT(drift, 3e6);
}

TEST(Scale, LargeKCountBackend) {
  // k = 10^5 colors: the law is O(k) and the multinomial O(k); one round of
  // a singleton-ish start must hold the population invariant.
  ThreeMajority dynamics;
  const state_t k = 100'000;
  Configuration config = workloads::balanced(1'000'000, k);
  rng::Xoshiro256pp gen(4);
  step_count_based(dynamics, config, gen);
  EXPECT_EQ(config.n(), 1'000'000u);
}

TEST(Edge, SingleColorIsImmediateConsensus) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(5);
  const RunResult result =
      run_dynamics(dynamics, Configuration({1000}), RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Edge, TwoNodesResolveEventually) {
  // n = 2, k = 2: each node samples 3 of the 2 nodes; the first tie-break
  // or double-hit resolves it. Must absorb, never crash.
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(6);
  const RunResult result =
      run_dynamics(dynamics, Configuration({1, 1}), RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
}

TEST(Edge, TwoNodeVoterResolves) {
  Voter dynamics;
  rng::Xoshiro256pp gen(7);
  const RunResult result = run_dynamics(dynamics, Configuration({1, 1}), RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
}

TEST(Edge, UndecidedWithAllMassOnOneColor) {
  UndecidedState dynamics;
  rng::Xoshiro256pp gen(8);
  const Configuration start = UndecidedState::extend_with_undecided(Configuration({50, 0}));
  const RunResult result = run_dynamics(dynamics, start, RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(Edge, MedianWithTwoNodesAndThreeColors) {
  MedianDynamics dynamics;
  rng::Xoshiro256pp gen(9);
  RunOptions options;
  options.max_rounds = 100000;
  const RunResult result =
      run_dynamics(dynamics, Configuration({1, 0, 1}), options, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  // Median of samples from {0, 2} can be 0, 1 is unreachable, 2 possible.
  EXPECT_NE(result.winner, 1u);
}

TEST(Edge, GraphCliqueTinyPopulation) {
  ThreeMajority dynamics;
  graph::GraphSimulation sim(dynamics, graph::AgentGraph::complete(3), Configuration({2, 1}),
                             10, /*shuffle_layout=*/false);
  for (int round = 0; round < 50; ++round) {
    sim.step();
    ASSERT_EQ(sim.configuration().n(), 3u);
  }
}

TEST(Edge, ExtremeBiasOneRoundFinish) {
  // c = (n-1, 1): the lone dissenter almost surely flips in round 1.
  ThreeMajority dynamics;
  const count_t n = 1'000'000;
  rng::Xoshiro256pp gen(11);
  int finished_in_one = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Configuration config({n - 1, 1});
    step_count_based(dynamics, config, gen);
    finished_in_one += (config.at(0) == n);
  }
  EXPECT_GE(finished_in_one, 48);
}

}  // namespace
}  // namespace plurality
