// Cross-validation across independent implementations of the same process:
// count-based vs the graph engine's per-node clique over full runs,
// mean-field vs simulation averages,
// and exact Markov win probabilities vs Monte Carlo for k = 3.
#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/markov_exact.hpp"
#include "core/mean_field.hpp"
#include "core/median.hpp"
#include "core/trials.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "stats/chi_square.hpp"
#include "stats/summary.hpp"

namespace plurality {
namespace {

TEST(CrossValidation, FullRunWinRatesAgreeAcrossBackends) {
  // Medium bias, so the win rate is strictly between 0 and 1 and actually
  // discriminates: both backends must land in overlapping intervals.
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(400, 3, 40);

  CommonTrialOptions count_options;
  count_options.trials = 1500;
  count_options.seed = 1;
  count_options.max_rounds = 100000;
  const TrialSummary count_summary = run_trials(dynamics, start, count_options);

  CommonTrialOptions clique_options = count_options;
  clique_options.seed = 2;
  clique_options.shuffle_layout = false;
  const TrialSummary clique_summary = graph::run_graph_trials(
      dynamics, graph::AgentGraph::complete(start.n()), start, clique_options);

  // 99.9% Wilson intervals must overlap.
  const auto ci_count =
      stats::wilson_interval(count_summary.plurality_wins, count_summary.trials, 3.29);
  const auto ci_clique =
      stats::wilson_interval(clique_summary.plurality_wins, clique_summary.trials, 3.29);
  EXPECT_LT(ci_count.low, ci_clique.high);
  EXPECT_LT(ci_clique.low, ci_count.high);
}

TEST(CrossValidation, FullRunRoundsAgreeAcrossBackends) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(2000, 3, 600);
  CommonTrialOptions options;
  options.trials = 200;
  options.seed = 3;
  const TrialSummary count_summary = run_trials(dynamics, start, options);
  options.seed = 4;
  options.shuffle_layout = false;
  const TrialSummary clique_summary = graph::run_graph_trials(
      dynamics, graph::AgentGraph::complete(start.n()), start, options);
  const double diff = std::fabs(count_summary.rounds.mean() - clique_summary.rounds.mean());
  const double joint_sem = std::sqrt(count_summary.rounds.sem() * count_summary.rounds.sem() +
                                     clique_summary.rounds.sem() * clique_summary.rounds.sem());
  EXPECT_LT(diff, 6 * joint_sem);
}

TEST(CrossValidation, MeanFieldTracksSimulationAverages) {
  // Average of 4000 stochastic trajectories vs the deterministic map for
  // the first 5 rounds (n large enough that fluctuations stay small).
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(10000, 3, 1500);
  const int kRounds = 5;
  const int kTrials = 4000;

  std::vector<std::vector<double>> sums(kRounds + 1, std::vector<double>(3, 0.0));
  rng::Xoshiro256pp gen(5);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    for (int r = 0; r <= kRounds; ++r) {
      for (state_t j = 0; j < 3; ++j) sums[r][j] += static_cast<double>(c.at(j));
      if (r < kRounds) step_count_based(dynamics, c, gen);
    }
  }

  MeanFieldOptions options;
  options.max_rounds = kRounds;
  options.tolerance = 0.0;  // run all rounds
  const auto mf = mean_field_trajectory(dynamics, start.counts_real(), options);
  ASSERT_GE(mf.trajectory.size(), static_cast<std::size_t>(kRounds + 1));
  for (int r = 0; r <= kRounds; ++r) {
    for (state_t j = 0; j < 3; ++j) {
      const double simulated = sums[r][j] / kTrials;
      // Mean-field ignores covariance effects of order O(1); allow a loose
      // absolute band of 0.5% of n.
      EXPECT_NEAR(simulated, mf.trajectory[r][j], 50.0)
          << "round " << r << " color " << j;
    }
  }
}

TEST(CrossValidation, ExactK3MatchesMonteCarloForMajority) {
  ThreeMajority dynamics;
  const count_t n = 24;
  const count_t c0 = 12, c1 = 8;
  const auto exact = analyze_k3(dynamics, n);
  const auto& win = exact.win[exact.index(c0, c1)];

  CommonTrialOptions options;
  options.trials = 3000;
  options.seed = 6;
  options.max_rounds = 100000;
  const TrialSummary summary =
      run_trials(dynamics, Configuration({c0, c1, n - c0 - c1}), options);
  const auto ci =
      stats::wilson_interval(summary.plurality_wins, summary.trials, 3.29);
  EXPECT_GE(win[0], ci.low);
  EXPECT_LE(win[0], ci.high);
}

TEST(CrossValidation, ExactK3MatchesMonteCarloForMedian) {
  MedianDynamics dynamics;
  const count_t n = 24;
  const count_t c0 = 9, c1 = 8;  // median color is 1
  const auto exact = analyze_k3(dynamics, n);
  const auto& win = exact.win[exact.index(c0, c1)];
  EXPECT_GT(win[1], win[0]);  // exact analysis already favors the median color

  CommonTrialOptions options;
  options.trials = 3000;
  options.seed = 7;
  options.max_rounds = 100000;
  const TrialSummary summary =
      run_trials(dynamics, Configuration({c0, c1, n - c0 - c1}), options);
  // Count winner==color1 from the winner distribution: plurality_wins counts
  // color 0 (the initial plurality), so use consensus - wins as a lower
  // bound check plus the exact ordering above.
  const double color0_rate = summary.win_rate();
  const auto ci = stats::wilson_interval(summary.plurality_wins, summary.trials, 3.29);
  EXPECT_GE(win[0], ci.low);
  EXPECT_LE(win[0], ci.high);
  EXPECT_LT(color0_rate, 0.5);
}

TEST(CrossValidation, HPluralityExactLawMatchesGraphClique) {
  // h = 5 with k = 3 uses the enumeration law in the count backend; the
  // graph engine's clique samples the rule directly. One-round
  // distributions of the leading color must agree.
  HPlurality dynamics(5);
  const count_t n = 120;
  const Configuration start({60, 35, 25});
  const int kTrials = 3000;
  std::vector<std::uint64_t> count_hist(n + 1, 0), clique_hist(n + 1, 0);
  rng::Xoshiro256pp gen(8);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    step_count_based(dynamics, c, gen);
    ++count_hist[c.at(0)];
  }
  const graph::AgentGraph clique = graph::AgentGraph::complete(n);
  for (int t = 0; t < kTrials; ++t) {
    graph::GraphSimulation sim(dynamics, clique, start, 70000 + t,
                               /*shuffle_layout=*/false);
    sim.step();
    ++clique_hist[sim.configuration().at(0)];
  }
  const auto result = stats::chi_square_two_sample(count_hist, clique_hist);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(CrossValidation, MeanFieldFixedPointMatchesMarkovCertainty) {
  // Where the exact chain says win probability ~ 1, the mean-field flow
  // from the same start must converge to that color's monopoly.
  ThreeMajority dynamics;
  const count_t n = 40;
  const auto exact = analyze_k2(dynamics, n);
  const count_t start_c0 = 36;  // win prob very near 1
  EXPECT_GT(exact.win_color0[start_c0], 0.99);
  MeanFieldOptions options;
  options.max_rounds = 10000;
  const auto mf = mean_field_trajectory(
      dynamics, {static_cast<double>(start_c0), static_cast<double>(n - start_c0)},
      options);
  EXPECT_TRUE(mf.converged);
  EXPECT_NEAR(mf.trajectory.back()[0], static_cast<double>(n), 1e-6);
}

}  // namespace
}  // namespace plurality
