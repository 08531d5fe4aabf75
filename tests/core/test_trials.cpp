#include "core/trials.hpp"

#include <gtest/gtest.h>

#include "core/majority.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "support/check.hpp"
#include "thread_count_guard.hpp"

namespace plurality {
namespace {

TEST(Trials, CountsAddUp) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(2000, 3, 600);
  CommonTrialOptions options;
  options.trials = 50;
  options.seed = 1;
  const TrialSummary summary = run_trials(dynamics, start, options);
  EXPECT_EQ(summary.trials, 50u);
  EXPECT_EQ(summary.consensus_count + summary.round_limit_hits +
                summary.predicate_stops,
            50u);
  EXPECT_LE(summary.plurality_wins, summary.consensus_count);
  EXPECT_EQ(summary.rounds.count(), summary.round_samples.size());
}

TEST(Trials, HeavyBiasWinsEssentiallyAlways) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(10000, 2, 6000);
  CommonTrialOptions options;
  options.trials = 40;
  options.seed = 2;
  const TrialSummary summary = run_trials(dynamics, start, options);
  EXPECT_EQ(summary.plurality_wins, 40u);
  EXPECT_DOUBLE_EQ(summary.win_rate(), 1.0);
  EXPECT_GT(summary.rounds.mean(), 0.0);
}

TEST(Trials, ParallelAndSequentialAgreeExactly) {
  // Per-trial streams are keyed by trial index, so thread scheduling must
  // not change any trial's outcome: 32 trials on a 4-thread trial team
  // against the same 32 on one thread.
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(3000, 3, 900);
  CommonTrialOptions options;
  options.trials = 32;
  options.seed = 3;

  TrialSummary parallel_summary;
  TrialSummary serial_summary;
  {
    const ThreadCountGuard guard(4);
    parallel_summary = run_trials(dynamics, start, options);
  }
  {
    const ThreadCountGuard guard(1);
    serial_summary = run_trials(dynamics, start, options);
  }
  EXPECT_EQ(parallel_summary.plurality_wins, serial_summary.plurality_wins);
  EXPECT_EQ(parallel_summary.consensus_count, serial_summary.consensus_count);
  ASSERT_EQ(parallel_summary.round_samples.size(), serial_summary.round_samples.size());
  for (std::size_t i = 0; i < parallel_summary.round_samples.size(); ++i) {
    EXPECT_EQ(parallel_summary.round_samples[i], serial_summary.round_samples[i]);
  }
}

TEST(Trials, FactoryReceivesTrialIndexAndStream) {
  ThreeMajority dynamics;
  std::vector<std::uint8_t> seen(16, 0);
  CommonTrialOptions options;
  options.trials = 16;
  options.seed = 4;
  const TrialSummary summary = run_trials(
      dynamics,
      [&seen](std::uint64_t trial, rng::Xoshiro256pp& gen) {
        seen[trial] = 1;
        // Trial-dependent workload, built from the trial's own stream.
        return workloads::sample_from_weights(
            1000, std::vector<double>{0.5, 0.3, 0.2}, gen);
      },
      options);
  EXPECT_EQ(summary.trials, 16u);
  for (std::uint8_t s : seen) EXPECT_EQ(s, 1);
}

TEST(Trials, RoundLimitCountsSeparately) {
  Voter dynamics;
  const Configuration start = workloads::balanced(100000, 2);
  CommonTrialOptions options;
  options.trials = 10;
  options.seed = 5;
  options.max_rounds = 5;  // voter can't finish in 5 rounds from balance
  const TrialSummary summary = run_trials(dynamics, start, options);
  EXPECT_EQ(summary.round_limit_hits, 10u);
  EXPECT_EQ(summary.consensus_count, 0u);
  EXPECT_EQ(summary.rounds.count(), 0u);
}

TEST(Trials, PredicateStopsAreRecorded) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(2000, 2, 600);
  CommonTrialOptions options;
  options.trials = 20;
  options.seed = 6;
  options.stop_predicate = stop_when_any_color_reaches(1500, 2);
  const TrialSummary summary = run_trials(dynamics, start, options);
  EXPECT_EQ(summary.predicate_stops, 20u);
  EXPECT_EQ(summary.rounds.count(), 20u);
}

TEST(Trials, WilsonCiBracketsTheRate) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(5000, 2, 2500);
  CommonTrialOptions options;
  options.trials = 30;
  options.seed = 7;
  const TrialSummary summary = run_trials(dynamics, start, options);
  const auto ci = summary.win_ci();
  // 1e-12 slack: at a 100% win rate the Wilson upper endpoint equals the
  // rate only up to floating-point rounding.
  EXPECT_LE(ci.low, summary.win_rate() + 1e-12);
  EXPECT_GE(ci.high, summary.win_rate() - 1e-12);
}

TEST(Trials, ZeroTrialsRejected) {
  ThreeMajority dynamics;
  CommonTrialOptions options;
  options.trials = 0;
  EXPECT_THROW(run_trials(dynamics, Configuration({1, 1}), options), CheckError);
}

}  // namespace
}  // namespace plurality
