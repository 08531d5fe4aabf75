#include "core/trials.hpp"

#include "support/check.hpp"

namespace plurality {

double TrialSummary::win_rate() const {
  PLURALITY_REQUIRE(trials > 0, "TrialSummary::win_rate: no trials");
  return static_cast<double>(plurality_wins) / static_cast<double>(trials);
}

double TrialSummary::consensus_rate() const {
  PLURALITY_REQUIRE(trials > 0, "TrialSummary::consensus_rate: no trials");
  return static_cast<double>(consensus_count) / static_cast<double>(trials);
}

stats::ProportionCi TrialSummary::win_ci() const {
  return stats::wilson_interval(plurality_wins, trials);
}

TrialOutcomes::TrialOutcomes(std::uint64_t trials, std::size_t exact_round_samples)
    : trials_(trials),
      exact_round_samples_(exact_round_samples),
      won_(trials, 0),
      consensus_(trials, 0),
      limited_(trials, 0),
      predicate_(trials, 0),
      round_samples_(trials, -1.0) {
  PLURALITY_REQUIRE(trials > 0, "TrialOutcomes: need at least one trial");
  // Fail fast: summarize() builds a QuantileSketch with this capacity, and
  // discovering a bad value only after every trial ran would lose the run.
  PLURALITY_REQUIRE(exact_round_samples >= 2,
                    "TrialOutcomes: exact_round_samples must be >= 2, got "
                        << exact_round_samples);
}

void TrialOutcomes::record(std::uint64_t trial, StopReason reason, bool plurality_won,
                           round_t rounds) {
  PLURALITY_REQUIRE(trial < trials_, "TrialOutcomes::record: trial out of range");
  switch (reason) {
    case StopReason::ColorConsensus:
      consensus_[trial] = 1;
      won_[trial] = plurality_won ? 1 : 0;
      round_samples_[trial] = static_cast<double>(rounds);
      break;
    case StopReason::PredicateMet:
      predicate_[trial] = 1;
      round_samples_[trial] = static_cast<double>(rounds);
      break;
    case StopReason::RoundLimit:
      limited_[trial] = 1;
      break;
    case StopReason::NonColorAbsorbed:
      break;
    case StopReason::Cancelled:
      // A cancelled trial has no outcome; the driver throws CancelledError
      // after joining, so this recording is never summarized.
      break;
  }
}

TrialSummary TrialOutcomes::summarize() const {
  TrialSummary summary;
  summary.trials = trials_;
  summary.round_quantiles = stats::QuantileSketch(exact_round_samples_);
  for (std::uint64_t trial = 0; trial < trials_; ++trial) {
    summary.consensus_count += consensus_[trial];
    summary.plurality_wins += won_[trial];
    summary.round_limit_hits += limited_[trial];
    summary.predicate_stops += predicate_[trial];
    if (round_samples_[trial] >= 0.0) {
      summary.rounds.add(round_samples_[trial]);
      summary.round_quantiles.add(round_samples_[trial]);
      if (summary.round_samples.size() < exact_round_samples_) {
        summary.round_samples.push_back(round_samples_[trial]);
      }
    }
  }
  if (!summary.round_quantiles.exact()) {
    // Past the cap the vector would be a misleading prefix; the sketch
    // carries a capacity-sized uniform sample instead.
    summary.round_samples.clear();
    summary.round_samples.shrink_to_fit();
  }
  return summary;
}

ThreadPlan plan_trials(const CommonTrialOptions& options, std::uint64_t n,
                       bool team_rounds) {
  return plan_threads(options.trials, n, available_threads(), team_rounds);
}

RunOptions trial_run_options(const CommonTrialOptions& options) {
  RunOptions run_options;
  run_options.max_rounds = options.max_rounds;
  run_options.engine = options.mode;
  run_options.adversary = options.adversary;
  run_options.stop_predicate = options.stop_predicate;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;
  return run_options;
}

TrialSummary run_trials(const Dynamics& dynamics, const ConfigFactory& factory,
                        const CommonTrialOptions& options) {
  PLURALITY_REQUIRE(options.trials > 0, "run_trials: need at least one trial");
  const rng::StreamFactory streams(options.seed);
  // Count rounds have no parallel region, so n never moves the plan.
  return run_trial_team<StepWorkspace>(
      options, plan_trials(options, 0, /*team_rounds=*/false),
      [&](std::uint64_t trial, const RunOptions& run_options, StepWorkspace& ws) {
        rng::Xoshiro256pp gen = streams.stream(trial);
        return run_dynamics(dynamics, factory(trial, gen), run_options, trial, gen, ws);
      });
}

TrialSummary run_trials(const Dynamics& dynamics, const Configuration& start,
                        const CommonTrialOptions& options) {
  return run_trials(
      dynamics,
      [&start](std::uint64_t, rng::Xoshiro256pp&) { return start; },
      options);
}

}  // namespace plurality
