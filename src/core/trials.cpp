#include "core/trials.hpp"

#include "core/observer.hpp"
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

TrialSummary run_trials(const Dynamics& dynamics, const ConfigFactory& factory,
                        const CommonTrialOptions& options) {
  PLURALITY_REQUIRE(options.trials > 0, "run_trials: need at least one trial");
  RunOptions run_options;
  run_options.max_rounds = options.max_rounds;
  run_options.record_trajectory = false;  // trajectories cost memory x trials
  run_options.engine = options.mode;
  run_options.adversary = options.adversary;
  run_options.stop_predicate = options.stop_predicate;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;

  const rng::StreamFactory streams(options.seed);
  TrialOutcomes outcomes(options.trials, options.exact_round_samples);

  // One StepWorkspace per executing thread, reused across every round of
  // every trial that thread runs. The workspace is pure scratch, so which
  // thread runs which trial (schedule(dynamic)) cannot affect results —
  // each trial's randomness comes only from its own hash-derived stream.
  const auto body = [&](std::uint64_t trial, StepWorkspace& ws) {
    rng::Xoshiro256pp gen = streams.stream(trial);
    const Configuration start = factory(trial, gen);
    RunResult result;
    if (options.observer != nullptr) {
      // Per-trial copy carries the trial index to the observer callbacks
      // (one options copy per TRIAL, never per round; the shared object
      // cannot hold a mutating index under parallel trials).
      RunOptions run = run_options;
      run.observer_trial = trial;
      result = run_dynamics(dynamics, start, run, gen, ws);
    } else {
      result = run_dynamics(dynamics, start, run_options, gen, ws);
    }
    outcomes.record(trial, result.reason, result.plurality_won, result.rounds);
  };

  // Count rounds have no parallel region, so n never moves the plan.
  const ThreadPlan plan = plan_trials(options, 0, /*team_rounds=*/false);
#if defined(PLURALITY_HAVE_OPENMP)
  if (plan.trial_team > 1) {
#pragma omp parallel num_threads(plan.trial_team)
    {
      StepWorkspace ws;
#pragma omp for schedule(dynamic)
      for (std::uint64_t trial = 0; trial < options.trials; ++trial) body(trial, ws);
    }
  } else
#endif
  {
    StepWorkspace ws;
    for (std::uint64_t trial = 0; trial < options.trials; ++trial) body(trial, ws);
  }

  // Unwinding is only safe here, outside the OpenMP region. Any token that
  // fired poisons the whole run: partial summaries are not reproducible.
  if (options.cancel != nullptr && options.cancel->stop_requested()) {
    throw CancelledError(options.cancel->reason());
  }

  return outcomes.summarize();
}

TrialSummary run_trials(const Dynamics& dynamics, const Configuration& start,
                        const CommonTrialOptions& options) {
  return run_trials(
      dynamics,
      [&start](std::uint64_t, rng::Xoshiro256pp&) { return start; },
      options);
}

}  // namespace plurality
