// The round loop of every run: advances a configuration until color
// consensus (or another absorbing/stop condition), optionally recording
// the per-round trajectory the phase-structure analysis (E8) needs. Each
// round is one protocol step plus the F-bounded adversary's move (Section
// 3.1's  Random -> Adversary  round split). run_rounds holds the loop once
// for every backend; run_dynamics is its count-based instance and
// graph::run_graph_trials steps a node array through it.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/backend.hpp"
#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "core/engine_mode.hpp"
#include "rng/xoshiro.hpp"
#include "support/cancellation.hpp"
#include "support/types.hpp"

namespace plurality {

/// One sampled point of a run's trajectory (colors only; auxiliary states
/// count toward minority_mass).
struct TrajectoryPoint {
  round_t round;
  state_t plurality_color;
  count_t plurality_count;
  count_t runner_up_count;
  count_t bias;
  count_t minority_mass;
};

enum class StopReason {
  ColorConsensus,   // all n nodes on one color — the absorbing goal state
  NonColorAbsorbed, // absorbed in a non-color state (all-undecided)
  PredicateMet,     // caller's stop_predicate returned true
  RoundLimit,       // max_rounds exhausted without absorption
  Cancelled,        // RunOptions::cancel fired — result must be discarded
};

/// Per-round probe of the round loop (contract and implementations in
/// core/observer.hpp).
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// Trial `trial` is about to run from `start` (the round-0 state, already
  /// in the dynamics' state space).
  virtual void begin_trial(std::uint64_t trial, const Configuration& start,
                           state_t num_colors) = 0;

  /// Round `round` of trial `trial` is fully materialized: protocol step
  /// and adversary move (when wired) applied. Called before the driver's
  /// own stop checks, so the absorbing round is observed too.
  virtual void observe_round(std::uint64_t trial, round_t round,
                             const Configuration& config, state_t num_colors) = 0;

  /// Trial `trial` stopped after `rounds` rounds with `final` as its last
  /// configuration (for StopReason::RoundLimit, `rounds` is the round cap).
  virtual void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                         const Configuration& final, state_t num_colors) = 0;
};

struct RunResult {
  round_t rounds = 0;
  StopReason reason = StopReason::RoundLimit;
  /// Winning color; only meaningful for ColorConsensus.
  state_t winner = 0;
  /// Plurality color of the INITIAL configuration (lowest index on ties).
  state_t initial_plurality = 0;
  /// reason == ColorConsensus && winner == initial_plurality.
  bool plurality_won = false;
  /// Final configuration at stop time.
  Configuration final_config;
  /// Per-round trajectory; empty unless RunOptions::record_trajectory.
  std::vector<TrajectoryPoint> trajectory;
};

struct RunOptions {
  round_t max_rounds = 1'000'000;
  bool record_trajectory = false;
  /// Stepping pipeline. Strict is the bitwise-pinned xoshiro default;
  /// Batched steps with block-generated PhiloxStream uniforms through the
  /// same exact conditional-binomial kernels (the count-side face of the
  /// graph engine's mode axis — distributionally equivalent, not bitwise). The Philox stream is keyed off one draw from
  /// the caller's generator, so trials stay independent and thread-
  /// invariant; adversary and factory randomness keep using the caller's
  /// generator either way.
  EngineMode engine = EngineMode::Strict;
  /// Applied after every protocol step.
  const Adversary* adversary = nullptr;
  /// Optional extra stop condition, checked after each round:
  /// (configuration, round) -> stop?
  std::function<bool(const Configuration&, round_t)> stop_predicate;
  /// Per-round probe pipeline (core/observer.hpp): begin_trial before the
  /// first step, observe_round after each materialized round (protocol +
  /// adversary), end_trial at stop. Observers read the configuration only
  /// and draw no RNG, so wiring one in never changes the run's results
  /// (pinned by tests/core/test_observer.cpp).
  RoundObserver* observer = nullptr;
  /// Trial index forwarded to the observer's callbacks by the run_dynamics
  /// forms without a `trial` argument (the trial drivers pass their own).
  std::uint64_t observer_trial = 0;
  /// Cooperative cancellation (support/cancellation.hpp): checked between
  /// rounds (one relaxed atomic load). A fired token stops the run at the
  /// next round boundary with StopReason::Cancelled — the run's partial
  /// state is NOT a valid result and must be discarded by the caller (the
  /// trial drivers translate it into a CancelledError once outside their
  /// parallel regions). nullptr = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// The trajectory point of `config` at `round`.
TrajectoryPoint trajectory_point(const Configuration& config, state_t num_colors,
                                 round_t round);

/// The round loop: runs `config` (the round-0 state) until a stop, with
/// observer callbacks tagged `trial`. step(config, round) plays round
/// `round` (1, 2, ...) in place: the protocol step, then the adversary's
/// move. Between rounds the loop checks options.cancel; after each round
/// it records the trajectory point, calls the observer, and stops on color
/// consensus, on non-color absorption, then on options.stop_predicate. The
/// round-0 state is checked for consensus and the predicate first. `step`
/// is a template parameter so a cheap count round inlines into the loop.
template <typename Step>
RunResult run_rounds(Configuration config, state_t num_colors, const RunOptions& options,
                     std::uint64_t trial, Step&& step) {
  RunResult result;
  result.initial_plurality = config.plurality(num_colors);
  RoundObserver* const observer = options.observer;
  if (options.record_trajectory) {
    result.trajectory.push_back(trajectory_point(config, num_colors, 0));
  }
  if (observer != nullptr) observer->begin_trial(trial, config, num_colors);

  const auto finish = [&](round_t rounds, StopReason reason) {
    result.rounds = rounds;
    result.reason = reason;
    if (reason == StopReason::ColorConsensus) {
      result.winner = config.plurality(num_colors);
      result.plurality_won = (result.winner == result.initial_plurality);
    }
    if (observer != nullptr) observer->end_trial(trial, reason, rounds, config, num_colors);
    result.final_config = std::move(config);
    return std::move(result);
  };

  // Round 0: a start that is already absorbed/stopping.
  if (config.color_consensus(num_colors)) return finish(0, StopReason::ColorConsensus);
  if (options.stop_predicate && options.stop_predicate(config, 0)) {
    return finish(0, StopReason::PredicateMet);
  }

  for (round_t round = 1; round <= options.max_rounds; ++round) {
    if (options.cancel != nullptr && options.cancel->stop_requested()) {
      // Between-rounds cooperative stop (one relaxed load); every caller
      // that sees Cancelled discards the partially advanced state.
      return finish(round - 1, StopReason::Cancelled);
    }
    step(config, round);
    if (options.record_trajectory) {
      result.trajectory.push_back(trajectory_point(config, num_colors, round));
    }
    if (observer != nullptr) observer->observe_round(trial, round, config, num_colors);
    if (config.color_consensus(num_colors)) {
      return finish(round, StopReason::ColorConsensus);
    }
    if (config.monochromatic()) {
      // All mass in one non-color state (e.g. all-undecided): absorbing but
      // not a consensus on any color.
      return finish(round, StopReason::NonColorAbsorbed);
    }
    if (options.stop_predicate && options.stop_predicate(config, round)) {
      return finish(round, StopReason::PredicateMet);
    }
  }
  return finish(options.max_rounds, StopReason::RoundLimit);
}

/// Runs `dynamics` from `start` (already in the dynamics' state space —
/// use UndecidedState::extend_with_undecided for protocols with auxiliary
/// states): the count-based instance of run_rounds, with observer
/// callbacks tagged `trial`. Advances `gen` as its randomness source. `ws`
/// is the stepping scratch; callers running many runs (run_trials) pass
/// one workspace per thread so steady-state rounds allocate nothing.
/// Workspace sharing never affects results (it is pure scratch — see
/// step_workspace.hpp).
RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, std::uint64_t trial,
                       rng::Xoshiro256pp& gen, StepWorkspace& ws);

/// As above, with the observer callbacks tagged options.observer_trial.
RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen,
                       StepWorkspace& ws);

/// Convenience overload for one-off runs; allocates a throwaway workspace.
RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen);

/// Stop predicate for Theorem 2-style experiments: stop once any color
/// reaches `threshold` nodes.
std::function<bool(const Configuration&, round_t)> stop_when_any_color_reaches(
    count_t threshold, state_t num_colors);

/// Stop predicate for Corollary 4: stop once all but at most M nodes hold
/// `color`.
std::function<bool(const Configuration&, round_t)> stop_at_m_plurality(
    count_t m, state_t color);

}  // namespace plurality
