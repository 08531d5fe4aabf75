// Single-run driver: advances a dynamics from an initial configuration
// until color consensus (or another absorbing/stop condition), optionally
// recording the per-round trajectory the phase-structure analysis (E8)
// needs and applying an F-bounded adversary after each protocol step
// (Section 3.1's  Random -> Adversary  round split).
#pragma once

#include <functional>
#include <optional>
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

class RoundObserver;  // core/observer.hpp

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
  /// Trial index forwarded to the observer's callbacks (run_trials sets it;
  /// standalone runs default to 0).
  std::uint64_t observer_trial = 0;
  /// Cooperative cancellation (support/cancellation.hpp): checked between
  /// rounds (one relaxed atomic load). A fired token stops the run at the
  /// next round boundary with StopReason::Cancelled — the run's partial
  /// state is NOT a valid result and must be discarded by the caller (the
  /// trial drivers translate it into a CancelledError once outside their
  /// parallel regions). nullptr = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// Runs `dynamics` from `start` (already in the dynamics' state space —
/// use UndecidedState::extend_with_undecided for protocols with auxiliary
/// states). Advances `gen` as its randomness source. `ws` is the stepping
/// scratch; callers running many runs (run_trials) pass one workspace per
/// thread so steady-state rounds allocate nothing. Workspace sharing never
/// affects results (it is pure scratch — see step_workspace.hpp).
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
