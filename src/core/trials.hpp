// Multi-trial experiment driver: R independent runs of a dynamics,
// OpenMP-parallel over trials when the thread plan (core/thread_plan.hpp)
// says so, each trial on its own hash-derived RNG stream so results are
// identical no matter how many threads execute them.
#pragma once

#include <functional>
#include <vector>

#include "core/runner.hpp"
#include "core/thread_plan.hpp"
#include "rng/stream.hpp"
#include "stats/quantile_sketch.hpp"
#include "stats/summary.hpp"

namespace plurality {

/// Builds the start configuration for one trial (may itself be random,
/// e.g. sampled Zipf workloads). Must be thread-safe / pure.
using ConfigFactory = std::function<Configuration(std::uint64_t trial, rng::Xoshiro256pp&)>;

struct TrialSummary {
  std::uint64_t trials = 0;
  std::uint64_t consensus_count = 0;    // reached some color consensus
  std::uint64_t plurality_wins = 0;     // ... on the initial plurality color
  std::uint64_t round_limit_hits = 0;
  std::uint64_t predicate_stops = 0;
  /// Rounds over trials that stopped before the round limit (consensus or
  /// predicate), i.e. the quantity the theorems bound.
  stats::OnlineStats rounds;
  /// The primary quantile path: a bounded-memory sketch over the same
  /// filtered per-trial round counts (exact below its capacity, reservoir
  /// estimates above — see stats/quantile_sketch.hpp).
  stats::QuantileSketch round_quantiles;
  /// Raw per-trial round counts, same filter as `rounds`, kept verbatim
  /// only while their number stays within the driver's
  /// `exact_round_samples` cap — CLEARED above it (the sketch then holds a
  /// capacity-sized uniform sample; docs/performance.md, "round-sample
  /// memory cap"). Consumers wanting quantiles should call rounds_p().
  std::vector<double> round_samples;

  [[nodiscard]] double win_rate() const;
  [[nodiscard]] double consensus_rate() const;
  [[nodiscard]] stats::ProportionCi win_ci() const;
  /// q-th quantile of the stopped-trial round counts (requires
  /// rounds.count() > 0). Exact when the sample count is within the cap.
  [[nodiscard]] double rounds_p(double q) const { return round_quantiles.quantile(q); }
};

/// The one option set every trial driver consumes — core's run_trials and
/// graph::run_graph_trials both read it, and the scenario layer fills it
/// from a ScenarioSpec. Fields the other backend ignores are documented as
/// such rather than split out: the point is that ONE struct names the
/// whole grid axis.
struct CommonTrialOptions {
  std::uint64_t trials = 100;
  std::uint64_t seed = 1;
  /// false runs the trials one after another whatever the thread plan
  /// would pick (graph rounds may still take a team). Scheduling only.
  bool parallel = true;
  round_t max_rounds = 1'000'000;
  /// Stepping pipeline (see core/engine_mode.hpp). Count backend: Strict =
  /// xoshiro, Batched = PhiloxStream. Graph backend: Strict = fused
  /// xoshiro kernels, Batched = counter-based stage-split SIMD pipeline.
  EngineMode mode = EngineMode::Strict;
  /// Applied after every protocol round (count-level on the count backend,
  /// node-level via corrupt_nodes on the graph backend).
  const Adversary* adversary = nullptr;
  /// Graph backend only: shuffle the node layout per trial (node position
  /// matters on sparse graphs). The count backend is exchangeable, so
  /// there is nothing to shuffle.
  bool shuffle_layout = true;
  /// Optional extra stop condition, checked after each round (after the
  /// consensus and absorption checks); a hit records PredicateMet.
  std::function<bool(const Configuration&, round_t)> stop_predicate;
  /// Per-round probe pipeline (core/observer.hpp), threaded through every
  /// driver. Observers read materialized configurations only and draw no
  /// RNG, so observer-on and observer-off runs produce bitwise-identical
  /// trial streams (tests/core/test_observer.cpp pins the backend × engine
  /// × adversary grid). Distinct trials may observe concurrently — see
  /// RoundObserver's per-trial-slot contract.
  RoundObserver* observer = nullptr;
  /// TrialSummary keeps stopped-trial round counts verbatim up to this
  /// many samples (exact quantiles); past it, round_samples is cleared and
  /// quantiles come from the streaming sketch.
  std::size_t exact_round_samples = stats::QuantileSketch::kDefaultExactCapacity;
  /// Cooperative cancellation (support/cancellation.hpp), threaded into
  /// every trial's between-rounds check by BOTH drivers. When the token
  /// fires, in-flight trials stop at their next round boundary, remaining
  /// trials drain immediately, and the driver throws CancelledError after
  /// its parallel region joins — a cancelled run never returns a partial
  /// TrialSummary. nullptr = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// Per-trial outcome flags with the shared reduction into a TrialSummary.
/// Factored out of run_trials so every trial driver (the clique driver
/// below, graph::run_graph_trials) classifies stop reasons and filters
/// round samples identically. record() writes disjoint slots, so parallel
/// trial bodies may call it concurrently without synchronization.
class TrialOutcomes {
 public:
  explicit TrialOutcomes(std::uint64_t trials,
                         std::size_t exact_round_samples =
                             stats::QuantileSketch::kDefaultExactCapacity);

  /// Records trial `trial`'s stop. `rounds` is only consumed for stops the
  /// theorems bound (consensus / predicate).
  void record(std::uint64_t trial, StopReason reason, bool plurality_won,
              round_t rounds);

  /// Reduces all recorded trials into a summary (sequential; call once).
  [[nodiscard]] TrialSummary summarize() const;

 private:
  std::uint64_t trials_;
  std::size_t exact_round_samples_;
  std::vector<std::uint8_t> won_, consensus_, limited_, predicate_;
  std::vector<double> round_samples_;
};

/// The thread plan a trial driver runs `options` with on `n`-node trials,
/// from the threads available at the call: plan_threads over
/// options.trials (1 when options.parallel is off). `team_rounds` is true
/// for the graph driver, whose rounds have a parallel region.
[[nodiscard]] ThreadPlan plan_trials(const CommonTrialOptions& options, std::uint64_t n,
                                     bool team_rounds);

/// Runs `options.trials` independent runs from factory-generated starts —
/// the count-path trial driver (clique model; for sparse topologies see
/// graph::run_graph_trials, which consumes the same CommonTrialOptions).
TrialSummary run_trials(const Dynamics& dynamics, const ConfigFactory& factory,
                        const CommonTrialOptions& options);

/// Convenience overload: every trial starts from the same configuration.
TrialSummary run_trials(const Dynamics& dynamics, const Configuration& start,
                        const CommonTrialOptions& options);

}  // namespace plurality
