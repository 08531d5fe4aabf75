// Per-round observation pipeline for the trial drivers.
//
// The paper's results are curves, not single cells: consensus time vs k,
// bias decay round by round, the monochromatic-distance trajectory of [4],
// Corollary 4's time-to-m-plurality. Before this layer the only per-round
// window was RunOptions::record_trajectory — count-path only, allocating,
// and invisible to run_trials. A RoundObserver (declared next to the
// round loop in core/runner.hpp) threads through both drivers' shared
// run_rounds and sees every materialized round of every trial.
//
// The contract that keeps observation free of side effects:
//
//  * Observers READ the already-materialized configuration. They draw no
//    RNG and never touch the trial's generator, so observer-on and
//    observer-off runs produce bitwise-identical trial streams on every
//    backend × engine × adversary cell (tests/core/test_observer.cpp).
//  * Observers allocate nothing per round: all buffers are preallocated
//    from the trial count at construction (tests/alloc pins warm observed
//    rounds at zero heap traffic).
//  * Trials run OpenMP-parallel, so callbacks for DIFFERENT trials may be
//    concurrent; implementations must write disjoint per-trial slots (the
//    same discipline as TrialOutcomes::record). Calls for one trial come
//    from one thread, in order: begin_trial, observe_round (round 1, 2,
//    ...), end_trial. Cross-trial reductions belong in a sequential
//    finalize() after the driver returns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/runner.hpp"
#include "stats/quantile_sketch.hpp"
#include "stats/summary.hpp"

namespace plurality {

/// One recorded trajectory point of ProbeObserver (colors only).
struct ProbeRow {
  round_t round;
  /// c_max / n — the plurality fraction.
  double plurality_fraction;
  /// Colors with at least one supporter (the configuration's support size).
  state_t support;
  /// Monochromatic distance of [4]: sum_j (c_j / c_max)^2.
  double mono_distance;
};

struct ProbeOptions {
  /// Trial count of the driver this observer attaches to (sizes every
  /// per-trial slot). Required.
  std::uint64_t trials = 0;
  /// Per-trial trajectory rows to keep; 0 disables trajectory recording
  /// (the scalar probes still run). Memory: trials * capacity *
  /// sizeof(ProbeRow) (32 bytes).
  std::size_t trajectory_capacity = 0;
  /// Record rounds where round % stride == 0 (round 0 always; rounds past
  /// the capacity are dropped, never resampled — choose stride ~
  /// expected_rounds / capacity to cover long runs).
  round_t trajectory_stride = 1;
  /// Track time-to-m-plurality (Corollary 4): the first round where all
  /// but at most `m_plurality` nodes hold the current plurality color.
  bool track_m_plurality = false;
  count_t m_plurality = 0;
  /// Exact-sample capacity of the finalize() sketches.
  std::size_t sketch_capacity = stats::QuantileSketch::kDefaultExactCapacity;
};

/// The standard probe set: per-round plurality fraction / support size /
/// monochromatic distance into preallocated per-trial trajectory buffers,
/// per-trial time-to-m-plurality, and per-trial final-state scalars —
/// reduced into streaming sketches by finalize(). This is what the sweep
/// orchestrator attaches to every cell.
class ProbeObserver final : public RoundObserver {
 public:
  explicit ProbeObserver(const ProbeOptions& options);

  void begin_trial(std::uint64_t trial, const Configuration& start,
                   state_t num_colors) override;
  void observe_round(std::uint64_t trial, round_t round, const Configuration& config,
                     state_t num_colors) override;
  void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                 const Configuration& final, state_t num_colors) override;

  /// Sequential cross-trial reduction (call once, after the driver
  /// returns): builds the time-to-m sketch and the final-state summaries.
  void finalize();

  [[nodiscard]] const ProbeOptions& options() const { return options_; }

  /// Recorded trajectory of one trial (empty when capacity is 0).
  [[nodiscard]] std::span<const ProbeRow> trajectory(std::uint64_t trial) const;

  /// First round where all but at most m nodes held the plurality color;
  /// -1 when the trial never got there (or the probe is off).
  [[nodiscard]] double time_to_m(std::uint64_t trial) const;

  // --- finalize() products ---

  /// Trials that reached m-plurality, and the round distribution over them.
  [[nodiscard]] std::uint64_t m_plurality_hits() const { return m_hits_; }
  [[nodiscard]] const stats::QuantileSketch& time_to_m_sketch() const { return m_sketch_; }

  /// Final-state probes across trials.
  [[nodiscard]] const stats::OnlineStats& final_plurality_fraction() const {
    return final_fraction_stats_;
  }
  [[nodiscard]] const stats::OnlineStats& final_support() const { return final_support_stats_; }
  [[nodiscard]] const stats::OnlineStats& final_mono_distance() const {
    return final_mono_stats_;
  }

 private:
  void probe(std::uint64_t trial, round_t round, const Configuration& config,
             state_t num_colors);

  ProbeOptions options_;
  // Per-trial slots (disjoint writes; see the class comment).
  std::vector<ProbeRow> rows_;            // trials * trajectory_capacity arena
  std::vector<std::uint32_t> row_count_;  // rows used per trial
  std::vector<double> time_to_m_;         // -1 until the threshold is hit
  std::vector<double> final_fraction_;
  std::vector<double> final_support_;
  std::vector<double> final_mono_;
  // finalize() products.
  bool finalized_ = false;
  std::uint64_t m_hits_ = 0;
  stats::QuantileSketch m_sketch_;
  stats::OnlineStats final_fraction_stats_;
  stats::OnlineStats final_support_stats_;
  stats::OnlineStats final_mono_stats_;
};

}  // namespace plurality
