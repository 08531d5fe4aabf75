// Observer pipeline contract:
//  (1) observer-on and observer-off runs produce bitwise-identical trial
//      streams (counters, moments, per-trial round samples) on every
//      backend × engine × adversary cell — observers read, never perturb;
//  (2) callbacks arrive in order (begin, rounds 1..R, end) with consistent
//      round numbers;
//  (3) ProbeObserver's probes match independently computed ground truth
//      (time-to-m-plurality vs the stop-predicate driver, trajectory
//      endpoints vs the summary).
#include "core/observer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/adversary.hpp"
#include "core/majority.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"

namespace plurality {
namespace {

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
  EXPECT_EQ(a.predicate_stops, b.predicate_stops);
  EXPECT_EQ(a.rounds.count(), b.rounds.count());
  if (b.rounds.count() > 0) {
    EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
    EXPECT_EQ(a.rounds.min(), b.rounds.min());
    EXPECT_EQ(a.rounds.max(), b.rounds.max());
  }
  ASSERT_EQ(a.round_samples.size(), b.round_samples.size());
  for (std::size_t i = 0; i < b.round_samples.size(); ++i) {
    EXPECT_EQ(a.round_samples[i], b.round_samples[i]) << "trial sample " << i;
  }
}

CommonTrialOptions base_options(std::uint64_t trials, std::uint64_t seed) {
  CommonTrialOptions options;
  options.trials = trials;
  options.seed = seed;
  options.max_rounds = 2000;
  return options;
}

ProbeObserver make_probe(std::uint64_t trials) {
  ProbeOptions po;
  po.trials = trials;
  po.trajectory_capacity = 256;
  po.track_m_plurality = true;
  po.m_plurality = 500;
  return ProbeObserver(po);
}

/// One count-path cell: observer-off vs observer-on must match bitwise.
void check_count_cell(EngineMode mode, const Adversary* adversary, const char* label) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(4000, 4, 400);
  CommonTrialOptions options = base_options(8, 99);
  options.mode = mode;
  options.adversary = adversary;
  if (adversary != nullptr) options.max_rounds = 200;  // some adversaries block consensus
  const TrialSummary off = run_trials(dyn, start, options);

  ProbeObserver probe = make_probe(options.trials);
  options.observer = &probe;
  const TrialSummary on = run_trials(dyn, start, options);
  SCOPED_TRACE(label);
  expect_same_summary(on, off);
}

TEST(ObserverEquivalence, CountGrid) {
  const BoostRunnerUp boost(25);
  const FeedWeakest feed(10);
  check_count_cell(EngineMode::Strict, nullptr, "count/strict");
  check_count_cell(EngineMode::Batched, nullptr, "count/batched");
  check_count_cell(EngineMode::Strict, &boost, "count/strict/boost");
  check_count_cell(EngineMode::Batched, &feed, "count/batched/feed");
}

TEST(ObserverEquivalence, CountStopPredicate) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(4000, 4, 400);
  CommonTrialOptions options = base_options(8, 7);
  options.stop_predicate = stop_at_m_plurality(800, 0);
  const TrialSummary off = run_trials(dyn, start, options);
  ProbeObserver probe = make_probe(options.trials);
  options.observer = &probe;
  expect_same_summary(run_trials(dyn, start, options), off);
}

TEST(ObserverEquivalence, GraphGrid) {
  const RandomCorruption random_adv(15);
  struct Cell {
    const char* topology;
    EngineMode mode;
    const Adversary* adversary;
  };
  const Cell cells[] = {
      {"regular:8", EngineMode::Strict, nullptr},
      {"regular:8", EngineMode::Batched, nullptr},
      {"torus:40x50", EngineMode::Strict, &random_adv},
      {"clique", EngineMode::Batched, &random_adv},
  };
  UndecidedState dyn;
  const Configuration start = UndecidedState::extend_with_undecided(
      workloads::additive_bias(2000, 3, 300));
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.topology);
    rng::Xoshiro256pp topo_gen(13);
    const graph::AgentGraph graph =
        graph::make_topology(cell.topology, 2000, topo_gen);
    CommonTrialOptions options = base_options(6, 41);
    options.mode = cell.mode;
    options.adversary = cell.adversary;
    options.max_rounds = cell.adversary != nullptr ? 300 : 2000;
    const TrialSummary off = run_graph_trials(dyn, graph, start, options);
    ProbeObserver probe = make_probe(options.trials);
    options.observer = &probe;
    expect_same_summary(run_graph_trials(dyn, graph, start, options), off);
  }
}

TEST(ObserverEquivalence, ThreadCountInvariantWithObserver) {
  // Parallel vs serial trials with an observer attached: same summary, and
  // the observer's per-trial products are identical too (disjoint slots).
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(3000, 3, 300);
  CommonTrialOptions options = base_options(12, 17);

  ProbeObserver parallel_probe = make_probe(options.trials);
  options.observer = &parallel_probe;
  options.parallel = true;
  const TrialSummary parallel_summary = run_trials(dyn, start, options);

  ProbeObserver serial_probe = make_probe(options.trials);
  options.observer = &serial_probe;
  options.parallel = false;
  const TrialSummary serial_summary = run_trials(dyn, start, options);

  expect_same_summary(parallel_summary, serial_summary);
  for (std::uint64_t t = 0; t < options.trials; ++t) {
    EXPECT_EQ(parallel_probe.time_to_m(t), serial_probe.time_to_m(t)) << "trial " << t;
    const auto pa = parallel_probe.trajectory(t);
    const auto se = serial_probe.trajectory(t);
    ASSERT_EQ(pa.size(), se.size()) << "trial " << t;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].round, se[i].round);
      EXPECT_EQ(pa[i].plurality_fraction, se[i].plurality_fraction);
      EXPECT_EQ(pa[i].support, se[i].support);
      EXPECT_EQ(pa[i].mono_distance, se[i].mono_distance);
    }
  }
}

/// Observer recording the raw callback sequence for one trial.
class SequenceObserver final : public RoundObserver {
 public:
  explicit SequenceObserver(std::uint64_t trials) : begun_(trials, 0), ended_(trials, 0),
                                                    last_round_(trials, 0) {}

  void begin_trial(std::uint64_t trial, const Configuration& start,
                   state_t num_colors) override {
    EXPECT_EQ(begun_[trial], 0u) << "begin_trial must come first, once";
    EXPECT_GE(start.n(), 1u);
    EXPECT_GE(num_colors, 1u);
    begun_[trial] = 1;
  }
  void observe_round(std::uint64_t trial, round_t round, const Configuration&,
                     state_t) override {
    EXPECT_EQ(begun_[trial], 1u);
    EXPECT_EQ(ended_[trial], 0u);
    EXPECT_EQ(round, last_round_[trial] + 1) << "rounds must arrive 1, 2, 3, ...";
    last_round_[trial] = round;
  }
  void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                 const Configuration&, state_t) override {
    EXPECT_EQ(begun_[trial], 1u);
    EXPECT_EQ(ended_[trial], 0u);
    if (reason != StopReason::RoundLimit) {
      EXPECT_EQ(rounds, last_round_[trial]) << "stop round must be the last observed";
    }
    ended_[trial] = 1;
  }

  [[nodiscard]] bool all_complete() const {
    return std::all_of(begun_.begin(), begun_.end(), [](auto v) { return v == 1; }) &&
           std::all_of(ended_.begin(), ended_.end(), [](auto v) { return v == 1; });
  }

 private:
  std::vector<std::uint8_t> begun_, ended_;
  std::vector<round_t> last_round_;
};

TEST(Observer, CallbackSequenceOnAllDrivers) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(2000, 3, 200);
  // Serial trials: the sequence observer asserts from inside callbacks and
  // gtest expectation recording is not thread-safe.
  {
    SequenceObserver seq(5);
    CommonTrialOptions options = base_options(5, 3);
    options.parallel = false;
    options.observer = &seq;
    (void)run_trials(dyn, start, options);
    EXPECT_TRUE(seq.all_complete());
  }
  {
    SequenceObserver seq(5);
    rng::Xoshiro256pp topo_gen(4);
    const graph::AgentGraph graph = graph::make_topology("regular:6", 2000, topo_gen);
    CommonTrialOptions options = base_options(5, 3);
    options.parallel = false;
    options.observer = &seq;
    (void)run_graph_trials(dyn, graph, start, options);
    EXPECT_TRUE(seq.all_complete());
  }
}

TEST(ProbeObserver, TimeToMPluralityMatchesStopPredicateDriver) {
  // Ground truth: the m-plurality STOP predicate halts a trial at the
  // first round where all but M nodes hold color 0. With the plurality
  // fixed on color 0 (biased workload, all trials won), the probe's
  // time-to-m must equal that stop round, trial by trial.
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(4000, 4, 1000);
  const count_t m = 800;

  CommonTrialOptions stopping = base_options(10, 23);
  stopping.stop_predicate = stop_at_m_plurality(m, 0);
  const TrialSummary stopped = run_trials(dyn, start, stopping);
  ASSERT_EQ(stopped.predicate_stops, stopped.trials);

  CommonTrialOptions observed = base_options(10, 23);
  ProbeOptions po;
  po.trials = 10;
  po.track_m_plurality = true;
  po.m_plurality = m;
  ProbeObserver probe(po);
  observed.observer = &probe;
  (void)run_trials(dyn, start, observed);
  probe.finalize();

  EXPECT_EQ(probe.m_plurality_hits(), 10u);
  // round_samples is per-trial in trial order (same filter: all stopped).
  ASSERT_EQ(stopped.round_samples.size(), 10u);
  for (std::uint64_t t = 0; t < 10; ++t) {
    EXPECT_EQ(probe.time_to_m(t), stopped.round_samples[t]) << "trial " << t;
  }
}

TEST(ProbeObserver, TrajectoryEndsAtConsensus) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(3000, 3, 600);
  CommonTrialOptions options = base_options(4, 31);
  ProbeOptions po;
  po.trials = 4;
  po.trajectory_capacity = 512;
  ProbeObserver probe(po);
  options.observer = &probe;
  const TrialSummary summary = run_trials(dyn, start, options);
  ASSERT_EQ(summary.consensus_count, 4u);
  probe.finalize();

  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto rows = probe.trajectory(t);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows.front().round, 0u);
    // Consensus round recorded: full plurality mass, single-color support,
    // monochromatic distance 1.
    EXPECT_DOUBLE_EQ(rows.back().plurality_fraction, 1.0);
    EXPECT_EQ(rows.back().support, 1u);
    EXPECT_DOUBLE_EQ(rows.back().mono_distance, 1.0);
    EXPECT_EQ(static_cast<double>(rows.back().round), summary.round_samples[t]);
    // Rounds strictly increasing.
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].round, rows[i - 1].round + 1);
    }
  }
  EXPECT_DOUBLE_EQ(probe.final_plurality_fraction().mean(), 1.0);
  EXPECT_DOUBLE_EQ(probe.final_support().mean(), 1.0);
}

TEST(ProbeObserver, StrideAndCapacityBoundRecording) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(3000, 3, 100);
  CommonTrialOptions options = base_options(2, 5);
  ProbeOptions po;
  po.trials = 2;
  po.trajectory_capacity = 4;
  po.trajectory_stride = 2;
  ProbeObserver probe(po);
  options.observer = &probe;
  (void)run_trials(dyn, start, options);
  for (std::uint64_t t = 0; t < 2; ++t) {
    const auto rows = probe.trajectory(t);
    EXPECT_LE(rows.size(), 4u);
    for (const ProbeRow& row : rows) {
      EXPECT_EQ(row.round % 2, 0u) << "stride=2 records even rounds only";
    }
  }
}

TEST(TrialSummary, RoundSampleCapSwitchesToSketch) {
  // Below the cap: exact vector + exact sketch agree. Above: the vector is
  // cleared, the sketch keeps bounded memory and sane quantiles.
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(2000, 3, 400);
  CommonTrialOptions options = base_options(40, 11);
  options.exact_round_samples = 16;
  const TrialSummary summary = run_trials(dyn, start, options);
  ASSERT_EQ(summary.rounds.count(), 40u);
  EXPECT_TRUE(summary.round_samples.empty()) << "above the cap the vector is cleared";
  EXPECT_FALSE(summary.round_quantiles.exact());
  EXPECT_EQ(summary.round_quantiles.count(), 40u);
  EXPECT_EQ(summary.round_quantiles.samples().size(), 16u);
  EXPECT_GE(summary.rounds_p(0.5), summary.rounds.min());
  EXPECT_LE(summary.rounds_p(0.5), summary.rounds.max());

  options.exact_round_samples = 64;
  const TrialSummary exact = run_trials(dyn, start, options);
  EXPECT_EQ(exact.round_samples.size(), 40u);
  EXPECT_TRUE(exact.round_quantiles.exact());
}

}  // namespace
}  // namespace plurality
