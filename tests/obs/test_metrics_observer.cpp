// MetricsObserver contract:
//  (1) metrics-on runs are bitwise-identical to metrics-off runs on the
//      backend × engine grid — the observer reads materialized configs and
//      never perturbs the trial stream;
//  (2) stacking it on a ProbeObserver forwards every callback, so probe
//      products are unchanged;
//  (3) the metric values themselves are exact: rounds_total equals the
//      summed per-trial rounds, node_updates_total equals rounds × n, the
//      trial lifecycle counters equal the trial count.
#include "obs/metrics_observer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "core/majority.hpp"
#include "core/trials.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"
#include "obs/metrics.hpp"

namespace plurality::obs {
namespace {

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
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

/// One grid cell: metrics-off vs metrics-on must match bitwise.
void check_cell(EngineMode mode, const char* label) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(4000, 4, 400);
  CommonTrialOptions options = base_options(8, 99);
  options.mode = mode;
  const TrialSummary off = run_trials(dyn, start, options);

  MetricsRegistry registry;
  MetricsObserver observer(registry);
  options.observer = &observer;
  const TrialSummary on = run_trials(dyn, start, options);
  SCOPED_TRACE(label);
  expect_same_summary(on, off);
}

TEST(MetricsObserver, BitwiseIdenticalAcrossBackendEngineGrid) {
  check_cell(EngineMode::Strict, "count/strict");
  check_cell(EngineMode::Batched, "count/batched");
}

TEST(MetricsObserver, BitwiseIdenticalOnGraphTrials) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(2000, 3, 300);
  rng::Xoshiro256pp topo_gen(13);
  const graph::AgentGraph graph = graph::make_topology("regular:8", 2000, topo_gen);
  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    SCOPED_TRACE(mode == EngineMode::Strict ? "graph/strict" : "graph/batched");
    CommonTrialOptions options = base_options(6, 41);
    options.mode = mode;
    options.observer = nullptr;
    const TrialSummary off = run_graph_trials(dyn, graph, start, options);

    MetricsRegistry registry;
    MetricsObserver observer(registry);
    options.observer = &observer;
    expect_same_summary(run_graph_trials(dyn, graph, start, options), off);
  }
}

TEST(MetricsObserver, CountsAreExact) {
  ThreeMajority dyn;
  const count_t n = 3000;
  const Configuration start = workloads::additive_bias(n, 3, 300);
  CommonTrialOptions options = base_options(6, 17);
  options.parallel = false;

  MetricsRegistry registry;
  MetricsObserver observer(registry);
  options.observer = &observer;
  const TrialSummary summary = run_trials(dyn, start, options);

  const EngineMetrics em(registry);
  EXPECT_EQ(em.trials_started_total.value(), summary.trials);
  EXPECT_EQ(em.trials_finished_total.value(), summary.trials);
  const std::uint64_t total_rounds = std::accumulate(
      summary.round_samples.begin(), summary.round_samples.end(), std::uint64_t{0},
      [](std::uint64_t acc, double r) { return acc + static_cast<std::uint64_t>(r); });
  EXPECT_EQ(em.rounds_total.value(), total_rounds);
  EXPECT_EQ(em.node_updates_total.value(), total_rounds * n);
  EXPECT_EQ(em.trial_rounds.count(), summary.trials);
  EXPECT_EQ(em.trial_rounds.sum(), static_cast<double>(total_rounds));
  // All trials reached consensus, so the last observed round is
  // monochromatic: full plurality mass, single-color support.
  ASSERT_EQ(summary.consensus_count, summary.trials);
  EXPECT_EQ(em.plurality_fraction.value(), 1.0);
  EXPECT_EQ(em.support_size.value(), 1.0);
}

TEST(MetricsObserver, ForwardsToInnerObserver) {
  ThreeMajority dyn;
  const Configuration start = workloads::additive_bias(3000, 3, 600);
  ProbeOptions po;
  po.trials = 4;
  po.trajectory_capacity = 512;
  po.track_m_plurality = true;
  po.m_plurality = 500;

  CommonTrialOptions options = base_options(4, 31);
  ProbeObserver bare(po);
  options.observer = &bare;
  (void)run_trials(dyn, start, options);
  bare.finalize();

  ProbeObserver stacked_probe(po);
  MetricsRegistry registry;
  MetricsObserver stacked(registry, &stacked_probe);
  options.observer = &stacked;
  (void)run_trials(dyn, start, options);
  stacked_probe.finalize();

  EXPECT_EQ(stacked_probe.m_plurality_hits(), bare.m_plurality_hits());
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(stacked_probe.time_to_m(t), bare.time_to_m(t)) << "trial " << t;
    const auto a = stacked_probe.trajectory(t);
    const auto b = bare.trajectory(t);
    ASSERT_EQ(a.size(), b.size()) << "trial " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].round, b[i].round);
      EXPECT_EQ(a[i].plurality_fraction, b[i].plurality_fraction);
      EXPECT_EQ(a[i].support, b[i].support);
    }
  }
}

TEST(MetricsObserver, SharedRegistryAcrossParallelTrialsStaysExact) {
  // OpenMP-parallel trials all feed the same registry through sharded
  // atomics: the totals must still be exact, not approximately right.
  ThreeMajority dyn;
  const count_t n = 2000;
  const Configuration start = workloads::additive_bias(n, 3, 200);
  CommonTrialOptions serial = base_options(12, 7);
  serial.parallel = false;
  MetricsRegistry serial_registry;
  MetricsObserver serial_observer(serial_registry);
  serial.observer = &serial_observer;
  (void)run_trials(dyn, start, serial);

  CommonTrialOptions parallel = base_options(12, 7);
  parallel.parallel = true;
  MetricsRegistry parallel_registry;
  MetricsObserver parallel_observer(parallel_registry);
  parallel.observer = &parallel_observer;
  (void)run_trials(dyn, start, parallel);

  const EngineMetrics s(serial_registry);
  const EngineMetrics p(parallel_registry);
  EXPECT_EQ(p.rounds_total.value(), s.rounds_total.value());
  EXPECT_EQ(p.node_updates_total.value(), s.node_updates_total.value());
  EXPECT_EQ(p.trials_started_total.value(), 12u);
  EXPECT_EQ(p.trials_finished_total.value(), 12u);
  EXPECT_EQ(p.trial_rounds.count(), 12u);
  EXPECT_EQ(p.trial_rounds.sum(), s.trial_rounds.sum());
}

}  // namespace
}  // namespace plurality::obs
