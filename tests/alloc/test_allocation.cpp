// Zero-allocation contract for the stepping hot path.
//
// Replaces global operator new/delete with counting wrappers (which is why
// this suite is its own binary — the hook is binary-global) and asserts
// that once workspaces are warm, neither the count-based stepper (sparse
// and dense kernels alike) nor the graph engine's step touches the heap.
// This is the property that keeps stepping hardware-bound instead of
// allocator-bound at paper scale.
//
// The counter only sees C++ new/delete. That is the right scope: the
// library's own buffers all go through std::vector, while OpenMP runtime
// internals (raw malloc) are outside the contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/backend.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/observer.hpp"
#include "core/runner.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/step_batched.hpp"
#include "obs/metrics_observer.hpp"
#include "rng/philox.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace plurality {
namespace {

/// Allocations performed by `fn` (relaxed counter; the measured sections
/// are single-threaded apart from OpenMP-internal malloc, which the C++
/// hook does not see).
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, CountBasedStatelessSteps) {
  ThreeMajority dyn;
  Configuration c({40000, 30000, 20000, 10000});
  rng::Xoshiro256pp gen(1);
  StepWorkspace ws;
  step_count_based(dyn, c, gen, ws);  // warm-up: sizes the workspace
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 200; ++r) step_count_based(dyn, c, gen, ws);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, CountBasedSparseStatefulSteps) {
  UndecidedState dyn;
  std::vector<count_t> counts(300, 0);
  counts[0] = 50000;
  counts[150] = 30000;
  counts[299] = 20000;
  Configuration c = UndecidedState::extend_with_undecided(Configuration(std::move(counts)));
  rng::Xoshiro256pp gen(2);
  StepWorkspace ws;
  step_count_based(dyn, c, gen, ws);
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 200; ++r) step_count_based(dyn, c, gen, ws);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, CountBasedDenseStatefulSteps) {
  // MedianOwnTwo has no sparse law, so this exercises the dense per-class
  // kernel through the same zero-allocation contract.
  MedianOwnTwo dyn;
  Configuration c({4000, 3000, 2000, 1000});
  rng::Xoshiro256pp gen(3);
  StepWorkspace ws;
  step_count_based(dyn, c, gen, ws);
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 200; ++r) step_count_based(dyn, c, gen, ws);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, GraphCliqueSteps) {
  UndecidedState dyn;
  graph::GraphSimulation sim(
      dyn, graph::Topology::complete(10000),
      UndecidedState::extend_with_undecided(Configuration({6000, 3000, 1000})), 4,
      /*shuffle_layout=*/false);
  sim.step();  // warm-up
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 50; ++r) sim.step();
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, WorkspaceWarmsOnceAcrossConfigurations) {
  // Growing k re-sizes the workspace once; staying at or below the
  // high-water mark never allocates again.
  ThreeMajority dyn;
  StepWorkspace ws;
  Configuration big({1000, 900, 800, 700, 600, 500});
  Configuration small({5000, 4000});
  rng::Xoshiro256pp gen(5);
  step_count_based(dyn, big, gen, ws);
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 50; ++r) {
      step_count_based(dyn, big, gen, ws);
      step_count_based(dyn, small, gen, ws);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, GraphEngineStepsOnSparseTopology) {
  // The CSR graph engine: once the workspace has seen (n, k), a warm round
  // touches no heap — node double buffer, byte mirror, partial counts, and
  // the published configuration are all preallocated. (The pre-refactor
  // stepper allocated 64 per-chunk vectors plus a Configuration per round;
  // keeping this suite green is what pins the regression away.)
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(6);
  const graph::Topology topo = graph::random_regular(2000, 8, topo_gen);
  const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
  graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 7);
  sim.step();  // warm-up
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 50; ++r) sim.step();
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, GraphEngineStepsOnCliqueAndIrregularTopology) {
  // Clique-via-CSR (implicit complete) and a non-uniform-degree graph (the
  // general CSR kernel) under the same contract; undecided-state exercises
  // the auxiliary-state path.
  UndecidedState dyn;
  {
    const graph::AgentGraph clique = graph::AgentGraph::complete(3000);
    graph::GraphSimulation sim(
        dyn, clique,
        UndecidedState::extend_with_undecided(workloads::additive_bias(3000, 4, 700)),
        8);
    sim.step();
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u);
  }
  {
    rng::Xoshiro256pp topo_gen(9);
    const graph::Topology topo = graph::erdos_renyi(2000, 8000, topo_gen,
                                                    /*patch_isolated=*/true);
    const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
    graph::GraphSimulation sim(
        dyn, csr,
        UndecidedState::extend_with_undecided(workloads::additive_bias(2000, 4, 500)),
        10);
    sim.step();
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u);
  }
}

TEST(ZeroAllocation, GraphWorkspaceWarmsOnceAcrossTrials) {
  // The run_graph_trials reuse pattern: one workspace, many trials (fresh
  // load_nodes each), zero allocations once warm at the high-water (n, k).
  ThreeMajority dyn;
  const graph::AgentGraph graph_ = graph::AgentGraph::from_topology(graph::torus(40, 50));
  const Configuration start = workloads::additive_bias(2000, 3, 400);
  const rng::StreamFactory streams(11);
  graph::GraphStepWorkspace ws;
  ws.prepare(start.n(), start.k());
  graph::load_nodes(start, true, streams, ws);
  Configuration config = start;
  graph::step_graph(dyn, graph_, config, streams, 0, ws);  // warm-up
  const std::uint64_t allocs = allocations_during([&] {
    for (int trial = 0; trial < 5; ++trial) {
      Configuration c = start;  // reuses capacity? no — counted, see below
      graph::load_nodes(start, true, streams, ws);
      for (round_t r = 0; r < 20; ++r) graph::step_graph(dyn, graph_, c, streams, r, ws);
    }
  });
  // Each trial's start-configuration copy allocates its count vector; the
  // 100 warm rounds themselves must not.
  EXPECT_LE(allocs, 5u);
}

TEST(ZeroAllocation, CountBasedPhiloxSteps) {
  // The counter-based generator behind the batched count mode: the word
  // buffer is a fixed in-object array, so Philox-driven stepping is as
  // allocation-free as the xoshiro path.
  UndecidedState dyn;
  Configuration c = UndecidedState::extend_with_undecided(
      Configuration({40000, 30000, 20000, 10000}));
  rng::PhiloxStream gen(11);
  StepWorkspace ws;
  step_count_based(dyn, c, gen, ws);  // warm-up
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 200; ++r) step_count_based(dyn, c, gen, ws);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, GraphBatchedModeSteps) {
  // EngineMode::Batched: tile arenas live on the stack (bounded by
  // kBatchedWordBudget) and Philox is stateless, so warm batched rounds are
  // zero-allocation on both the fused SIMD path and the forced-scalar tile
  // pipeline.
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(12);
  const graph::Topology topo = graph::random_regular(2000, 8, topo_gen);
  const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
  for (const bool simd : {true, false}) {
    graph::set_batched_simd_enabled(simd);
    graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 13,
                               /*shuffle_layout=*/true, graph::EngineMode::Batched);
    sim.step();  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u) << (simd ? "simd" : "scalar");
  }
  graph::set_batched_simd_enabled(true);
}

TEST(ZeroAllocation, GraphBatchedIrregularAndHPlurality) {
  // The general-CSR scalar pipeline and the widest word layout (h-plurality
  // at h=8: nine planes per node) under the same contract.
  HPlurality dyn(8);
  rng::Xoshiro256pp topo_gen(14);
  const graph::Topology topo = graph::erdos_renyi(1500, 6000, topo_gen,
                                                  /*patch_isolated=*/true);
  const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
  graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(1500, 3, 400), 15,
                             /*shuffle_layout=*/true, graph::EngineMode::Batched);
  sim.step();
  const std::uint64_t allocs = allocations_during([&] {
    for (int r = 0; r < 30; ++r) sim.step();
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, ObservedCountRounds) {
  // The observer pipeline's contract: probing a materialized round (all
  // four probes — plurality fraction, support, monochromatic distance,
  // time-to-m — plus a trajectory append) touches no heap. Every buffer is
  // preallocated at ProbeObserver construction.
  ThreeMajority dyn;
  Configuration c({40000, 30000, 20000, 10000});
  rng::Xoshiro256pp gen(21);
  StepWorkspace ws;
  plurality::ProbeOptions po;
  po.trials = 1;
  po.trajectory_capacity = 512;
  po.track_m_plurality = true;
  po.m_plurality = 100;
  ProbeObserver probe(po);
  probe.begin_trial(0, c, 4);
  step_count_based(dyn, c, gen, ws);  // warm-up
  probe.observe_round(0, 1, c, 4);
  const std::uint64_t allocs = allocations_during([&] {
    for (round_t r = 2; r < 202; ++r) {
      step_count_based(dyn, c, gen, ws);
      probe.observe_round(0, r, c, 4);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, ObservedGraphRounds) {
  // Same contract on the graph stepper: an observed warm round allocates
  // exactly as much as an unobserved one — nothing.
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(22);
  const graph::Topology topo = graph::random_regular(2000, 8, topo_gen);
  const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
  graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 23);
  plurality::ProbeOptions po;
  po.trials = 1;
  po.trajectory_capacity = 256;
  po.track_m_plurality = true;
  po.m_plurality = 50;
  ProbeObserver probe(po);
  probe.begin_trial(0, sim.configuration(), 3);
  sim.step();  // warm-up
  probe.observe_round(0, 1, sim.configuration(), 3);
  const std::uint64_t allocs = allocations_during([&] {
    for (round_t r = 2; r < 52; ++r) {
      sim.step();
      probe.observe_round(0, r, sim.configuration(), 3);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocation, MetricsObservedCountRounds) {
  // Telemetry under the same contract: a warm observed round with a
  // MetricsObserver stacked on the ProbeObserver touches no heap — every
  // registry handle is resolved at construction, and per-round updates are
  // single relaxed atomics in preallocated shards.
  ThreeMajority dyn;
  Configuration c({40000, 30000, 20000, 10000});
  rng::Xoshiro256pp gen(31);
  StepWorkspace ws;
  plurality::ProbeOptions po;
  po.trials = 1;
  po.trajectory_capacity = 512;
  po.track_m_plurality = true;
  po.m_plurality = 100;
  ProbeObserver probe(po);
  obs::MetricsRegistry registry;
  obs::MetricsObserver observer(registry, &probe);
  observer.begin_trial(0, c, 4);
  step_count_based(dyn, c, gen, ws);  // warm-up
  observer.observe_round(0, 1, c, 4);
  const std::uint64_t allocs = allocations_during([&] {
    for (round_t r = 2; r < 202; ++r) {
      step_count_based(dyn, c, gen, ws);
      observer.observe_round(0, r, c, 4);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(registry.counter("engine_rounds_total").value(), 201u);
}

TEST(ZeroAllocation, MetricsObservedGraphRounds) {
  // Same contract on the graph stepper with metrics enabled.
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(32);
  const graph::Topology topo = graph::random_regular(2000, 8, topo_gen);
  const graph::AgentGraph csr = graph::AgentGraph::from_topology(topo);
  graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 33);
  plurality::ProbeOptions po;
  po.trials = 1;
  po.trajectory_capacity = 256;
  po.track_m_plurality = true;
  po.m_plurality = 50;
  ProbeObserver probe(po);
  obs::MetricsRegistry registry;
  obs::MetricsObserver observer(registry, &probe);
  observer.begin_trial(0, sim.configuration(), 3);
  sim.step();  // warm-up
  observer.observe_round(0, 1, sim.configuration(), 3);
  const std::uint64_t allocs = allocations_during([&] {
    for (round_t r = 2; r < 52; ++r) {
      sim.step();
      observer.observe_round(0, r, sim.configuration(), 3);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(registry.counter("engine_node_updates_total").value(), 51u * 2000u);
}

TEST(SanityCheck, CounterSeesVectorAllocations) {
  // Guards the hook itself: if the counter went dead, the suite above
  // would pass vacuously.
  const std::uint64_t allocs = allocations_during([] {
    std::vector<int> v(1024, 1);
    ASSERT_EQ(v[0], 1);
  });
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace plurality
