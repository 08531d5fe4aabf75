// Zero-allocation contract for the stepping hot path.
//
// Replaces global operator new/delete with counting wrappers (which is why
// this suite is its own binary — the hook is binary-global) and asserts
// that once workspaces are warm, neither the count-based stepper (sparse
// and dense kernels alike) nor the graph engine's step touches the heap.
// This is the property that keeps stepping hardware-bound instead of
// allocator-bound at paper scale. The same hook counts requested bytes,
// which pins the sweep preflight's graph-build bill against what the
// random_regular builder really allocates.
//
// The counter only sees C++ new/delete. That is the right scope: the
// library's own buffers all go through std::vector, while OpenMP runtime
// internals (raw malloc) are outside the contract.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/backend.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/observer.hpp"
#include "core/runner.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/step_batched.hpp"
#include "obs/metrics_observer.hpp"
#include "rng/philox.hpp"
#include "scenario/spec.hpp"
#include "sweep/preflight.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_largest{0};  // largest single request since reset
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size > g_largest.load(std::memory_order_relaxed)) {
    g_largest.store(size, std::memory_order_relaxed);
  }
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

struct HeapUse {
  std::uint64_t bytes;    // requested by operator new, frees not subtracted
  std::uint64_t largest;  // largest single request
};

/// Bytes `fn` asks operator new for (same single-threaded scope as
/// allocations_during).
template <typename Fn>
HeapUse heap_use_during(Fn&& fn) {
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
  fn();
  return {g_bytes.load(std::memory_order_relaxed) - before,
          g_largest.load(std::memory_order_relaxed)};
}

/// The scalar paths (nullptr) plus every SIMD kernel table the host runs.
std::vector<const graph::simd::Ops*> simd_choices() {
  std::vector<const graph::simd::Ops*> out{nullptr};
  for (const graph::simd::Ops* ops : graph::simd::supported()) out.push_back(ops);
  return out;
}

const char* simd_name(const graph::simd::Ops* ops) {
  return ops != nullptr ? ops->name : "scalar";
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
  // Strict rounds on the strict lane kernels and on the scalar chunk path.
  UndecidedState dyn;
  for (const graph::simd::Ops* ops : simd_choices()) {
    const graph::simd::ScopedSelection select(ops);
    graph::GraphSimulation sim(
        dyn, graph::AgentGraph::complete(10000),
        UndecidedState::extend_with_undecided(Configuration({6000, 3000, 1000})), 4,
        /*shuffle_layout=*/false);
    sim.step();  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u) << simd_name(ops);
  }
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
  // touches no heap — node-state double buffer, partial counts, and
  // the published configuration are all preallocated. (The pre-refactor
  // stepper allocated 64 per-chunk vectors plus a Configuration per round;
  // keeping this suite green is what pins the regression away.)
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(6);
  const graph::AgentGraph csr = graph::random_regular(2000, 8, topo_gen);
  for (const graph::simd::Ops* ops : simd_choices()) {
    const graph::simd::ScopedSelection select(ops);
    graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 7);
    sim.step();  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u) << simd_name(ops);
  }
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
    const graph::AgentGraph csr = graph::erdos_renyi(2000, 8000, topo_gen,
                                                     /*patch_isolated=*/true);
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
  const graph::AgentGraph graph_ = graph::torus(40, 50);
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

TEST(ZeroAllocation, GraphWideStateSteps) {
  // k > 256 keeps the node states as u32 (the byte array only holds
  // k <= 256): warm strict and batched rounds on that path allocate
  // nothing either.
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(16);
  const graph::AgentGraph csr = graph::random_regular(3000, 8, topo_gen);
  const Configuration start = workloads::additive_bias(3000, 300, 300);
  for (const graph::EngineMode mode :
       {graph::EngineMode::Strict, graph::EngineMode::Batched}) {
    graph::GraphSimulation sim(dyn, csr, start, 17, /*shuffle_layout=*/true, mode);
    sim.step();  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 30; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u) << (mode == graph::EngineMode::Batched ? "batched" : "strict");
  }
}

TEST(ZeroAllocation, GraphAdversaryRounds) {
  // run_graph_trials' round with an adversary wired in: step, then
  // corrupt_nodes recolors victims in the node states at either width
  // (bytes at k = 3, u32 at k = 300). Its scratch lives in the workspace,
  // so warm rounds allocate nothing.
  ThreeMajority dyn;
  const BoostRunnerUp adversary(20);
  rng::Xoshiro256pp topo_gen(18);
  const graph::AgentGraph csr = graph::random_regular(3000, 8, topo_gen);
  for (const state_t k : {state_t{3}, state_t{300}}) {
    const Configuration start = workloads::additive_bias(3000, k, 300);
    const rng::StreamFactory streams(19);
    rng::Xoshiro256pp gen(20);
    graph::GraphStepWorkspace ws;
    graph::load_nodes(start, true, streams, ws);
    Configuration config = start;
    const auto round = [&](round_t r) {
      graph::step_graph(dyn, csr, config, streams, r - 1, ws);
      graph::corrupt_nodes(adversary, config, k, r, gen, ws);
    };
    round(1);  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (round_t r = 2; r <= 30; ++r) round(r);
    });
    EXPECT_EQ(allocs, 0u) << "k=" << k;
  }
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
  const graph::AgentGraph csr = graph::random_regular(2000, 8, topo_gen);
  for (const graph::simd::Ops* ops : simd_choices()) {
    const graph::simd::ScopedSelection select(ops);
    graph::GraphSimulation sim(dyn, csr, workloads::additive_bias(2000, 3, 500), 13,
                               /*shuffle_layout=*/true, graph::EngineMode::Batched);
    sim.step();  // warm-up
    const std::uint64_t allocs = allocations_during([&] {
      for (int r = 0; r < 50; ++r) sim.step();
    });
    EXPECT_EQ(allocs, 0u) << simd_name(ops);
  }
}

TEST(ZeroAllocation, GraphBatchedIrregularAndHPlurality) {
  // The general-CSR scalar pipeline and the widest word layout (h-plurality
  // at h=8: nine planes per node) under the same contract.
  HPlurality dyn(8);
  rng::Xoshiro256pp topo_gen(14);
  const graph::AgentGraph csr = graph::erdos_renyi(1500, 6000, topo_gen,
                                                   /*patch_isolated=*/true);
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
  const graph::AgentGraph csr = graph::random_regular(2000, 8, topo_gen);
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
  const graph::AgentGraph csr = graph::random_regular(2000, 8, topo_gen);
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

TEST(BuildMemory, RandomRegularStaysWithinPreflightBill) {
  // The sweep preflight admits a cell only if its bill fits the budget, so
  // the bill must cover every byte the builder asks for. Up to
  // kRowScanMaxDegree the duplicate check scans arena rows, so no request
  // is as large as the edge-key table (8 bytes per slot, bit_ceil(n*d)
  // slots) above the bound; at d = 128 that table is back.
  for (const auto [n, d] : {std::pair<count_t, count_t>{200'000, 8}, {10'000, 128}}) {
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
        "topology=regular:" + std::to_string(d) + " n=" + std::to_string(n) + " trials=1");
    rng::Xoshiro256pp gen(24);
    const HeapUse use = heap_use_during([&] { (void)graph::random_regular(n, d, gen); });
    const std::uint64_t table = 8 * std::bit_ceil(n * d);
    EXPECT_LE(use.bytes, sweep::estimate_cell_memory_bytes(spec)) << "d=" << d;
    if (d <= graph::kRowScanMaxDegree) {
      EXPECT_LT(use.largest, table) << "d=" << d;
    } else {
      EXPECT_GE(use.largest, table) << "d=" << d;
    }
  }
}

TEST(SanityCheck, CounterSeesVectorAllocations) {
  // Guards the hook itself: if the counter went dead, the suite above
  // would pass vacuously.
  const std::uint64_t allocs = allocations_during([] {
    std::vector<int> v(1024, 1);
    ASSERT_EQ(v[0], 1);
  });
  EXPECT_GT(allocs, 0u);
  const HeapUse use = heap_use_during([] {
    std::vector<int> v(1024, 1);
    ASSERT_EQ(v[0], 1);
  });
  EXPECT_EQ(use.largest, 1024 * sizeof(int));
  EXPECT_GE(use.bytes, use.largest);
}

}  // namespace
}  // namespace plurality
