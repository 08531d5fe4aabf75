// E11 — ablation: count-based vs per-node stepping (google-benchmark).
//
// The count-based backend samples the exact one-round transition in Theta(k)
// work (a handful of binomial draws); the per-node sampler (the graph
// engine's implicit clique) pays Theta(n*h). The crossover justifies
// DESIGN.md's choice of count-based as the default and quantifies what the
// exact-law trick buys (10^4-10^6x at large n).
#include <benchmark/benchmark.h>

#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "scenario/scenario.hpp"

namespace plurality {
namespace {

void BM_CountBasedStep(benchmark::State& state) {
  const auto n = static_cast<count_t>(state.range(0));
  const auto k = static_cast<state_t>(state.range(1));
  ThreeMajority dynamics;
  Configuration config = workloads::additive_bias(n, k, n / 10);
  rng::Xoshiro256pp gen(1);
  StepWorkspace ws;
  for (auto _ : state) {
    Configuration c = config;
    step_count_based(dynamics, c, gen, ws);
    benchmark::DoNotOptimize(c.n());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountBasedStep)
    ->ArgsProduct({{1000, 1000000, 1000000000}, {2, 8, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_GraphCliqueStep(benchmark::State& state) {
  const auto n = static_cast<count_t>(state.range(0));
  const auto k = static_cast<state_t>(state.range(1));
  ThreeMajority dynamics;
  graph::GraphSimulation sim(dynamics, graph::Topology::complete(n),
                             workloads::additive_bias(n, k, n / 10), 1,
                             /*shuffle_layout=*/false);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.configuration().n());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphCliqueStep)
    ->ArgsProduct({{1000, 100000, 1000000}, {2, 8, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_CountBasedStepConditional(benchmark::State& state) {
  // Stateful dynamics pay one multinomial per populated own-state class
  // (sparse-law kernel: O(support) per class, not Θ(k)).
  const auto n = static_cast<count_t>(state.range(0));
  const auto k = static_cast<state_t>(state.range(1));
  UndecidedState dynamics;
  Configuration config = UndecidedState::extend_with_undecided(
      workloads::additive_bias(n, k, n / 10));
  rng::Xoshiro256pp gen(1);
  StepWorkspace ws;
  for (auto _ : state) {
    Configuration c = config;
    step_count_based(dynamics, c, gen, ws);
    benchmark::DoNotOptimize(c.n());
  }
}
BENCHMARK(BM_CountBasedStepConditional)
    ->ArgsProduct({{1000000}, {8, 64, 256}})
    ->Unit(benchmark::kMicrosecond);

void BM_CountBasedStepReference(benchmark::State& state) {
  // The frozen dense allocating stepper, for live A/B against the two
  // benchmarks above.
  const auto n = static_cast<count_t>(state.range(0));
  const auto k = static_cast<state_t>(state.range(1));
  UndecidedState dynamics;
  Configuration config = UndecidedState::extend_with_undecided(
      workloads::additive_bias(n, k, n / 10));
  rng::Xoshiro256pp gen(1);
  for (auto _ : state) {
    Configuration c = config;
    step_count_based_reference(dynamics, c, gen);
    benchmark::DoNotOptimize(c.n());
  }
}
BENCHMARK(BM_CountBasedStepReference)
    ->ArgsProduct({{1000000}, {8, 64, 256}})
    ->Unit(benchmark::kMicrosecond);

void BM_FullRunToConsensus(benchmark::State& state) {
  // End-to-end through the scenario API: a complete biased run at the
  // given n (backend=auto resolves to count-based). One-trial scenarios,
  // reseeded per iteration — measures compile + trial cost, i.e. what a
  // --spec invocation actually pays.
  const auto n = static_cast<count_t>(state.range(0));
  scenario::ScenarioSpec spec;
  spec.workload = "bias:" + std::to_string(n / 5);
  spec.n = n;
  spec.k = 8;
  spec.trials = 1;
  spec.parallel = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    spec.seed = seed++;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    benchmark::DoNotOptimize(result.summary.plurality_wins);
  }
}
BENCHMARK(BM_FullRunToConsensus)
    ->Arg(100000)
    ->Arg(10000000)
    ->Arg(1000000000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioCompile(benchmark::State& state) {
  // The declarative layer's overhead in isolation: parse + validate +
  // compile (registry lookups, workload build, option wiring) without
  // running a trial. Clique spec, so no graph packing is included.
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "dynamics=undecided workload=zipf:0.8 n=1000000 k=64 engine=batched");
  for (auto _ : state) {
    const scenario::Scenario compiled = scenario::Scenario::compile(spec);
    benchmark::DoNotOptimize(compiled.start().n());
  }
}
BENCHMARK(BM_ScenarioCompile)->Unit(benchmark::kMicrosecond);

void BM_ParallelTrials(benchmark::State& state) {
  // Trial-level OpenMP parallelism (the experiment harness's axis) through
  // the scenario API. The workload is a near-balanced k = 32 start, whose
  // ~k log n round count makes each trial heavy enough to amortize the
  // fork/join.
  const bool parallel = state.range(0) != 0;
  scenario::ScenarioSpec spec;
  spec.workload = "near-balanced:0.25";
  spec.n = 200000;
  spec.k = 32;
  spec.trials = 16;
  spec.seed = 7;
  spec.parallel = parallel;
  const scenario::Scenario compiled = scenario::Scenario::compile(spec);
  for (auto _ : state) {
    const TrialSummary summary = compiled.run();
    benchmark::DoNotOptimize(summary.plurality_wins);
  }
}
BENCHMARK(BM_ParallelTrials)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace plurality

BENCHMARK_MAIN();
