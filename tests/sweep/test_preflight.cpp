// Preflight memory estimates (sweep/preflight.hpp).
//
// The load-bearing regression: estimate_cell_memory_bytes once computed
// clique edge counts as (n*(n-1))/2 in plain u64, which WRAPS for
// n >~ 6.07e9 — a cell that cannot possibly fit sailed through the budget
// check and OOM-killed the sweep. All estimate arithmetic now saturates;
// these tests pin the wrap case, the implicit-cell state-array model
// (gossip at n = 1e9 must fit a laptop budget, not be billed a clique
// arena), the per-thread workspace bill of parallel graph trials, and the
// coarse ordering the orchestrator relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/thread_plan.hpp"
#include "graph/builders.hpp"
#include "graph/implicit_topology.hpp"
#include "scenario/spec.hpp"
#include "sweep/preflight.hpp"
#include "thread_count_guard.hpp"

namespace plurality::sweep {
namespace {

scenario::ScenarioSpec spec_of(const std::string& text) {
  return scenario::ScenarioSpec::parse(text);
}

TEST(Preflight, HugeCliqueFallbackSaturatesInsteadOfWrapping) {
  // n = 7e9: (n*(n-1))/2 ≈ 2.45e19 > 2^64 wraps to ~5.8e18... actually
  // the killer case is the WRAPPED value landing small. Pin the estimate
  // to "astronomically large" for a topology that falls back to the
  // clique edge bound: an unreadable edge-list file. (A literal clique
  // now resolves to the implicit backend and is billed state-only, which
  // is the fix's other half — see GossipBillionFitsSmallBudget.)
  scenario::ScenarioSpec spec;
  spec.topology = "edges:/nonexistent/preflight_wrap_regression.txt";
  spec.n = 7'000'000'000ULL;
  spec.k = 2;
  const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
  EXPECT_GE(estimate, std::uint64_t{1} << 60)
      << "a ~2.4e19-edge fallback estimate must not wrap into 'fits'";
}

TEST(Preflight, ArenaEdgeArithmeticSaturates) {
  // Arena estimates at absurd n must clamp, not wrap. (The spec would fail
  // validation — preflight estimates are deliberately usable on
  // unvalidated specs so refusal messages can name the real number.)
  scenario::ScenarioSpec spec;
  spec.topology = "regular:64";
  spec.n = 1'000'000'000'000'000'000ULL;  // 64 * n wraps u64 without saturation
  EXPECT_GE(estimate_cell_memory_bytes(spec), std::uint64_t{1} << 60);
}

TEST(Preflight, GossipBillionFitsSmallBudget) {
  // The whole point of the implicit path: gossip at n = 1e9, k = 2 is two
  // byte arrays (~2 GB) per trial workspace, NOT a clique arena (~4e18
  // edges). One trial's estimate must admit the cell under a 3 GiB budget.
  const auto spec = spec_of("topology=gossip n=1e9 k=2 engine=batched trials=1");
  const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
  EXPECT_LT(estimate, std::uint64_t{3} << 30);
  EXPECT_GT(estimate, std::uint64_t{1} << 30);  // ~2n bytes of state is real
}

TEST(Preflight, ImplicitRingBillionFitsSmallBudget) {
  const auto spec = spec_of("topology=ring n=1e9 k=3 trials=1");
  EXPECT_LT(estimate_cell_memory_bytes(spec), std::uint64_t{3} << 30);
}

TEST(Preflight, ImplicitIsCheaperThanArenaForSameTopology) {
  // One node below the threshold ring builds an arena (CSR billed); at the
  // threshold it is implicit, and the extra node must not outweigh the
  // arena it saves. Same k.
  scenario::ScenarioSpec arena = spec_of("topology=ring");
  arena.n = graph::kImplicitAutoThreshold - 1;
  scenario::ScenarioSpec implicit = spec_of("topology=ring");
  implicit.n = graph::kImplicitAutoThreshold;
  EXPECT_LT(estimate_cell_memory_bytes(implicit), estimate_cell_memory_bytes(arena));
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(Preflight, ParallelGraphTrialsBillOneWorkspacePerThread) {
  // run_graph_trials fills one step workspace per thread of the trial team
  // its thread plan picks, so a parallel gossip cell at n = 1e9 with 8
  // trials on 4 threads holds four ~2 GB byte arrays, not one. With fewer
  // trials than threads the trials run one after another (each round takes
  // the team), and on one thread the cell holds one array too.
  std::uint64_t parallel = 0;
  std::uint64_t two_trials = 0;
  std::uint64_t serial = 0;
  {
    const ThreadCountGuard guard(4);
    parallel = estimate_cell_memory_bytes(spec_of("topology=gossip n=1e9 k=2 trials=8"));
    two_trials = estimate_cell_memory_bytes(spec_of("topology=gossip n=1e9 k=2 trials=2"));
  }
  {
    const ThreadCountGuard guard(1);
    serial = estimate_cell_memory_bytes(spec_of("topology=gossip n=1e9 k=2 trials=8"));
  }
  EXPECT_GE(parallel, std::uint64_t{8'000'000'000});  // 4 x 2n bytes
  EXPECT_GE(two_trials, std::uint64_t{2'000'000'000});
  EXPECT_LT(two_trials, std::uint64_t{3'000'000'000});
  EXPECT_GE(serial, std::uint64_t{2'000'000'000});
  EXPECT_LT(serial, std::uint64_t{3'000'000'000});

  // Below the round-team crossover, rounds never take a team, so two
  // trials keep a trial team of two and bill a second workspace.
  const ThreadCountGuard guard(4);
  const auto bill = [](std::uint64_t n, int trials) {
    return estimate_cell_memory_bytes(spec_of("topology=ring k=2 n=" + std::to_string(n) +
                                              " trials=" + std::to_string(trials)));
  };
  const std::uint64_t small = kRoundTeamMinNodes - 1;
  const std::uint64_t large = kRoundTeamMinNodes;
  const std::uint64_t small_diff = bill(small, 2) - bill(small, 1);
  const std::uint64_t large_diff = bill(large, 2) - bill(large, 1);
  EXPECT_EQ(small_diff, 2 * small + 64 * 2 * 8);  // one byte-state workspace
  EXPECT_EQ(large_diff, 0u);
}
#endif

TEST(Preflight, GraphStateBillIsOneByteArrayPairWheneverKFitsAByte) {
  // A graph trial keeps one node-state array and its double buffer: a byte
  // per node each when k <= 256, whatever n or the adversary, and u32 each
  // beyond.
  const auto bill = [](const std::string& text) {
    return estimate_cell_memory_bytes(spec_of(text));
  };
  const std::string regular = "topology=regular:8 n=1e6 trials=1";
  const std::uint64_t n = 1'000'000;
  const std::uint64_t bytes = bill(regular + " k=4 adversary=boost-runner-up:5");
  EXPECT_EQ(bytes, bill(regular + " k=4"));
  // Same graph build: the difference is the state arrays and the partials.
  EXPECT_EQ(bill(regular + " k=300 adversary=boost-runner-up:5") - bytes,
            (2 * 4 - 2 * 1) * n + 64 * (300 - 4) * 8);
  // An implicit ring bills no build: the fixed 1 MiB plus the state alone.
  const std::uint64_t ring_n = graph::kImplicitAutoThreshold;
  EXPECT_EQ(bill("topology=ring n=" + std::to_string(ring_n) +
                 " k=4 adversary=boost-runner-up:5 trials=1"),
            (std::uint64_t{1} << 20) + 2 * ring_n + 64 * 4 * 8);
}

TEST(Preflight, CoarseOrderingAcrossBackends) {
  // count << graph at the same n, on the clique and on a sparse topology:
  // the ranking the serial-phase decision depends on.
  const auto count = spec_of("topology=clique dynamics=3-majority n=1e6 backend=count");
  const auto clique = spec_of("topology=clique dynamics=3-majority n=1e6 backend=graph");
  const auto sparse = spec_of("topology=regular:8 n=1e6");
  EXPECT_LT(estimate_cell_memory_bytes(count), std::uint64_t{1} << 22);
  EXPECT_LT(estimate_cell_memory_bytes(count), estimate_cell_memory_bytes(clique));
  EXPECT_LE(estimate_cell_memory_bytes(clique), estimate_cell_memory_bytes(sparse));
}

// The arena bill must cover what the random builders really allocate: a
// flat 1.5x of the arena once billed regular:8 at n = 2e5 about 11 MiB
// against ~62 MiB of measured growth, admitting cells that could not fit.
// The builders write their rows straight into the arena, so the scratch
// and the arena are all there is.
std::uint64_t builder_sum(std::uint64_t n, std::uint64_t edges, std::uint64_t stubs,
                          std::uint64_t table_slots) {
  const std::uint64_t arcs = 2 * edges;
  const std::uint64_t arena = 8 * (n + 1) + 4 * arcs;
  return stubs + 8 * table_slots + arena;
}

TEST(Preflight, RegularBillCoversStubsCursorsAndArena) {
  // Up to kRowScanMaxDegree random_regular checks duplicates in the arena
  // row and allocates no edge table: u32 stubs and row cursors, then the
  // arena. One trial keeps the workspace term at one node-state array, far
  // below the 16 MiB table the bill must no longer hold.
  static_assert(8 <= graph::kRowScanMaxDegree);
  const auto spec = spec_of("topology=regular:8 n=2e5 trials=1");
  const std::uint64_t n = 200'000, arcs = 8 * n;
  const std::uint64_t sum = builder_sum(n, arcs / 2, 4 * arcs + 4 * n, 0);
  const std::uint64_t table = 8 * std::bit_ceil(arcs);
  EXPECT_GE(estimate_cell_memory_bytes(spec), sum);
  EXPECT_LT(estimate_cell_memory_bytes(spec), sum + table);
  EXPECT_GE(sum, std::uint64_t{14} << 20);  // ~14.5 MiB, not the old ~11 MiB
}

TEST(Preflight, RegularAboveRowScanBoundBillsEdgeTable) {
  // Above the bound the builder keeps its key table: a power of two of at
  // least n*d u64 slots (2^21 at n = 1e4, d = 128).
  static_assert(128 > graph::kRowScanMaxDegree);
  const auto spec = spec_of("topology=regular:128 n=1e4 trials=1");
  const std::uint64_t n = 10'000, arcs = 128 * n;
  const std::uint64_t sum =
      builder_sum(n, arcs / 2, 4 * arcs + 4 * n, std::uint64_t{1} << 21);
  EXPECT_GE(estimate_cell_memory_bytes(spec), sum);
}

TEST(Preflight, GnmBillCoversEdgePairsTableAndArena) {
  const auto spec = spec_of("topology=gnm:1000000 n=2e5");
  const std::uint64_t n = 200'000, m = 1'000'000;
  // Edge pairs (16 B each) stand where regular's stubs do; the table holds
  // a power of two of at least 2m slots.
  const std::uint64_t sum = builder_sum(n, m, 16 * m, std::uint64_t{1} << 21);
  EXPECT_GE(estimate_cell_memory_bytes(spec), sum);
}

TEST(Preflight, FormatBytesIsHumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(std::uint64_t{3} << 30), "3.0 GiB");
}

}  // namespace
}  // namespace plurality::sweep
