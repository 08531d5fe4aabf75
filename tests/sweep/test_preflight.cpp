// Preflight memory estimates (sweep/preflight.hpp).
//
// The load-bearing regression: estimate_cell_memory_bytes once computed
// clique edge counts as (n*(n-1))/2 in plain u64, which WRAPS for
// n >~ 6.07e9 — a cell that cannot possibly fit sailed through the budget
// check and OOM-killed the sweep. All estimate arithmetic now saturates;
// these tests pin the wrap case, the implicit-cell state-array model
// (gossip at n = 1e9 must fit a laptop budget, not be billed a clique
// arena), and the coarse ordering the orchestrator relies on.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/spec.hpp"
#include "sweep/preflight.hpp"

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
  // Forced-arena estimates at absurd n must clamp, not wrap. (The spec
  // would fail validation — preflight estimates are deliberately usable
  // on unvalidated specs so refusal messages can name the real number.)
  scenario::ScenarioSpec spec;
  spec.topology = "regular:64";
  spec.topology_backend = "arena";
  spec.n = 1'000'000'000'000'000'000ULL;  // 64 * n wraps u64 without saturation
  EXPECT_GE(estimate_cell_memory_bytes(spec), std::uint64_t{1} << 60);
}

TEST(Preflight, GossipBillionFitsSmallBudget) {
  // The whole point of the implicit path: gossip at n = 1e9, k = 2 is two
  // byte arrays (~2 GB), NOT a clique arena (~4e18 edges). The estimate
  // must admit the cell under a 3 GiB budget.
  const auto spec = spec_of("topology=gossip n=1e9 k=2 engine=batched");
  const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
  EXPECT_LT(estimate, std::uint64_t{3} << 30);
  EXPECT_GT(estimate, std::uint64_t{1} << 30);  // ~2n bytes of state is real
}

TEST(Preflight, ImplicitRingBillionFitsSmallBudget) {
  const auto spec = spec_of("topology=ring n=1e9 k=3");
  EXPECT_LT(estimate_cell_memory_bytes(spec), std::uint64_t{3} << 30);
}

TEST(Preflight, ImplicitIsCheaperThanArenaForSameTopology) {
  // Below the auto threshold ring resolves to arena (CSR billed); forcing
  // implicit must strictly shrink the estimate. Same n, same k.
  const auto arena = spec_of("topology=ring n=1e6 topology_backend=arena");
  const auto implicit = spec_of("topology=ring n=1e6 topology_backend=implicit");
  EXPECT_LT(estimate_cell_memory_bytes(implicit), estimate_cell_memory_bytes(arena));
}

TEST(Preflight, CoarseOrderingAcrossBackends) {
  // count << agent <= graph at the same n: the ranking the serial-phase
  // decision depends on.
  const auto count = spec_of("topology=clique dynamics=3-majority n=1e6 backend=count");
  const auto agent = spec_of("topology=clique dynamics=3-majority n=1e6 backend=agent");
  const auto graph = spec_of("topology=regular:8 n=1e6");
  EXPECT_LT(estimate_cell_memory_bytes(count), std::uint64_t{1} << 22);
  EXPECT_LT(estimate_cell_memory_bytes(count), estimate_cell_memory_bytes(agent));
  EXPECT_LE(estimate_cell_memory_bytes(agent), estimate_cell_memory_bytes(graph));
}

// The arena bill must cover what the random builders really allocate: a
// flat 1.5x of the arena once billed regular:8 at n = 2e5 about 11 MiB
// against ~62 MiB of measured growth, admitting cells that could not fit.
std::uint64_t builder_sum(std::uint64_t n, std::uint64_t edges, std::uint64_t stubs,
                          std::uint64_t table_slots) {
  const std::uint64_t arcs = 2 * edges;
  const std::uint64_t topology_csr = 8 * (n + 1) + 8 * arcs;
  const std::uint64_t arena = 8 * (n + 1) + 4 * arcs;
  return stubs + 8 * table_slots + topology_csr + arena;
}

TEST(Preflight, RegularBillCoversStubsTableCsrAndArena) {
  const auto spec = spec_of("topology=regular:8 n=2e5");
  const std::uint64_t n = 200'000, arcs = 8 * n;
  const std::uint64_t sum = builder_sum(n, arcs / 2, 4 * arcs, std::uint64_t{1} << 21);
  EXPECT_GE(estimate_cell_memory_bytes(spec), sum);
  EXPECT_GE(sum, std::uint64_t{40} << 20);  // ~43 MiB, not the old ~11 MiB
}

TEST(Preflight, GnmBillCoversEdgePairsTableCsrAndArena) {
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
