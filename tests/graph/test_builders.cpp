#include "graph/builders.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph_test_utils.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

TEST(Builders, CycleIsTwoRegularAndConnected) {
  const AgentGraph t = cycle(10);
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.min_degree(), 2u);
  EXPECT_EQ(t.max_degree(), 2u);
  EXPECT_TRUE(connected(t));
}

TEST(Builders, CycleNeighborsAreAdjacent) {
  const AgentGraph t = cycle(5);
  const auto n0 = t.neighbors_of(0);
  const std::set<count_t> neighbors(n0.begin(), n0.end());
  EXPECT_EQ(neighbors, (std::set<count_t>{1, 4}));
}

TEST(Builders, CycleTooSmallThrows) {
  EXPECT_THROW(cycle(2), CheckError);
}

TEST(Builders, TorusIsFourRegularAndConnected) {
  const AgentGraph t = torus(4, 5);
  EXPECT_EQ(t.num_nodes(), 20u);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_TRUE(connected(t));
}

TEST(Builders, TorusNeighborsWrapAround) {
  const AgentGraph t = torus(3, 3);
  const auto n0 = t.neighbors_of(0);  // node (0,0)
  const std::set<count_t> neighbors(n0.begin(), n0.end());
  // Right (0,1)=1, left (0,2)=2, down (1,0)=3, up (2,0)=6.
  EXPECT_EQ(neighbors, (std::set<count_t>{1, 2, 3, 6}));
}

TEST(Builders, RandomRegularHasExactDegrees) {
  rng::Xoshiro256pp gen(1);
  const AgentGraph t = random_regular(200, 6, gen);
  EXPECT_EQ(t.num_nodes(), 200u);
  EXPECT_EQ(t.min_degree(), 6u);
  EXPECT_EQ(t.max_degree(), 6u);
}

TEST(Builders, RandomRegularIsSimple) {
  rng::Xoshiro256pp gen(2);
  const AgentGraph t = random_regular(100, 4, gen);
  for (count_t v = 0; v < 100; ++v) {
    const auto neigh = t.neighbors_of(v);
    std::set<count_t> unique(neigh.begin(), neigh.end());
    EXPECT_EQ(unique.size(), neigh.size()) << "parallel edge at " << v;
    EXPECT_EQ(unique.count(v), 0u) << "self loop at " << v;
  }
}

TEST(Builders, RandomRegularTypicallyConnected) {
  // Random d-regular graphs with d >= 3 are connected w.h.p.
  rng::Xoshiro256pp gen(3);
  const AgentGraph t = random_regular(300, 4, gen);
  EXPECT_TRUE(connected(t));
}

TEST(Builders, RandomRegularOddProductThrows) {
  rng::Xoshiro256pp gen(4);
  EXPECT_THROW(random_regular(5, 3, gen), CheckError);
  EXPECT_THROW(random_regular(10, 10, gen), CheckError);  // d >= n
}

TEST(Builders, ErdosRenyiHasRequestedEdges) {
  rng::Xoshiro256pp gen(5);
  const AgentGraph t = erdos_renyi(100, 400, gen);
  EXPECT_EQ(t.num_arcs(), 800u);  // each edge stored in both directions
}

TEST(Builders, ErdosRenyiEdgesAreDistinctAndSimple) {
  rng::Xoshiro256pp gen(6);
  const AgentGraph t = erdos_renyi(50, 200, gen);
  std::set<std::pair<count_t, count_t>> seen;
  for (count_t v = 0; v < 50; ++v) {
    for (count_t u : t.neighbors_of(v)) {
      EXPECT_NE(u, v);
      if (v < u) seen.insert({v, u});
    }
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Builders, ErdosRenyiFullGraph) {
  rng::Xoshiro256pp gen(7);
  const AgentGraph t = erdos_renyi(10, 45, gen);  // complete K10
  EXPECT_EQ(t.min_degree(), 9u);
}

TEST(Builders, ErdosRenyiTooManyEdgesThrows) {
  rng::Xoshiro256pp gen(8);
  EXPECT_THROW(erdos_renyi(10, 46, gen), CheckError);
}

// ---- bitwise pins -----------------------------------------------------------
//
// Same seed, same graph: every downstream golden (engine-vs-reference,
// per-trial round counts) assumes the random builders produce exactly these
// CSR rows from exactly these generator draws. The digest is FNV-1a over
// each row's length and neighbor ids in stored order; the generator's next
// output pins how many draws the build consumed. Any change to the rejection
// rule, the retry budget, the restart loop or row order shows up here.

std::uint64_t csr_digest(const AgentGraph& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (count_t v = 0; v < t.num_nodes(); ++v) {
    const auto row = t.neighbors_of(v);
    mix(row.size());
    for (const std::uint32_t u : row) mix(u);
  }
  return h;
}

struct BuildPin {
  std::uint64_t digest;
  std::uint64_t next_draw;
};

BuildPin pin_regular(count_t n, count_t d, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  const AgentGraph t = random_regular(n, d, gen);
  EXPECT_EQ(t.min_degree(), d);
  EXPECT_EQ(t.max_degree(), d);
  return {csr_digest(t), gen()};
}

BuildPin pin_erdos_renyi(count_t n, std::uint64_t m, bool patch, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  const AgentGraph t = erdos_renyi(n, m, gen, patch);
  return {csr_digest(t), gen()};
}

void expect_pin(const BuildPin& got, std::uint64_t digest, std::uint64_t next_draw) {
  EXPECT_EQ(got.digest, digest);
  EXPECT_EQ(got.next_draw, next_draw);
}

TEST(BuilderPins, RandomRegularSmall) {
  expect_pin(pin_regular(200, 6, 1), 13748470852939771525ULL,
             14454360113001792240ULL);
}

TEST(BuilderPins, RandomRegularSparseLarge) {
  expect_pin(pin_regular(200'000, 8, 11), 15464217405708897285ULL,
             125266480578426139ULL);
}

TEST(BuilderPins, RandomRegularDegree64) {
  expect_pin(pin_regular(20'000, 64, 12), 17752671828118782385ULL,
             4936933361496958742ULL);
}

TEST(BuilderPins, RandomRegularDense) {
  // d = n/2: duplicates are common, so the retry loop does real work.
  expect_pin(pin_regular(2000, 1000, 13), 15701280949156153073ULL,
             3119056742446289853ULL);
}

TEST(BuilderPins, RandomRegularOddDegree) {
  // Odd d at the regular-default scale: n*d is even only because n is.
  expect_pin(pin_regular(200'000, 3, 14), 3702876983031906025ULL,
             15851325062790656691ULL);
}

TEST(BuilderPins, RandomRegularRestartsWhenStuck) {
  // Seed 19 gets stuck four times at (8, 3) before a simple graph
  // completes, so this pins the restart loop's draws too.
  expect_pin(pin_regular(8, 3, 19), 12106529815894976613ULL,
             2609240827125130426ULL);
}

TEST(BuilderPins, ErdosRenyiSparseUnpatched) {
  expect_pin(pin_erdos_renyi(1000, 800, false, 21), 16711976356592918847ULL,
             14342774654463400218ULL);
}

TEST(BuilderPins, ErdosRenyiSparsePatched) {
  // Mean degree 1.6 leaves ~20% of nodes isolated before patching.
  expect_pin(pin_erdos_renyi(1000, 800, true, 21), 8526111054676717237ULL,
             725338173113091051ULL);
}

TEST(BuilderPins, ErdosRenyiLarge) {
  expect_pin(pin_erdos_renyi(20'000, 100'000, true, 22), 8238471515287592346ULL,
             8944420565364156854ULL);
}

TEST(BuilderPins, ErdosRenyiDefaultScale) {
  // G(n, 4n) at the regular-default node count, as the er/gnm specs build it.
  expect_pin(pin_erdos_renyi(200'000, 800'000, true, 23),
             9728093804325540466ULL, 14388295468665542791ULL);
}

TEST(BuilderPins, ErdosRenyiCompleteK10) {
  expect_pin(pin_erdos_renyi(10, 45, false, 7), 8444914313282864324ULL,
             6603830544828535498ULL);
  expect_pin(pin_erdos_renyi(10, 45, true, 7), 8444914313282864324ULL,
             6603830544828535498ULL);
}

}  // namespace
}  // namespace plurality::graph
