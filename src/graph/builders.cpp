#include "graph/builders.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

namespace {

/// Set of undirected edge keys (min * n + max) for the random builders'
/// duplicate check: one flat open-addressing table with linear probing,
/// sized once to a power of two of at least `min_slots`. A simple edge's
/// key is never 0 (max >= 1), so 0 marks an empty slot. Callers size it to
/// twice the edge count, keeping the load at or below 1/2.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::uint64_t min_slots)
      : slots_(std::bit_ceil(std::max<std::uint64_t>(min_slots, 2)), 0),
        shift_(64 - std::countr_zero(slots_.size())),
        mask_(slots_.size() - 1) {}

  /// Adds `key`; false if it was already present.
  bool insert(std::uint64_t key) {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread the
    // arithmetic-progression keys of one endpoint across the table.
    std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = key;
    return true;
  }

  void clear() { std::fill(slots_.begin(), slots_.end(), 0); }

 private:
  std::vector<std::uint64_t> slots_;
  int shift_;
  std::size_t mask_;
};

}  // namespace

Topology cycle(count_t n) {
  PLURALITY_REQUIRE(n >= 3, "cycle: need n >= 3");
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(n);
  for (count_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Topology::from_edges(n, edges);
}

Topology torus(count_t rows, count_t cols) {
  PLURALITY_REQUIRE(rows >= 3 && cols >= 3, "torus: need rows, cols >= 3");
  const count_t n = rows * cols;
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(2 * n);
  auto id = [cols](count_t r, count_t c) { return r * cols + c; };
  for (count_t r = 0; r < rows; ++r) {
    for (count_t c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Topology::from_edges(n, edges);
}

Topology circulant_lattice(count_t n, count_t d) {
  PLURALITY_REQUIRE(d >= 2 && d % 2 == 0,
                    "circulant_lattice: degree must be even and >= 2, got " << d);
  PLURALITY_REQUIRE(n >= d + 2,
                    "circulant_lattice: degree " << d << " needs n >= " << d + 2
                                                 << ", got " << n);
  // Edge emission order (j outer, v inner) is the implicit-topology
  // contract: ImplicitTopology::neighbor reproduces the resulting CSR row
  // order arithmetically, so do not reorder these loops.
  const count_t half = d / 2;
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(static_cast<std::size_t>(n) * half);
  for (count_t j = 1; j <= half; ++j) {
    for (count_t v = 0; v < n; ++v) {
      const count_t u = v + j >= n ? v + j - n : v + j;
      edges.emplace_back(v, u);
    }
  }
  return Topology::from_edges(n, edges);
}

Topology random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen) {
  PLURALITY_REQUIRE(n >= 2 && d >= 1, "random_regular: need n >= 2, d >= 1");
  PLURALITY_REQUIRE((n * d) % 2 == 0, "random_regular: n*d must be even");
  PLURALITY_REQUIRE(d < n, "random_regular: d must be below n");
  PLURALITY_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                    "random_regular: node ids must fit 32 bits, as the arena's "
                    "do (n=" << n << ")");

  // Steger–Wormald incremental pairing: repeatedly match two random free
  // stubs, rejecting matches that would create a self-loop or a parallel
  // edge. For d = o(sqrt n) the process gets stuck only with small
  // probability, in which case we restart from scratch.
  //
  // Each accepted edge goes straight into its final CSR slots (row u at
  // u*d + fill[u], in acceptance order) — the same rows from_edges would
  // pack from the accepted edge list, without holding that list.
  const std::uint64_t arcs = n * d;
  std::vector<std::uint32_t> stubs(arcs);
  std::vector<std::uint32_t> fill(n);
  std::vector<count_t> adjacency(arcs);
  EdgeKeySet seen(arcs);
  for (int attempt = 0; attempt < 256; ++attempt) {
    for (count_t v = 0; v < n; ++v) {
      std::fill_n(stubs.begin() + v * d, d, static_cast<std::uint32_t>(v));
    }
    std::fill(fill.begin(), fill.end(), 0);
    if (attempt > 0) seen.clear();
    std::size_t free_stubs = stubs.size();
    bool stuck = false;
    while (free_stubs > 0) {
      bool matched = false;
      for (int tries = 0; tries < 200; ++tries) {
        const std::size_t i = rng::uniform_below(gen, free_stubs);
        std::size_t j = rng::uniform_below(gen, free_stubs - 1);
        if (j >= i) ++j;
        const count_t u = stubs[i], v = stubs[j];
        if (u == v) continue;
        if (!seen.insert(std::min(u, v) * n + std::max(u, v))) continue;
        adjacency[u * d + fill[u]++] = v;
        adjacency[v * d + fill[v]++] = u;
        // Swap-pop both stubs (larger index first keeps i/j valid).
        const std::size_t hi = std::max(i, j), lo = std::min(i, j);
        stubs[hi] = stubs[--free_stubs];
        stubs[lo] = stubs[--free_stubs];
        matched = true;
        break;
      }
      if (!matched) {
        stuck = true;
        break;
      }
    }
    if (!stuck) {
      std::vector<std::uint64_t> offsets(n + 1);
      for (count_t v = 0; v <= n; ++v) offsets[v] = v * d;
      return Topology::from_csr(n, std::move(offsets), std::move(adjacency));
    }
  }
  PLURALITY_CHECK_MSG(false, "random_regular: failed to build a simple graph "
                             "(n=" << n << ", d=" << d << "); d too close to n?");
  return Topology::complete(n);  // unreachable
}

Topology erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                     bool patch_isolated) {
  PLURALITY_REQUIRE(n >= 2, "erdos_renyi: need n >= 2");
  const std::uint64_t max_edges = n * (n - 1) / 2;
  PLURALITY_REQUIRE(m <= max_edges, "erdos_renyi: m exceeds the edge universe");
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(m);
  {
    EdgeKeySet chosen(2 * m);
    while (edges.size() < m) {
      const count_t u = rng::uniform_below(gen, n);
      const count_t v = rng::uniform_below(gen, n);
      if (u == v) continue;
      if (chosen.insert(std::min(u, v) * n + std::max(u, v))) edges.emplace_back(u, v);
    }
  }
  if (patch_isolated) {
    std::vector<std::uint8_t> has_edge(n, 0);
    for (const auto& [u, v] : edges) {
      has_edge[u] = 1;
      has_edge[v] = 1;
    }
    // One patch edge per isolated node; reserving them avoids a doubling.
    edges.reserve(m + std::count(has_edge.begin(), has_edge.end(), 0));
    for (count_t v = 0; v < n; ++v) {
      if (has_edge[v]) continue;
      count_t u = v;
      while (u == v) u = rng::uniform_below(gen, n);
      edges.emplace_back(v, u);
    }
  }
  return Topology::from_edges(n, edges);
}

}  // namespace plurality::graph
