#include "graph/builders.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "graph/kernels.hpp"
#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

namespace {

/// Set of undirected edge keys (min * n + max) for the duplicate check of
/// erdos_renyi, and of random_regular above kRowScanMaxDegree (up to it,
/// random_regular scans the arena row instead): one flat open-addressing
/// table with linear probing, sized once to a power of two of at least
/// `min_slots`. A simple edge's key is never 0 (max >= 1), so 0 marks an
/// empty slot. Callers size it to twice the edge count, keeping the load at
/// or below 1/2.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::uint64_t min_slots)
      : slots_(std::bit_ceil(std::max<std::uint64_t>(min_slots, 2)), 0),
        shift_(64 - std::countr_zero(slots_.size())),
        mask_(slots_.size() - 1) {}

  /// Adds `key`; false if it was already present.
  bool insert(std::uint64_t key) {
    std::size_t slot = home(key);
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = key;
    return true;
  }

  /// Starts pulling `key`'s home slot into cache for a later insert.
  void prefetch(std::uint64_t key) const { __builtin_prefetch(&slots_[home(key)], 1); }

  void clear() { std::fill(slots_.begin(), slots_.end(), 0); }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi spread the
  // arithmetic-progression keys of one endpoint across the table.
  std::size_t home(std::uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ULL) >> shift_;
  }

  std::vector<std::uint64_t> slots_;
  int shift_;
  std::size_t mask_;
};

// Software pipelining of the random builders. Each accepted edge costs a
// few dependent cache misses (stub reads, a row scan or edge-key probe, row
// and fill writes), and a serial loop keeps only one in flight. A copy of the
// generator runs ahead of the real one and prefetches what later pairings
// will touch. The real generator, its draws and every accept/reject
// decision are untouched, so the graphs and the caller's next draw are
// bitwise those of the plain loop; a wrong guess costs only a wasted
// prefetch. The copy draws through the inline kernels::uniform_below
// (the same algorithm, pinned against rng::uniform_below) to keep its cost
// small. Both distances were picked by timing regular:8 builds at n = 2e5
// and 1e6 (docs/performance.md, "Pipelined draws").
constexpr std::size_t kAheadPairs = 16;  // stub reads issued this far ahead
constexpr std::size_t kNearPairs = 6;    // row, fill (and key) prefetches

/// Whether `v` is among the `len` ids already written to `row`.
bool row_contains(const std::uint32_t* row, std::uint32_t len, std::uint32_t v) {
  return std::find(row, row + len, v) != row + len;
}

}  // namespace

AgentGraph cycle(count_t n) {
  PLURALITY_REQUIRE(n >= 3, "cycle: need n >= 3");
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(n);
  for (count_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return AgentGraph::from_edges(n, edges);
}

AgentGraph torus(count_t rows, count_t cols) {
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
  return AgentGraph::from_edges(n, edges);
}

AgentGraph circulant_lattice(count_t n, count_t d) {
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
  return AgentGraph::from_edges(n, edges);
}

AgentGraph random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen) {
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
  // Each accepted edge goes straight into its final arena slots (row u at
  // u*d + fill[u], in acceptance order) — the same rows from_edges would
  // pack from the accepted edge list, without holding that list.
  //
  // {u, v} is a parallel edge exactly when v is already in u's row of this
  // attempt, so up to kRowScanMaxDegree the duplicate check scans that row
  // (the cache line the accepted edge writes next) and no key table is
  // allocated. Above it the O(d) scan costs more than a table probe. Both
  // checks make the same decisions, so the graph and draws do not depend on
  // which one ran.
  const std::uint64_t arcs = n * d;
  std::vector<std::uint32_t> stubs(arcs);
  std::vector<std::uint32_t> fill(n);
  std::optional<EdgeKeySet> seen;
  if (d > kRowScanMaxDegree) seen.emplace(arcs);

  // Look-ahead (see kAheadPairs): `ahead` replays the draws the real loop
  // would make if every pairing were accepted on its first try, and `ring`
  // holds the predicted (i, j) of the next pairings, oldest first. Any
  // rejection or mismatch re-seeds `ahead` from `gen`. Once more than one
  // pairing in 16 has missed (past a slack of 16), as in dense graphs where
  // the ring rarely survives to prefetch distance, the attempt finishes
  // without look-ahead: the wasted draws would cost more than they save.
  rng::Xoshiro256pp ahead = gen;
  std::size_t ahead_free = 0;
  std::array<std::pair<std::size_t, std::size_t>, kAheadPairs> ring{};
  std::size_t ring_head = 0, ring_size = 0;
  const auto reseed = [&](std::size_t free_stubs) {
    ahead = gen;
    ahead_free = free_stubs;
    ring_size = 0;
  };

  return AgentGraph::fixed_degree(n, d, [&](std::uint32_t* rows) {
    for (int attempt = 0; attempt < 256; ++attempt) {
      for (count_t v = 0; v < n; ++v) {
        std::fill_n(stubs.begin() + v * d, d, static_cast<std::uint32_t>(v));
      }
      std::fill(fill.begin(), fill.end(), 0);
      if (attempt > 0 && seen) seen->clear();
      std::size_t free_stubs = stubs.size();
      reseed(free_stubs);
      std::size_t misses = 0;
      bool looking_ahead = true;
      bool stuck = false;
      while (free_stubs > 0) {
        if (looking_ahead) {
          // Top up by up to two predictions, so a re-seeded ring regrows.
          for (int k = 0; k < 2 && ring_size < kAheadPairs && ahead_free >= 2; ++k) {
            const std::size_t i = kernels::uniform_below(ahead, ahead_free);
            std::size_t j = kernels::uniform_below(ahead, ahead_free - 1);
            if (j >= i) ++j;
            ahead_free -= 2;
            __builtin_prefetch(&stubs[i]);
            __builtin_prefetch(&stubs[j]);
            ring[(ring_head + ring_size++) % kAheadPairs] = {i, j};
          }
          // kNearPairs out, the stubs are cached: read the predicted endpoints
          // (possibly stale after swap-pops; only a prefetch depends on them).
          if (ring_size > kNearPairs) {
            const auto [i, j] = ring[(ring_head + kNearPairs) % kAheadPairs];
            const count_t u = stubs[i], v = stubs[j];
            if (seen) seen->prefetch(std::min(u, v) * n + std::max(u, v));
            __builtin_prefetch(&rows[u * d], 1);
            __builtin_prefetch(&rows[v * d], 1);
            __builtin_prefetch(&fill[u], 1);
            __builtin_prefetch(&fill[v], 1);
          }
        }
        bool matched = false;
        for (int tries = 0; tries < 200; ++tries) {
          const std::size_t i = rng::uniform_below(gen, free_stubs);
          std::size_t j = rng::uniform_below(gen, free_stubs - 1);
          if (j >= i) ++j;
          const count_t u = stubs[i], v = stubs[j];
          if (u == v) continue;
          if (seen ? !seen->insert(std::min(u, v) * n + std::max(u, v))
                   : row_contains(&rows[u * d], fill[u], static_cast<std::uint32_t>(v))) {
            continue;
          }
          rows[u * d + fill[u]++] = static_cast<std::uint32_t>(v);
          rows[v * d + fill[v]++] = static_cast<std::uint32_t>(u);
          // Swap-pop both stubs (larger index first keeps i/j valid).
          const std::size_t hi = std::max(i, j), lo = std::min(i, j);
          stubs[hi] = stubs[--free_stubs];
          stubs[lo] = stubs[--free_stubs];
          if (looking_ahead) {
            if (tries == 0 && ring_size > 0 && ring[ring_head] == std::pair{i, j}) {
              ring_head = (ring_head + 1) % kAheadPairs;
              --ring_size;
            } else if (++misses * 32 <= stubs.size() - free_stubs + 512) {
              reseed(free_stubs);
            } else {
              looking_ahead = false;
            }
          }
          matched = true;
          break;
        }
        if (!matched) {
          stuck = true;
          break;
        }
      }
      if (!stuck) return;
    }
    PLURALITY_CHECK_MSG(false, "random_regular: failed to build a simple graph "
                               "(n=" << n << ", d=" << d << "); d too close to n?");
  });
}

AgentGraph erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                       bool patch_isolated) {
  PLURALITY_REQUIRE(n >= 2, "erdos_renyi: need n >= 2");
  const std::uint64_t max_edges = n * (n - 1) / 2;
  PLURALITY_REQUIRE(m <= max_edges, "erdos_renyi: m exceeds the edge universe");
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(m);
  {
    EdgeKeySet chosen(2 * m);
    // Every pair is drawn with bound n whatever the previous ones did, so
    // a copy of the generator kAheadPairs pairs ahead stays in step for
    // good and can prefetch each pair's key slot before it is probed.
    rng::Xoshiro256pp ahead = gen;
    const auto prefetch_next = [&] {
      const count_t u = kernels::uniform_below(ahead, n);
      const count_t v = kernels::uniform_below(ahead, n);
      chosen.prefetch(std::min(u, v) * n + std::max(u, v));
    };
    for (std::size_t k = 0; k < kAheadPairs; ++k) prefetch_next();
    while (edges.size() < m) {
      prefetch_next();
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
  return AgentGraph::from_edges(n, edges);
}

}  // namespace plurality::graph
