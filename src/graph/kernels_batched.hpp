// Stage-split batched stepping kernels for the CSR graph engine
// (EngineMode::Batched).
//
// The strict kernels (kernels.hpp) interleave, per sample, one scalar
// xoshiro draw with a dependent neighbor gather — the hot loop is
// serialized on the generator's state chain. The batched pipeline removes
// that serialization by making randomness COUNTER-BASED and processing a
// tile of nodes in flat passes over workspace arenas:
//
//   pass 1 (generate): block-fill the tile's Philox words — every word is
//     an independent function of (key, round, word index), so the loop has
//     no loop-carried dependency and vectorizes;
//   pass 2 (index): convert words to neighbor indices with the branch-free
//     bounded-bias Lemire high-multiply (no rejection loop — see
//     scale_word below for the documented bias bound);
//   pass 3 (gather): pull the sampled states out of the node array
//     (one byte per node when k <= 256), with software prefetch ahead of the
//     random loads;
//   pass 4 (apply): the same arithmetic mask-select rules as the strict
//     kernels, now reading pre-gathered samples — a flat loop with no
//     RNG calls at all.
//
// step_batched.cpp drives these passes (and supplies fused SIMD variants
// of passes 1–3 for the hottest rule/topology combinations — bitwise
// identical to the scalar passes here, pinned by test).
//
// RANDOMNESS ADDRESSING (the batched-mode contract, pinned by the
// batch-size/thread-count invariance tests):
//
//   With n_pad = n rounded up to a multiple of 64, sample s of node i in
//   round r reads u64 word  w(s, i) = s * n_pad + i  of the Philox stream
//   (rng/philox.hpp word indexing) keyed by the trial seed with the round
//   number as the counter domain. Tie-break word t of node i reads
//   w(arity + t, i). Every node therefore owns an order-free stream slot —
//   results cannot depend on chunking, tiling, or thread count.
//
// Distribution contract: Batched is equivalent to Strict IN DISTRIBUTION,
// not bitwise (different generator, rejection-free index conversion). The
// chi-square battery (tests/graph/test_graph_kernels.cpp) pins every
// batched kernel to the exact adoption law, and cross-mode consensus-time
// tests (tests/graph/test_graph_batched.cpp) pin the modes against each
// other.
#pragma once

#include <cstdint>

#include "graph/kernels.hpp"
#include "rng/philox.hpp"
#include "support/types.hpp"

namespace plurality::graph::kernels_batched {

/// Philox round count of the batched sampler: the Crush-resistant minimum
/// (7, Salmon et al. 2011 Table 2) rather than the conservative default 10
/// — generation cost sits on the critical path of every node update, and
/// the statistical battery re-checks every kernel's law on top of the
/// BigCrush pedigree. KAT-pinned in tests/rng/test_philox.cpp.
inline constexpr unsigned kSamplerRounds = rng::Philox4x32::kCrushRounds;

/// u64 words a tile may stage in ws.batch_words: bounds arena footprint
/// (64 KiB of words) so tiles stay cache-resident. The tile node count is
/// derived from it: tile_nodes = kBatchedWordBudget / words_per_node,
/// rounded down to a multiple of 64 (SIMD-friendly), floored at 64.
inline constexpr std::size_t kBatchedWordBudget = 8192;

/// Domain-separation tag for the batched engine's Philox key (vs any other
/// consumer of the same master seed).
inline constexpr std::uint64_t kBatchedKeyTag = 0x6261746368ULL;  // "batch"

/// Node-index padding of the word layout: s * pad64(n) + i keeps every
/// sample plane 64-aligned, so one tile's words are SIMD-runnable for all
/// sample indices simultaneously.
constexpr std::uint64_t pad64(std::uint64_t n) { return (n + 63) & ~std::uint64_t{63}; }

constexpr std::size_t tile_nodes_for(unsigned words_per_node) {
  const std::size_t raw = kBatchedWordBudget / (words_per_node == 0 ? 1 : words_per_node);
  const std::size_t aligned = raw & ~std::size_t{63};
  return aligned < 64 ? 64 : aligned;
}

/// Branch-free bounded-bias index conversion — the vector-path variant of
/// Lemire's method: idx = floor(x * bound / 2^64) for a uniform 64-bit x,
/// computed with two 32-bit multiplies so it maps onto SIMD lanes (the
/// `__uint128_t` form does not). Requires bound < 2^32 (node ids are 32-bit
/// by AgentGraph's construction).
///
/// BIAS BOUND: without the rejection loop, value v occurs with probability
/// floor-or-ceil(2^64 / bound) / 2^64, i.e. relative bias at most
/// bound / 2^64 per draw (< 2^-32 for any representable bound, and EXACTLY
/// zero when bound divides 2^64 — every power-of-two degree). At 10^12
/// draws the worst-case aggregate deviation is still orders of magnitude
/// below statistical resolution, which is why the vector path may skip the
/// rejection loop that the strict kernels keep.
inline std::uint32_t scale_word(std::uint64_t x, std::uint64_t bound) {
  const std::uint64_t lo = (x & 0xffffffffULL) * bound;
  const std::uint64_t hi = (x >> 32) * bound;
  return static_cast<std::uint32_t>((hi + (lo >> 32)) >> 32);
}

// --- Batched rules: pass-4 functors over pre-gathered samples. ----------
// apply(own, states, samples, stride, ties): sample s at samples[s*stride],
// tie word t at ties[t*stride]. All rules reuse kernels::select — the same
// arithmetic mask-select lesson as the strict kernels (a branch on sample
// equality mispredicts every other node).

struct BatchedMajority {
  static constexpr unsigned kArity = 3;
  static constexpr unsigned kTieWords = 0;
  template <typename TS>
  state_t apply(state_t, state_t, const TS* s, std::size_t stride,
                const std::uint64_t*) const {
    const state_t a = s[0];
    const state_t b = s[stride];
    const state_t c = s[2 * stride];
    return kernels::select((b == c) & (a != b), b, a);
  }
};

struct BatchedVoter {
  static constexpr unsigned kArity = 1;
  static constexpr unsigned kTieWords = 0;
  template <typename TS>
  state_t apply(state_t, state_t, const TS* s, std::size_t,
                const std::uint64_t*) const {
    return s[0];
  }
};

/// Two-choices tie-break: the strict path draws a double and compares to
/// 0.5; here the coin is the tie word's top bit (same fair Bernoulli, one
/// pre-generated word — consumed whether or not the samples tie, which is
/// what keeps the stream addressing static).
struct BatchedTwoChoices {
  static constexpr unsigned kArity = 2;
  static constexpr unsigned kTieWords = 1;
  template <typename TS>
  state_t apply(state_t, state_t, const TS* s, std::size_t stride,
                const std::uint64_t* ties) const {
    const state_t a = s[0];
    const state_t b = s[stride];
    const bool coin = (ties[0] >> 63) != 0;
    return kernels::select((a == b) | coin, a, b);
  }
};

struct BatchedUndecided {
  static constexpr unsigned kArity = 1;
  static constexpr unsigned kTieWords = 0;
  template <typename TS>
  state_t apply(state_t own, state_t states, const TS* s, std::size_t,
                const std::uint64_t*) const {
    const state_t undecided = states - 1;
    const state_t seen = s[0];
    const state_t colored_next =
        kernels::select((seen == own) | (seen == undecided), own, undecided);
    return kernels::select(own == undecided, seen, colored_next);
  }
};

struct BatchedMedian {
  static constexpr unsigned kArity = 3;
  static constexpr unsigned kTieWords = 0;
  template <typename TS>
  state_t apply(state_t, state_t, const TS* s, std::size_t stride,
                const std::uint64_t*) const {
    return kernels::median_of_three(s[0], s[stride], s[2 * stride]);
  }
};

struct BatchedMedianOwnTwo {
  static constexpr unsigned kArity = 2;
  static constexpr unsigned kTieWords = 0;
  template <typename TS>
  state_t apply(state_t own, state_t, const TS* s, std::size_t stride,
                const std::uint64_t*) const {
    return kernels::median_of_three(own, s[0], s[stride]);
  }
};

/// h-plurality with a pre-generated tie word: the uniform pick over the
/// tied colors is scale_word(tie, ties) — bounded-bias like every other
/// vector-path conversion (bias <= ties / 2^64, ties <= 64).
struct BatchedHPlurality {
  unsigned h;
  static constexpr unsigned kTieWords = 1;
  template <typename TS>
  state_t apply(state_t, state_t, const TS* s, std::size_t stride,
                const std::uint64_t* ties) const {
    state_t distinct[64];
    unsigned counts[64];
    unsigned num_distinct = 0;
    for (unsigned j = 0; j < h; ++j) {
      const state_t v = s[j * stride];
      bool found = false;
      for (unsigned i = 0; i < num_distinct; ++i) {
        if (distinct[i] == v) {
          ++counts[i];
          found = true;
          break;
        }
      }
      if (!found) {
        distinct[num_distinct] = v;
        counts[num_distinct] = 1;
        ++num_distinct;
      }
    }
    unsigned best = 0;
    for (unsigned i = 0; i < num_distinct; ++i) {
      if (counts[i] > best) best = counts[i];
    }
    unsigned num_ties = 0;
    for (unsigned i = 0; i < num_distinct; ++i) num_ties += (counts[i] == best);
    std::uint32_t pick = num_ties == 1 ? 0 : scale_word(ties[0], num_ties);
    for (unsigned i = 0; i < num_distinct; ++i) {
      if (counts[i] == best) {
        if (pick == 0) return distinct[i];
        --pick;
      }
    }
    return distinct[0];  // unreachable: some color attains `best`
  }
};

// --- Samplers: pass 2/3 topology policies. ------------------------------

/// Implicit complete graph: bound n, identity adjacency (self included).
template <typename TS>
struct BatchedCompleteSampler {
  const TS* nodes;
  std::uint64_t n;
  std::uint64_t bound(std::size_t) const { return n; }
  TS state(std::size_t, std::uint32_t idx) const { return nodes[idx]; }
  const TS* prefetch_target(std::size_t, std::uint32_t idx) const { return nodes + idx; }
};

/// Degree-uniform CSR graph: row i starts at i*degree.
template <typename TS>
struct BatchedRegularSampler {
  const TS* nodes;
  const std::uint32_t* neighbors;
  std::uint64_t degree;
  std::uint64_t bound(std::size_t) const { return degree; }
  TS state(std::size_t node, std::uint32_t idx) const {
    return nodes[neighbors[node * degree + idx]];
  }
  const TS* prefetch_target(std::size_t node, std::uint32_t idx) const {
    return nodes + neighbors[node * degree + idx];
  }
};

/// Implicit topology (ring/torus/lattice descriptors): neighbor ids are
/// arithmetic on the node id (implicit_topology.hpp), no arena gather.
/// Same scale_word(x, degree) index draws as the CSR samplers and the
/// descriptor reproduces the arena twin's row order, so batched runs are
/// bitwise-identical to the arena-backed graph.
template <typename TS>
struct BatchedImplicitSampler {
  const TS* nodes;
  ImplicitTopology topo;
  std::uint64_t bound(std::size_t) const { return topo.degree; }
  TS state(std::size_t node, std::uint32_t idx) const {
    return nodes[topo.neighbor(node, idx)];
  }
  const TS* prefetch_target(std::size_t node, std::uint32_t idx) const {
    return nodes + topo.neighbor(node, idx);
  }
};

/// General CSR graph (per-node offsets and degrees).
template <typename TS>
struct BatchedCsrSampler {
  const TS* nodes;
  const std::uint64_t* offsets;
  const std::uint32_t* neighbors;
  std::uint64_t bound(std::size_t node) const { return offsets[node + 1] - offsets[node]; }
  TS state(std::size_t node, std::uint32_t idx) const {
    return nodes[neighbors[offsets[node] + idx]];
  }
  const TS* prefetch_target(std::size_t node, std::uint32_t idx) const {
    return nodes + neighbors[offsets[node] + idx];
  }
};

// --- Pass 4 + counting of the stage-split tile pipeline. ----------------
// Passes 1-3 (fill, convert, gather) are driven by step_batched.cpp's
// batched_chunk — ONE copy, with the fill stage swapped for a SIMD
// implementation when the host has one; only the rule application and the
// class count live here because every rule/topology combination shares
// them verbatim.

/// Pass 4: apply the rule over the tile's gathered planes and publish into
/// the node-state double buffer (at its storage width).
template <class Rule, typename TNode, typename TS>
inline void apply_tile(const Rule& rule, const TNode* nodes, TNode* out, state_t states,
                       std::size_t base, std::size_t nb, const TS* sample_states,
                       std::size_t plane_stride, const std::uint64_t* tie_words) {
  for (std::size_t i = 0; i < nb; ++i) {
    // Planes are node-major per tile: sample s of node i at [s*stride + i].
    out[base + i] = static_cast<TNode>(rule.apply(static_cast<state_t>(nodes[base + i]),
                                                  states, sample_states + i, plane_stride,
                                                  tie_words + i));
  }
}

/// Class-count pass over the published tile (k <= 8 uses a per-class
/// compare sweep the compiler vectorizes; larger k a plain histogram).
template <typename T>
inline void count_tile(const T* out, std::size_t base, std::size_t nb, state_t k,
                       count_t* local) {
  if (k <= 8) {
    for (state_t j = 0; j < k; ++j) {
      count_t c = 0;
      for (std::size_t i = 0; i < nb; ++i) {
        c += (out[base + i] == static_cast<T>(j));
      }
      local[j] += c;
    }
  } else {
    for (std::size_t i = 0; i < nb; ++i) ++local[out[base + i]];
  }
}

}  // namespace plurality::graph::kernels_batched
