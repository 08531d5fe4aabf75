// Fused per-dynamics stepping kernels for the CSR graph engine.
//
// The pre-refactor per-node stepper pays, for every node: an out-of-line
// AgentGraph::neighbors_of() call (two checked branches + span construction),
// one out-of-line rng::uniform_below() call per sample, and a virtual
// Dynamics::apply_rule() dispatch. At n = 10^5..10^7 nodes per round those
// call boundaries dominate the actual rule work. The kernels here fuse
// sampling + rule into one inlined loop over raw CSR pointers.
//
// THE CONTRACT IS BITWISE: every kernel must consume the generator exactly
// like the frozen reference path (arity sequential uniform_below draws,
// then any rule-internal draws), and produce the same states. The golden
// trajectory suite (tests/graph/test_graph_determinism.cpp) pins new vs
// reference round by round, and the chi-square battery
// (tests/graph/test_graph_kernels.cpp) pins each kernel's per-node adoption
// frequencies to the exact dynamics law. Any RNG reordering fails loudly.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "core/dynamics.hpp"
#include "graph/implicit_topology.hpp"
#include "rng/xoshiro.hpp"
#include "support/types.hpp"

namespace plurality::graph::kernels {

/// Inline clone of rng::uniform_below — Lemire's multiply-shift with
/// rejection, bit-for-bit the published algorithm (same draws, same
/// outputs; pinned against rng::uniform_below by test). Duplicated here so
/// the per-sample draw inlines into the kernel loop instead of crossing a
/// translation unit per sample; `bound` is a positive node/neighbor count
/// by construction.
inline std::uint64_t uniform_below(rng::Xoshiro256pp& gen, std::uint64_t bound) {
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) [[unlikely]] {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = gen();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

// --- Samplers: where one node's h draws come from. ---------------------

/// Clique (implicit complete graph): uniform over all n nodes, self
/// included — the paper's sampling model. TNode is the storage width of
/// the node-state array: uint8_t when the state space fits one byte
/// (byte_states), state_t otherwise; the rules compute in state_t, so the
/// storage width never affects results.
/// Every sampler also exposes addr(gen): draw the SAME index the call form
/// would, but return the gather ADDRESS instead of loading it. The windowed
/// drivers below use it to split "draw + prefetch" from "load + rule" —
/// operator() is defined as *addr(gen), so the two forms cannot drift.
template <typename TNode>
struct CompleteSampler {
  const TNode* nodes;
  std::uint64_t n;
  const TNode* addr(rng::Xoshiro256pp& gen) const {
    return nodes + uniform_below(gen, n);
  }
  state_t operator()(rng::Xoshiro256pp& gen) const { return *addr(gen); }
};

/// Explicit CSR neighborhood: uniform with repetition over one node's
/// packed neighbor list.
template <typename TNode>
struct CsrSampler {
  const TNode* nodes;
  const std::uint32_t* neighbors;
  std::uint64_t degree;
  const TNode* addr(rng::Xoshiro256pp& gen) const {
    return nodes + neighbors[uniform_below(gen, degree)];
  }
  state_t operator()(rng::Xoshiro256pp& gen) const { return *addr(gen); }
};

/// Implicit neighborhood: the neighbor id is arithmetic on the node id
/// (implicit_topology.hpp) instead of an arena load. Draws the SAME
/// uniform_below(gen, degree) index the CSR sampler would and
/// ImplicitTopology::neighbor reproduces the arena twin's row order, so
/// runs are bitwise-identical to the arena-backed graph.
template <typename TNode>
struct ImplicitSampler {
  const TNode* nodes;
  const ImplicitTopology* topo;
  std::uint64_t v;
  const TNode* addr(rng::Xoshiro256pp& gen) const {
    return nodes + topo->neighbor(v, uniform_below(gen, topo->degree));
  }
  state_t operator()(rng::Xoshiro256pp& gen) const { return *addr(gen); }
};

// --- Rules: inlined clones of each Dynamics::apply_rule. ----------------
// Signature: (own state, state-space size, sampler, gen) -> next state.
// Sample draws are sequenced exactly as the reference path's sample loop.

/// Branch-free select: `take_first ? x : y` as pure ALU ops. The rules'
/// outcomes flip on random sample equalities (a ~50/50 coin each node), so
/// a conditional branch here mispredicts constantly — measured at ~8 ns
/// per node on the majority kernel, more than the three RNG draws cost
/// together. A ternary is NOT equivalent: compilers routinely emit it as a
/// branch.
inline state_t select(bool take_first, state_t x, state_t y) {
  return y ^ ((y ^ x) & (state_t{0} - static_cast<state_t>(take_first)));
}

// Rules whose post-gather work consumes NO generator randomness declare
// kArity + combine(own, states, samples): combine is the whole rule once
// the kArity samples are in hand, so the windowed drivers below can run
// all of a window's draws first (prefetching each gather address) and the
// loads + rule after — same draw order, same values, bitwise-identical.
// Rules with mid-node draws (TwoChoices' tie coin, HPlurality's tie pick,
// GenericRule's virtual body) stay call-form-only and take the unwindowed
// per-node loop.

/// ThreeMajority::apply_rule — majority of three, first on all-distinct.
/// Collapsed to one select: the rule returns b exactly when b == c != a;
/// every other case returns a.
struct MajorityRule {
  static constexpr unsigned kArity = 3;
  static state_t combine(state_t, state_t, const state_t* s) {
    return select((s[1] == s[2]) & (s[0] != s[1]), s[1], s[0]);
  }
  template <class Sampler>
  state_t operator()(state_t own, state_t states, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    state_t s[kArity];
    s[0] = sample(gen);
    s[1] = sample(gen);
    s[2] = sample(gen);
    return combine(own, states, s);
  }
};

/// Voter::apply_rule — adopt the single sample.
struct VoterRule {
  static constexpr unsigned kArity = 1;
  static state_t combine(state_t, state_t, const state_t* s) { return s[0]; }
  template <class Sampler>
  state_t operator()(state_t, state_t, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    return sample(gen);
  }
};

/// TwoChoices::apply_rule — two samples, uniform tie-break. The tie draw is
/// rng::bernoulli(gen, 0.5) inlined (one next_double comparison).
struct TwoChoicesRule {
  template <class Sampler>
  state_t operator()(state_t, state_t, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    const state_t a = sample(gen);
    const state_t b = sample(gen);
    if (a == b) return a;
    return gen.next_double() < 0.5 ? a : b;
  }
};

/// UndecidedState::apply_rule — one sample; colored nodes back off on
/// conflict, undecided nodes adopt what they see. Branch-free selects.
struct UndecidedRule {
  static constexpr unsigned kArity = 1;
  static state_t combine(state_t own, state_t states, const state_t* s) {
    const state_t undecided = states - 1;
    const state_t seen = s[0];
    const state_t colored_next =
        select((seen == own) | (seen == undecided), own, undecided);
    return select(own == undecided, seen, colored_next);
  }
  template <class Sampler>
  state_t operator()(state_t own, state_t states, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    const state_t s[1] = {sample(gen)};
    return combine(own, states, s);
  }
};

/// Branch-free median: clamp c into [min(a,b), max(a,b)].
inline state_t median_of_three(state_t a, state_t b, state_t c) {
  const state_t lo = select(a < b, a, b);
  const state_t hi = select(a < b, b, a);
  const state_t clamped = select(c < lo, lo, c);
  return select(clamped > hi, hi, clamped);
}

/// MedianDynamics::apply_rule — median of three samples.
struct MedianRule {
  static constexpr unsigned kArity = 3;
  static state_t combine(state_t, state_t, const state_t* s) {
    return median_of_three(s[0], s[1], s[2]);
  }
  template <class Sampler>
  state_t operator()(state_t own, state_t states, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    state_t s[kArity];
    s[0] = sample(gen);
    s[1] = sample(gen);
    s[2] = sample(gen);
    return combine(own, states, s);
  }
};

/// MedianOwnTwo::apply_rule — median of own value and two samples.
struct MedianOwnTwoRule {
  static constexpr unsigned kArity = 2;
  static state_t combine(state_t own, state_t, const state_t* s) {
    return median_of_three(own, s[0], s[1]);
  }
  template <class Sampler>
  state_t operator()(state_t own, state_t states, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    state_t s[kArity];
    s[0] = sample(gen);
    s[1] = sample(gen);
    return combine(own, states, s);
  }
};

/// HPlurality::apply_rule — h samples, plurality with uniform tie-break
/// (the tie draw is uniform_below over the tied colors, consumed only when
/// there IS a tie — identical to the virtual rule).
struct HPluralityRule {
  unsigned h;
  template <class Sampler>
  state_t operator()(state_t, state_t, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    state_t distinct[64];
    unsigned counts[64];
    unsigned num_distinct = 0;
    for (unsigned s = 0; s < h; ++s) {
      const state_t v = sample(gen);
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
    unsigned ties = 0;
    for (unsigned i = 0; i < num_distinct; ++i) ties += (counts[i] == best);
    std::uint64_t pick = ties == 1 ? 0 : uniform_below(gen, ties);
    for (unsigned i = 0; i < num_distinct; ++i) {
      if (counts[i] == best) {
        if (pick == 0) return distinct[i];
        --pick;
      }
    }
    return distinct[0];  // unreachable: some color attains `best`
  }
};

/// Fallback for dynamics without a fused kernel (rule tables, future
/// protocols): sample into a stack buffer, then one virtual apply_rule —
/// the reference path's per-node shape minus the allocations and the
/// out-of-line sampling.
struct GenericRule {
  const Dynamics* dynamics;
  unsigned arity;
  template <class Sampler>
  state_t operator()(state_t own, state_t states, const Sampler& sample,
                     rng::Xoshiro256pp& gen) const {
    state_t buffer[64];
    for (unsigned s = 0; s < arity; ++s) buffer[s] = sample(gen);
    return dynamics->apply_rule(own, std::span<const state_t>(buffer, arity),
                                states, gen);
  }
};

// --- Chunk drivers. -----------------------------------------------------

/// Publishes one node's next state into the double buffer and counts it.
template <typename TNode>
inline void publish(TNode* out, count_t* local, std::size_t i, state_t next) {
  out[i] = static_cast<TNode>(next);
  ++local[next];
}

/// Detects the windowable-rule contract (kArity + combine, no post-gather
/// randomness) at compile time.
template <class Rule>
inline constexpr bool is_windowable_rule = requires(const state_t* s) {
  { Rule::kArity } -> std::convertible_to<unsigned>;
  { Rule::combine(state_t{}, state_t{}, s) } -> std::same_as<state_t>;
};

/// Nodes per window of the strict prefetch driver. The window lives in a
/// stack address buffer (kPrefetchWindow * kArity pointers, 384 B at
/// arity 3); 16 nodes keep enough misses in flight to hide the gathers'
/// latency.
inline constexpr std::size_t kPrefetchWindow = 16;

/// Shared windowed chunk body: per window of up to kPrefetchWindow nodes,
/// draw all gather addresses in the exact legacy order (issuing a software
/// prefetch per address), then load + combine + publish. The draw sequence
/// against `gen` is untouched — uniform_below calls in the same order with
/// the same bounds — and combine IS the rule's post-gather arithmetic, so
/// results are bitwise-identical to the unwindowed loop for every
/// windowable rule (pinned by the golden-trajectory suite and by the
/// frozen reference in tests/graph/test_graph_determinism.cpp, whose
/// per-node loop draws in that order).
/// `sampler_for(i)` yields the node's sampler (any of the three above).
template <class Rule, typename TNode, class SamplerFor>
inline void run_chunk_nodes(const Rule& rule, const TNode* __restrict nodes,
                            TNode* __restrict out, count_t* __restrict local,
                            std::size_t lo, std::size_t hi, state_t states,
                            rng::Xoshiro256pp& gen, SamplerFor&& sampler_for) {
  if constexpr (is_windowable_rule<Rule>) {
    const TNode* addr[kPrefetchWindow * Rule::kArity];
    for (std::size_t base = lo; base < hi; base += kPrefetchWindow) {
      const std::size_t nb = std::min(kPrefetchWindow, hi - base);
      for (std::size_t i = 0; i < nb; ++i) {
        const auto sample = sampler_for(base + i);
        for (unsigned a = 0; a < Rule::kArity; ++a) {
          const TNode* p = sample.addr(gen);
          addr[i * Rule::kArity + a] = p;
          __builtin_prefetch(p, 0, 3);
        }
      }
      for (std::size_t i = 0; i < nb; ++i) {
        state_t s[Rule::kArity];
        for (unsigned a = 0; a < Rule::kArity; ++a) {
          s[a] = static_cast<state_t>(*addr[i * Rule::kArity + a]);
        }
        publish(out, local, base + i,
                Rule::combine(static_cast<state_t>(nodes[base + i]), states, s));
      }
    }
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto sample = sampler_for(i);
      publish(out, local, i, rule(static_cast<state_t>(nodes[i]), states, sample, gen));
    }
  }
}

/// Steps nodes [lo, hi) of the implicit complete graph.
template <class Rule, typename TNode>
inline void run_chunk_complete(const Rule& rule, const TNode* __restrict nodes,
                               TNode* __restrict out, count_t* __restrict local,
                               std::size_t lo, std::size_t hi, std::uint64_t n,
                               state_t states, rng::Xoshiro256pp& gen) {
  run_chunk_nodes(rule, nodes, out, local, lo, hi, states, gen,
                  [&](std::size_t) { return CompleteSampler<TNode>{nodes, n}; });
}

/// Steps nodes [lo, hi) of an explicit CSR graph.
template <class Rule, typename TNode>
inline void run_chunk_csr(const Rule& rule, const TNode* __restrict nodes,
                          TNode* __restrict out, count_t* __restrict local,
                          std::size_t lo, std::size_t hi,
                          const std::uint64_t* __restrict offsets,
                          const std::uint32_t* __restrict neighbors, state_t states,
                          rng::Xoshiro256pp& gen) {
  run_chunk_nodes(rule, nodes, out, local, lo, hi, states, gen,
                  [&](std::size_t i) {
                    const std::uint64_t off = offsets[i];
                    return CsrSampler<TNode>{nodes, neighbors + off,
                                             offsets[i + 1] - off};
                  });
}

/// Steps nodes [lo, hi) of an implicit topology (ring/torus/lattice
/// descriptors): neighbor ids computed from the node id, no arena at all.
/// Bitwise-equal to run_chunk_csr/run_chunk_regular on the arena twin
/// (same index draws, same neighbor order — see implicit_topology.hpp).
template <class Rule, typename TNode>
inline void run_chunk_implicit(const Rule& rule, const TNode* __restrict nodes,
                               TNode* __restrict out, count_t* __restrict local,
                               std::size_t lo, std::size_t hi,
                               const ImplicitTopology& topo,
                               state_t states, rng::Xoshiro256pp& gen) {
  run_chunk_nodes(rule, nodes, out, local, lo, hi, states, gen,
                  [&](std::size_t i) { return ImplicitSampler<TNode>{nodes, &topo, i}; });
}

/// Steps nodes [lo, hi) of a degree-uniform CSR graph (cycle, torus,
/// random-regular — the common sparse benchmarks): node i's neighbor row
/// starts at i*degree, so the offset loads disappear and the sample bound
/// is loop-invariant. Produces exactly what run_chunk_csr would (offsets
/// of a regular graph ARE i*degree); only the address arithmetic changes.
template <class Rule, typename TNode>
inline void run_chunk_regular(const Rule& rule, const TNode* __restrict nodes,
                              TNode* __restrict out, count_t* __restrict local,
                              std::size_t lo, std::size_t hi,
                              const std::uint32_t* __restrict neighbors,
                              std::uint64_t degree, state_t states,
                              rng::Xoshiro256pp& gen) {
  run_chunk_nodes(rule, nodes, out, local, lo, hi, states, gen,
                  [&](std::size_t i) {
                    return CsrSampler<TNode>{nodes, neighbors + i * degree, degree};
                  });
}

}  // namespace plurality::graph::kernels
