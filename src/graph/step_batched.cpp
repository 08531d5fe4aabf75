#include "graph/step_batched.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <type_traits>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/kernels_batched.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {

namespace kb = kernels_batched;

namespace {

std::atomic<bool> g_simd_enabled{true};
std::atomic<std::size_t> g_tile_override{0};

const simd::Ops* active_ops() {
  if (!g_simd_enabled.load(std::memory_order_relaxed)) return nullptr;
  return simd::detect();
}

/// Stack-resident tile arenas of the stage-split pipeline: bounded by
/// kBatchedWordBudget, so they are cache-warm, per-thread by construction
/// (each OpenMP chunk body owns its own), and contribute nothing to the
/// zero-allocation budget of warm rounds. Elements are deliberately left
/// uninitialized — every pass fully overwrites the range it reads.
template <typename TS>
struct TileArenas {
  std::array<std::uint64_t, kb::kBatchedWordBudget + 2> words;
  std::array<std::uint32_t, kb::kBatchedWordBudget> index;
  std::array<TS, kb::kBatchedWordBudget> states;
};

/// Selects the fused SIMD kernel for (Rule, Sampler) when one exists.
template <class Rule, class Sampler, typename TS>
auto fused_kernel(const simd::Ops* ops) -> void (*)(const simd::FusedArgs&) {
  if (ops == nullptr) return nullptr;
  if constexpr (!std::is_same_v<TS, std::uint8_t>) {
    return nullptr;
  } else if constexpr (std::is_same_v<Sampler, kb::BatchedRegularSampler<std::uint8_t>>) {
    if constexpr (std::is_same_v<Rule, kb::BatchedMajority>) return ops->fused_regular_majority;
    if constexpr (std::is_same_v<Rule, kb::BatchedVoter>) return ops->fused_regular_voter;
    if constexpr (std::is_same_v<Rule, kb::BatchedUndecided>) return ops->fused_regular_undecided;
    return nullptr;
  } else if constexpr (std::is_same_v<Sampler, kb::BatchedCompleteSampler<std::uint8_t>>) {
    if constexpr (std::is_same_v<Rule, kb::BatchedMajority>) return ops->fused_complete_majority;
    if constexpr (std::is_same_v<Rule, kb::BatchedVoter>) return ops->fused_complete_voter;
    if constexpr (std::is_same_v<Rule, kb::BatchedUndecided>) return ops->fused_complete_undecided;
    return nullptr;
  } else {
    return nullptr;
  }
}

/// The stage-split pipeline for one chunk [lo, hi): tile loop over the
/// four passes of kernels_batched.hpp, with the fused SIMD kernel taking
/// the whole chunk when one applies.
template <class Rule, class Sampler, typename TNode>
void batched_chunk(const Rule& rule, unsigned arity, unsigned tie_words,
                   rng::Philox4x32::Key key, std::uint64_t round, std::uint64_t n_pad,
                   const Sampler& sampler, const TNode* nodes, state_t* out,
                   TNode* mirror_out, state_t states, std::size_t lo, std::size_t hi,
                   const simd::Ops* ops, const simd::FusedArgs* fused_proto,
                   count_t* local, state_t k, const StepTuning& tuning) {
  if constexpr (std::is_same_v<TNode, std::uint8_t>) {
    if (fused_proto != nullptr) {
      const auto fused = fused_kernel<Rule, Sampler, TNode>(ops);
      if (fused != nullptr) {
        simd::FusedArgs args = *fused_proto;
        args.base = lo;
        args.count = hi - lo;
        fused(args);
        // Fused kernels publish out8/out32; counting happens here.
        if (ops->count_u8 != nullptr && k <= 16) {
          ops->count_u8(mirror_out, lo, hi, k, local);
        } else {
          kb::count_tile(mirror_out, lo, hi - lo, k, local);
        }
        return;
      }
    }
  }

  const std::size_t wpn = arity + tie_words;
  // Tile-size precedence: spec/CLI tuning, then the test override, then the
  // word-budget derivation. Any value yields the same results (the word
  // addressing is per-node, not per-tile).
  std::size_t tile = tuning.tile_nodes;
  if (tile == 0) tile = g_tile_override.load(std::memory_order_relaxed);
  if (tile == 0) tile = kb::tile_nodes_for(static_cast<unsigned>(wpn));
  tile = std::min(tile, kb::kBatchedWordBudget / wpn);
  PLURALITY_CHECK(tile >= 1);
  const std::size_t prefetch_ahead = tuning.prefetch_distance;

  const auto fill = (ops != nullptr && ops->fill_words != nullptr)
                        ? ops->fill_words
                        : &rng::Philox4x32::fill_words<kb::kSamplerRounds>;

  TileArenas<TNode> arena;
  std::uint64_t* words = arena.words.data();
  std::uint32_t* index = arena.index.data();
  TNode* st = arena.states.data();

  for (std::size_t base = lo; base < hi; base += tile) {
    const std::size_t nb = std::min(tile, hi - base);
    for (unsigned s = 0; s < arity; ++s) {
      std::uint64_t* plane_words = words + static_cast<std::size_t>(s) * tile;
      std::uint32_t* plane_index = index + static_cast<std::size_t>(s) * tile;
      TNode* plane_states = st + static_cast<std::size_t>(s) * tile;
      // Pass 1: block-generate the plane's Philox words.
      fill(key, round, static_cast<std::uint64_t>(s) * n_pad + base, nb, plane_words);
      // Pass 2: branch-free bounded-bias index conversion.
      for (std::size_t i = 0; i < nb; ++i) {
        plane_index[i] = kb::scale_word(plane_words[i], sampler.bound(base + i));
      }
      // Pass 3: gather sampled states, prefetching ahead of the random loads.
      for (std::size_t i = 0; i < nb; ++i) {
        if (prefetch_ahead != 0 && i + prefetch_ahead < nb) {
          __builtin_prefetch(sampler.prefetch_target(base + i + prefetch_ahead,
                                                     plane_index[i + prefetch_ahead]),
                             0, 3);
        }
        plane_states[i] = sampler.state(base + i, plane_index[i]);
      }
    }
    std::uint64_t* tie_base = words + static_cast<std::size_t>(arity) * tile;
    for (unsigned t = 0; t < tie_words; ++t) {
      fill(key, round, (static_cast<std::uint64_t>(arity) + t) * n_pad + base, nb,
           tie_base + static_cast<std::size_t>(t) * tile);
    }
    // Pass 4: apply the rule; publish into scratch (+ mirror).
    kb::apply_tile(rule, arity, nodes, out, mirror_out, states, base, nb, st, tile,
                   tie_words > 0 ? tie_base : words);
    if constexpr (std::is_same_v<TNode, std::uint8_t>) {
      if (ops != nullptr && ops->count_u8 != nullptr && k <= 16) {
        ops->count_u8(mirror_out, base, base + nb, k, local);
        continue;
      }
      kb::count_tile(mirror_out, base, nb, k, local);
    } else {
      kb::count_tile(out + base, 0, nb, k, local);
    }
  }
}

/// Chunk grid + topology dispatch shared by every rule. Mirrors the strict
/// path's step_all_chunks: same kGraphChunks grid, per-chunk partials,
/// identical publish semantics — only the randomness and inner pipeline
/// differ.
template <class Rule>
void step_batched_all(const Rule& rule, unsigned arity, unsigned tie_words,
                      const AgentGraph& graph, Configuration& config,
                      const rng::StreamFactory& streams, round_t round,
                      GraphStepWorkspace& ws, const StepTuning& tuning) {
  const std::size_t n = graph.num_nodes();
  const state_t k = config.k();
  const std::uint64_t n_pad = kb::pad64(n);
  const rng::Philox4x32::Key key =
      rng::Philox4x32::key_from_seed(streams.master_seed(), kb::kBatchedKeyTag);
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  const bool complete = graph.is_complete();
  const bool implicit = graph.is_implicit();
  const bool regular =
      !complete && !implicit && graph.min_degree() == graph.max_degree();
  const std::uint64_t uniform_degree = regular ? graph.min_degree() : 0;
  const simd::Ops* ops = active_ops();
  count_t* partials = ws.partials.data();
  // Bytes-only mode: no u32 scratch exists; apply_tile and the fused SIMD
  // kernels skip the wide write on a null out pointer.
  state_t* out = ws.bytes_only ? nullptr : ws.scratch.data();

  const auto sweep = [&](auto nodes_ptr, auto* mirror_out) {
    using TNode = std::remove_const_t<std::remove_pointer_t<decltype(nodes_ptr)>>;
    // Fused prototype args (byte path only; completed per chunk).
    simd::FusedArgs proto;
    const simd::FusedArgs* fused_proto = nullptr;
    if constexpr (std::is_same_v<TNode, std::uint8_t>) {
      // The fused kernels compute gather addresses in 32-bit lanes, so the
      // largest byte offset (n on the clique, n*degree on regular CSR) must
      // fit a signed 32-bit gather index; beyond that the tile pipeline
      // (64-bit scalar addressing) takes over.
      const std::uint64_t max_offset = complete ? n : n * uniform_degree;
      if (ops != nullptr && (complete || regular) && max_offset < (1ULL << 31)) {
        proto.key = key;
        proto.round = round;
        proto.n_pad = n_pad;
        proto.neighbors = complete ? nullptr : graph.neighbors();
        proto.bound = complete ? n : uniform_degree;
        proto.nodes8 = nodes_ptr;
        proto.out8 = mirror_out;
        proto.out32 = out;
        proto.states = k;
        fused_proto = &proto;
      }
    }

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
      const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      count_t* local = partials + static_cast<std::size_t>(chunk) * k;
      std::fill(local, local + k, count_t{0});
      if (lo >= hi) continue;
      if (complete) {
        const kb::BatchedCompleteSampler<TNode> sampler{nodes_ptr, n};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out,
                      mirror_out, k, lo, hi, ops, fused_proto, local, k, tuning);
      } else if (implicit) {
        const kb::BatchedImplicitSampler<TNode> sampler{nodes_ptr,
                                                        graph.implicit_topology()};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out,
                      mirror_out, k, lo, hi, ops, fused_proto, local, k, tuning);
      } else if (regular) {
        const kb::BatchedRegularSampler<TNode> sampler{nodes_ptr, graph.neighbors(),
                                                       uniform_degree};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out,
                      mirror_out, k, lo, hi, ops, fused_proto, local, k, tuning);
      } else {
        const kb::BatchedCsrSampler<TNode> sampler{nodes_ptr, graph.offsets(),
                                                   graph.neighbors()};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out,
                      mirror_out, k, lo, hi, ops, fused_proto, local, k, tuning);
      }
    }
  };

  if (k <= 256) {
    // Byte-mirror path (same rationale as the strict engine: the random
    // sample loads hit a 4x denser array; values identical either way).
    std::uint8_t* mirror = ws.nodes8.data();
    // Bytes-only mode: load_nodes writes nodes8 directly; there is no u32
    // array to refresh from (and corrupt_nodes rejects the mode).
    if (!ws.bytes_only && !ws.mirror_fresh) {
      const state_t* nodes = ws.nodes.data();
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
      for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
        const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
        const std::size_t hi = std::min(n, lo + chunk_size);
        for (std::size_t i = lo; i < hi; ++i) {
          mirror[i] = static_cast<std::uint8_t>(nodes[i]);
        }
      }
    }
    sweep(static_cast<const std::uint8_t*>(mirror), ws.scratch8.data());
    ws.nodes8.swap(ws.scratch8);
    ws.mirror_fresh = true;
  } else {
    state_t* no_mirror = nullptr;
    sweep(static_cast<const state_t*>(ws.nodes.data()), no_mirror);
  }

  ws.nodes.swap(ws.scratch);  // no-op (both empty) in bytes-only mode
  std::fill(ws.counts.begin(), ws.counts.end(), count_t{0});
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const count_t* local = ws.partials.data() + static_cast<std::size_t>(chunk) * k;
    for (state_t j = 0; j < k; ++j) ws.counts[j] += local[j];
  }
  config.assign_counts(ws.counts);
}

}  // namespace

bool batched_has_kernel(const Dynamics& dynamics) {
  return dynamic_cast<const ThreeMajority*>(&dynamics) != nullptr ||
         dynamic_cast<const Voter*>(&dynamics) != nullptr ||
         dynamic_cast<const TwoChoices*>(&dynamics) != nullptr ||
         dynamic_cast<const UndecidedState*>(&dynamics) != nullptr ||
         dynamic_cast<const MedianDynamics*>(&dynamics) != nullptr ||
         dynamic_cast<const MedianOwnTwo*>(&dynamics) != nullptr ||
         dynamic_cast<const HPlurality*>(&dynamics) != nullptr;
}

void step_graph_batched(const Dynamics& dynamics, const AgentGraph& graph,
                        Configuration& config, const rng::StreamFactory& streams,
                        round_t round, GraphStepWorkspace& ws,
                        const StepTuning& tuning) {
  const count_t n = graph.num_nodes();
  PLURALITY_REQUIRE(config.n() == n, "step_graph_batched: configuration has "
                                         << config.n() << " nodes but graph has " << n);
  PLURALITY_REQUIRE(ws.state_size() == n,
                    "step_graph_batched: workspace holds "
                        << ws.state_size() << " node states for " << n
                        << " nodes — call load_nodes first");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "step_graph_batched: isolated vertices cannot sample");
  // scale_word (kernels_batched.hpp) requires every sample bound < 2^32;
  // sparse graphs satisfy it by the arena's 32-bit ids, the clique/gossip
  // bound is n itself.
  PLURALITY_REQUIRE(!graph.is_complete() || n <= 0xffffffffULL,
                    "step_graph_batched: the clique/gossip sample bound must fit "
                    "32 bits (n=" << n << ")");
  ws.prepare(n, config.k());

  // Fixed-arity rules: the word-plane layout (arity + tie words) comes from
  // the rule's own constants, so a rule edit can never go out of sync with
  // the dispatch.
  const auto run = [&]<class Rule>(const Rule& rule) {
    step_batched_all(rule, Rule::kArity, Rule::kTieWords, graph, config, streams, round,
                     ws, tuning);
  };
  if (const auto* d = dynamic_cast<const ThreeMajority*>(&dynamics)) {
    (void)d;
    run(kb::BatchedMajority{});
  } else if (const auto* v = dynamic_cast<const Voter*>(&dynamics)) {
    (void)v;
    run(kb::BatchedVoter{});
  } else if (const auto* t = dynamic_cast<const TwoChoices*>(&dynamics)) {
    (void)t;
    run(kb::BatchedTwoChoices{});
  } else if (const auto* u = dynamic_cast<const UndecidedState*>(&dynamics)) {
    (void)u;
    run(kb::BatchedUndecided{});
  } else if (const auto* m = dynamic_cast<const MedianDynamics*>(&dynamics)) {
    (void)m;
    run(kb::BatchedMedian{});
  } else if (const auto* m2 = dynamic_cast<const MedianOwnTwo*>(&dynamics)) {
    (void)m2;
    run(kb::BatchedMedianOwnTwo{});
  } else if (const auto* h = dynamic_cast<const HPlurality*>(&dynamics)) {
    const unsigned arity = h->sample_arity();
    PLURALITY_CHECK_MSG(arity <= 64, "graph backend supports sample arity <= 64");
    step_batched_all(kb::BatchedHPlurality{arity}, arity,
                     kb::BatchedHPlurality::kTieWords, graph, config, streams, round, ws,
                     tuning);
  } else {
    PLURALITY_CHECK_MSG(false, "step_graph_batched: dynamics '"
                                   << dynamics.name()
                                   << "' has no batched kernel (see batched_has_kernel)");
  }
}

void set_batched_simd_enabled(bool enabled) {
  g_simd_enabled.store(enabled, std::memory_order_relaxed);
}

bool batched_simd_active() {
  return active_ops() != nullptr;
}

void set_batched_tile_nodes_override(std::size_t tile_nodes) {
  g_tile_override.store(tile_nodes, std::memory_order_relaxed);
}

}  // namespace plurality::graph
