#include "graph/step_batched.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <type_traits>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/thread_plan.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/kernels_batched.hpp"
#include "support/check.hpp"

namespace plurality::graph {

namespace kb = kernels_batched;

namespace {

std::atomic<std::size_t> g_tile_override{0};

/// Nodes pass 3 prefetches ahead of its gather: far enough to cover a
/// random load's miss latency, short enough to stay in the tile.
constexpr std::size_t kGatherPrefetchAhead = 16;

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
                   const Sampler& sampler, const TNode* nodes, TNode* out,
                   state_t states, std::size_t lo, std::size_t hi,
                   const simd::Ops* ops, const simd::FusedArgs* fused_proto,
                   count_t* local, state_t k) {
  if constexpr (std::is_same_v<TNode, std::uint8_t>) {
    if (fused_proto != nullptr) {
      const auto fused = fused_kernel<Rule, Sampler, TNode>(ops);
      if (fused != nullptr) {
        simd::FusedArgs args = *fused_proto;
        args.base = lo;
        args.count = hi - lo;
        fused(args);
        // Fused kernels publish out8; counting happens here.
        if (ops->count_u8 != nullptr && k <= 16) {
          ops->count_u8(out, lo, hi, k, local);
        } else {
          kb::count_tile(out, lo, hi - lo, k, local);
        }
        return;
      }
    }
  }

  const std::size_t wpn = arity + tie_words;
  // The test override, else the word-budget derivation. Any value yields
  // the same results (the word addressing is per-node, not per-tile).
  std::size_t tile = g_tile_override.load(std::memory_order_relaxed);
  if (tile == 0) tile = kb::tile_nodes_for(static_cast<unsigned>(wpn));
  tile = std::min(tile, kb::kBatchedWordBudget / wpn);
  PLURALITY_CHECK(tile >= 1);

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
        if (i + kGatherPrefetchAhead < nb) {
          __builtin_prefetch(sampler.prefetch_target(base + i + kGatherPrefetchAhead,
                                                     plane_index[i + kGatherPrefetchAhead]),
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
    // Pass 4: apply the rule; publish into the double buffer.
    kb::apply_tile(rule, nodes, out, states, base, nb, st, tile,
                   tie_words > 0 ? tie_base : words);
    if constexpr (std::is_same_v<TNode, std::uint8_t>) {
      if (ops != nullptr && ops->count_u8 != nullptr && k <= 16) {
        ops->count_u8(out, base, base + nb, k, local);
        continue;
      }
    }
    kb::count_tile(out, base, nb, k, local);
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
                      GraphStepWorkspace& ws) {
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
  const simd::Ops* ops = simd::active();
  count_t* partials = ws.partials.data();

  const auto sweep = [&](auto nodes_ptr, auto* out) {
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
        proto.out8 = out;
        proto.states = k;
        fused_proto = &proto;
      }
    }

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static) num_threads(round_team_size(n))
#endif
    for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
      const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      count_t* local = partials + static_cast<std::size_t>(chunk) * k;
      std::fill(local, local + k, count_t{0});
      if (lo >= hi) continue;
      if (complete) {
        const kb::BatchedCompleteSampler<TNode> sampler{nodes_ptr, n};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out, k,
                      lo, hi, ops, fused_proto, local, k);
      } else if (implicit) {
        const kb::BatchedImplicitSampler<TNode> sampler{nodes_ptr,
                                                        graph.implicit_topology()};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out, k,
                      lo, hi, ops, fused_proto, local, k);
      } else if (regular) {
        const kb::BatchedRegularSampler<TNode> sampler{nodes_ptr, graph.neighbors(),
                                                       uniform_degree};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out, k,
                      lo, hi, ops, fused_proto, local, k);
      } else {
        const kb::BatchedCsrSampler<TNode> sampler{nodes_ptr, graph.offsets(),
                                                   graph.neighbors()};
        batched_chunk(rule, arity, tie_words, key, round, n_pad, sampler, nodes_ptr, out, k,
                      lo, hi, ops, fused_proto, local, k);
      }
    }
  };

  if (byte_states(k)) {
    sweep(static_cast<const std::uint8_t*>(ws.nodes8.data()), ws.scratch8.data());
    ws.nodes8.swap(ws.scratch8);
  } else {
    sweep(static_cast<const state_t*>(ws.nodes.data()), ws.scratch.data());
    ws.nodes.swap(ws.scratch);
  }
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
                        round_t round, GraphStepWorkspace& ws) {
  const count_t n = graph.num_nodes();
  PLURALITY_REQUIRE(config.n() == n, "step_graph_batched: configuration has "
                                         << config.n() << " nodes but graph has " << n);
  PLURALITY_REQUIRE(ws.state_size(config.k()) == n,
                    "step_graph_batched: workspace holds "
                        << ws.state_size(config.k()) << " node states for " << n
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
                     ws);
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
                     kb::BatchedHPlurality::kTieWords, graph, config, streams, round, ws);
  } else {
    PLURALITY_CHECK_MSG(false, "step_graph_batched: dynamics '"
                                   << dynamics.name()
                                   << "' has no batched kernel (see batched_has_kernel)");
  }
}

void set_batched_tile_nodes_override(std::size_t tile_nodes) {
  g_tile_override.store(tile_nodes, std::memory_order_relaxed);
}

}  // namespace plurality::graph
