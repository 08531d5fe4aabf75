#include "graph/step_push.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/kernels.hpp"
#include "graph/kernels_batched.hpp"
#include "rng/philox.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {

namespace kb = kernels_batched;

namespace {

constexpr unsigned kPushBucketShift = 20;
static_assert(kPushBucketNodes == (std::size_t{1} << kPushBucketShift),
              "bucket shift and bucket size must agree");

/// Phase-A word-buffer length: 16 KiB per thread, stack-resident like the
/// batched engine's tile arenas.
constexpr std::size_t kPushWordBlock = 2048;

// --- Push rules: the arity-1 laws, post-gather arithmetic only. ---------
// apply(own, states, seen) must equal the batched rule's apply() on the
// same sample — that identity is what makes push == batched bitwise.

struct PushVoter {
  /// Voter ignores the destination's own state, so phase C can skip the
  /// nodes[v] load entirely.
  static constexpr bool kNeedsOwn = false;
  static state_t apply(state_t, state_t, state_t seen) { return seen; }
};

struct PushUndecided {
  static constexpr bool kNeedsOwn = true;
  static state_t apply(state_t own, state_t states, state_t seen) {
    const state_t undecided = states - 1;
    const state_t colored_next =
        kernels::select((seen == own) | (seen == undecided), own, undecided);
    return kernels::select(own == undecided, seen, colored_next);
  }
};

/// The four-phase scatter round. `source_of(i, word)` converts node i's
/// Philox word into its sampled source id — per topology, the exact
/// composition the batched samplers use (scale_word against i's bound,
/// then i's neighbor row), so phase A reproduces the batched pull draw
/// word for word.
template <class Rule, typename TNode, class SourceOf>
void push_sweep(const TNode* nodes, state_t* out, TNode* mirror_out, std::size_t n,
                state_t k, rng::Philox4x32::Key key,
                std::uint64_t round, GraphStepWorkspace& ws,
                SourceOf&& source_of) {
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  const std::size_t buckets = (n + kPushBucketNodes - 1) / kPushBucketNodes;
  std::uint32_t* src = ws.push_src.data();
  std::uint64_t* pairs = ws.push_pairs.data();
  // hist is chunk-major (hist[chunk * buckets + bucket]): phase A/B then
  // touch one contiguous `buckets`-entry row per thread.
  std::uint64_t* hist = ws.push_hist.data();
  std::fill(hist, hist + static_cast<std::size_t>(kGraphChunks) * buckets,
            std::uint64_t{0});

  // Phase A: draw every node's source (sequential streams: the Philox word,
  // the neighbor row, and src[] are all walked in node order) + histogram
  // by source bucket. Words are block-generated like the batched engine's
  // pass 1 (SIMD fill when the host supports it, bitwise-pinned to the
  // scalar fill).
  const simd::Ops* ops = simd::detect();
  const auto fill = (ops != nullptr && ops->fill_words != nullptr)
                        ? ops->fill_words
                        : &rng::Philox4x32::fill_words<kb::kSamplerRounds>;
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::uint64_t* h = hist + static_cast<std::size_t>(chunk) * buckets;
    std::array<std::uint64_t, kPushWordBlock> wbuf;
    for (std::size_t base = lo; base < hi; base += kPushWordBlock) {
      const std::size_t nb = std::min(kPushWordBlock, hi - base);
      fill(key, round, base, nb, wbuf.data());
      for (std::size_t i = 0; i < nb; ++i) {
        const std::uint32_t u = source_of(base + i, wbuf[i]);
        src[base + i] = u;
        ++h[u >> kPushBucketShift];
      }
    }
  }

  // Exclusive prefix over cells in (bucket, chunk) order: cell (b, c)'s
  // cursor points at its slot range inside bucket b. The layout is fully
  // determined by the histogram — no thread-order dependence anywhere.
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (unsigned c = 0; c < kGraphChunks; ++c) {
      std::uint64_t& cell = hist[static_cast<std::size_t>(c) * buckets + b];
      const std::uint64_t count = cell;
      cell = total;
      total += count;
    }
  }
  PLURALITY_CHECK(total == n);

  // Phase B: place (source, dest) pairs at the deterministic cursors. Each
  // (bucket, chunk) cell is advanced only by its own chunk's thread, and
  // dests within a cell land in ascending order.
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::uint64_t* h = hist + static_cast<std::size_t>(chunk) * buckets;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t u = src[i];
      const std::uint64_t pos = h[u >> kPushBucketShift]++;
      pairs[pos] = (static_cast<std::uint64_t>(u) << 32) | i;
    }
  }

  // Phase C: scatter-apply per bucket. All of a bucket's gathers hit one
  // kPushBucketNodes window of the state array (cache-resident), and each
  // dest id occurs exactly once across all buckets, so the writes are
  // race-free. Dests ascend within each (bucket, chunk) run, so the
  // own-loads and next-state writes are quasi-sequential too. Dynamic
  // schedule: bucket populations vary (≈ binomial around n/buckets), and
  // the output is position-determined, so stealing cannot change results.
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic)
#endif
  for (unsigned b = 0; b < static_cast<unsigned>(buckets); ++b) {
    // After phase B every cell cursor sits at its END; bucket b's range is
    // [end of bucket b-1, end of its own last cell (chunk kGraphChunks-1)].
    const std::size_t last_row = static_cast<std::size_t>(kGraphChunks - 1) * buckets;
    const std::uint64_t lo = b == 0 ? 0 : hist[last_row + b - 1];
    const std::uint64_t hi = hist[last_row + b];
    for (std::uint64_t pos = lo; pos < hi; ++pos) {
      const std::uint64_t pr = pairs[pos];
      const std::uint32_t u = static_cast<std::uint32_t>(pr >> 32);
      const std::uint32_t v = static_cast<std::uint32_t>(pr);
      const state_t own =
          Rule::kNeedsOwn ? static_cast<state_t>(nodes[v]) : state_t{0};
      const state_t next = Rule::apply(own, k, static_cast<state_t>(nodes[u]));
      if (out != nullptr) out[v] = next;
      if constexpr (!std::is_same_v<TNode, state_t>) {
        mirror_out[v] = static_cast<TNode>(next);
      }
    }
  }
}

/// Topology dispatch + byte-mirror handling + count reduction — the outer
/// shell shared with step_batched_all, minus the tile pipeline.
template <class Rule>
void step_push_all(const AgentGraph& graph, Configuration& config,
                   const rng::StreamFactory& streams, round_t round,
                   GraphStepWorkspace& ws) {
  const std::size_t n = graph.num_nodes();
  const state_t k = config.k();
  const rng::Philox4x32::Key key =
      rng::Philox4x32::key_from_seed(streams.master_seed(), kb::kBatchedKeyTag);
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  const bool complete = graph.is_complete();
  const bool implicit = graph.is_implicit();
  const bool regular =
      !complete && !implicit && graph.min_degree() == graph.max_degree();
  count_t* partials = ws.partials.data();
  state_t* out = ws.bytes_only ? nullptr : ws.scratch.data();
  ws.prepare_push(n);

  const auto sweep = [&](auto nodes_ptr, auto* mirror_out) {
    using TNode = std::remove_const_t<std::remove_pointer_t<decltype(nodes_ptr)>>;
    if (complete) {
      push_sweep<Rule>(nodes_ptr, out, mirror_out, n, k, key, round, ws,
                       [n](std::size_t, std::uint64_t x) {
                         return kb::scale_word(x, n);
                       });
    } else if (implicit) {
      const ImplicitTopology topo = graph.implicit_topology();
      push_sweep<Rule>(nodes_ptr, out, mirror_out, n, k, key, round, ws,
                       [topo](std::size_t i, std::uint64_t x) {
                         return static_cast<std::uint32_t>(
                             topo.neighbor(i, kb::scale_word(x, topo.degree)));
                       });
    } else if (regular) {
      const std::uint32_t* neighbors = graph.neighbors();
      const std::uint64_t degree = graph.min_degree();
      push_sweep<Rule>(nodes_ptr, out, mirror_out, n, k, key, round, ws,
                       [neighbors, degree](std::size_t i, std::uint64_t x) {
                         return neighbors[i * degree + kb::scale_word(x, degree)];
                       });
    } else {
      const std::uint64_t* offsets = graph.offsets();
      const std::uint32_t* neighbors = graph.neighbors();
      push_sweep<Rule>(nodes_ptr, out, mirror_out, n, k, key, round, ws,
                       [offsets, neighbors](std::size_t i, std::uint64_t x) {
                         const std::uint64_t off = offsets[i];
                         return neighbors[off +
                                          kb::scale_word(x, offsets[i + 1] - off)];
                       });
    }

    // Count pass over the published states, on the fixed chunk grid.
    const auto* published = mirror_out != nullptr
                                ? static_cast<const TNode*>(mirror_out)
                                : reinterpret_cast<const TNode*>(out);
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
    for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
      const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      count_t* local = partials + static_cast<std::size_t>(chunk) * k;
      std::fill(local, local + k, count_t{0});
      if (lo < hi) kb::count_tile(published, lo, hi - lo, k, local);
    }
  };

  if (k <= 256) {
    // Byte-mirror path (same rationale as strict/batched: phase C's window
    // gathers touch a 4x denser array; values identical either way).
    std::uint8_t* mirror = ws.nodes8.data();
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

bool push_has_kernel(const Dynamics& dynamics) {
  return dynamic_cast<const Voter*>(&dynamics) != nullptr ||
         dynamic_cast<const UndecidedState*>(&dynamics) != nullptr;
}

void step_graph_push(const Dynamics& dynamics, const AgentGraph& graph,
                     Configuration& config, const rng::StreamFactory& streams,
                     round_t round, GraphStepWorkspace& ws,
                     const StepTuning& tuning) {
  (void)tuning;  // no tile/prefetch knobs: every phase streams sequentially
  const count_t n = graph.num_nodes();
  PLURALITY_REQUIRE(config.n() == n, "step_graph_push: configuration has "
                                         << config.n() << " nodes but graph has " << n);
  PLURALITY_REQUIRE(ws.state_size() == n,
                    "step_graph_push: workspace holds "
                        << ws.state_size() << " node states for " << n
                        << " nodes — call load_nodes first");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "step_graph_push: isolated vertices cannot sample");
  PLURALITY_REQUIRE(n <= 0xffffffffULL,
                    "step_graph_push: node ids must fit 32 bits (n=" << n << ")");
  ws.prepare(n, config.k());

  if (dynamic_cast<const Voter*>(&dynamics) != nullptr) {
    step_push_all<PushVoter>(graph, config, streams, round, ws);
  } else if (dynamic_cast<const UndecidedState*>(&dynamics) != nullptr) {
    step_push_all<PushUndecided>(graph, config, streams, round, ws);
  } else {
    PLURALITY_CHECK_MSG(false, "step_graph_push: dynamics '"
                                   << dynamics.name()
                                   << "' has no push kernel (see push_has_kernel)");
  }
}

}  // namespace plurality::graph
