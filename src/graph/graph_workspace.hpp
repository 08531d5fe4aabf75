// Preallocated scratch for the graph stepping hot path — the graph-layer
// sibling of core's StepWorkspace.
//
// A graph round needs the node-state array, its double buffer, and the
// per-chunk partial count matrix. The pre-refactor stepper allocated the
// partials (and a fresh Configuration) every round, which makes agent-level
// stepping allocator-bound exactly where it is already the slow path
// (Θ(n·h) work per round). The workspace owns every buffer and is reused
// across rounds AND across trials — run_graph_trials keeps one per OpenMP
// thread, GraphSimulation owns one for its lifetime.
//
// Unlike StepWorkspace, ws.nodes is NOT pure scratch: it carries the node
// states across rounds (the graph process is not exchangeable, so the
// count vector is not a sufficient statistic). load_nodes() (re)initializes
// it per trial; everything else is fully rewritten by each step, so
// workspace reuse across trials or dynamics never leaks state. After the
// first step at a given (n, k), a warm round performs zero heap
// allocations (tests/alloc/test_allocation.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine_mode.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace plurality::graph {

/// Fixed chunk fan-out of the graph stepper: one hash-derived RNG stream
/// per (round, chunk), so results depend on the seed but never on the
/// thread count.
inline constexpr unsigned kGraphChunks = 64;

/// Which stepping pipeline step_graph runs. The enum itself now lives in
/// core/engine_mode.hpp (the axis spans both backends); on this backend
/// Batched means the stage-split pipeline of kernels_batched.hpp, whose
/// index conversion is branch-free bounded-bias Lemire high-multiply
/// (bias <= bound / 2^64 per draw — exactly 0 when the bound is a power of
/// two).
using plurality::EngineMode;

/// Cache-behavior knobs of the stepping pipelines, threaded from the
/// scenario spec (`tile_nodes`, `prefetch_distance`) and the bench CLI
/// down to the kernels. Pure performance tuning: every setting produces
/// bitwise-identical results per engine mode (tile addressing is
/// counter-based; the strict window replays the exact draw order), pinned
/// by the StepTuningKnobs battery in tests/graph/test_graph_batched.cpp.
struct StepTuning {
  /// Batched-pipeline tile size in nodes (0 = derive from
  /// kernels_batched::kBatchedWordBudget; clamped to the word budget).
  std::uint32_t tile_nodes = 0;
  /// Software-prefetch distance of the gather loops: the batched pass-3
  /// look-ahead, and the strict windowed drivers' window size (clamped to
  /// kernels::kMaxPrefetchWindow). 0 disables prefetching entirely (the
  /// strict path then runs the legacy per-node loop).
  std::uint32_t prefetch_distance = 16;
};

/// Source-id window of the push stepper's scatter bins: 2^20 nodes = one
/// 1 MiB byte-mirror window, sized to stay L2-resident (2 MiB on the dev
/// container) with headroom for the streaming pair buffers. Larger windows
/// amortize the per-bin overhead; the bin only pays off once the full
/// state array outgrows L2, so the window should be as large as the cache
/// allows. Results are invariant to this constant (outputs are
/// dest-indexed; bins only reorder the internal pair layout). Shared with
/// GraphStepWorkspace::prepare_push.
inline constexpr std::size_t kPushBucketNodes = std::size_t{1} << 20;

struct GraphStepWorkspace {
  /// Current node states (persistent across rounds within one trial).
  std::vector<state_t> nodes;
  /// Next-round node states (double buffer; swapped into nodes each step).
  std::vector<state_t> scratch;
  /// Byte-wide mirror of `nodes` (+ its double buffer), used when the
  /// state space fits one byte (k <= 256): the kernels' random sample
  /// loads then hit a 4x denser, cache-resident array. Same values —
  /// results are unaffected. The sweep writes both widths, so a warm round
  /// needs no refresh pass; `mirror_fresh` says whether nodes8 currently
  /// matches nodes (load_nodes and corrupt_nodes clear it).
  std::vector<std::uint8_t> nodes8;
  std::vector<std::uint8_t> scratch8;
  bool mirror_fresh = false;
  /// Bytes-only memory mode: the byte arrays above ARE the whole node
  /// state and the u32 nodes/scratch arrays are never allocated, so a
  /// trial's state is ~2n bytes instead of ~10n — the difference between
  /// fitting and not fitting n = 10^9 in RAM. Requires k <= 256 and no
  /// adversary (corrupt_nodes edits the u32 array). Results are bitwise
  /// identical: with k <= 256 the kernels already sample from the byte
  /// mirror, and the u32 writes they skip were redundant copies. Set
  /// BEFORE prepare()/load_nodes(); flipping it mid-trial is undefined.
  bool bytes_only = false;
  /// kGraphChunks x k per-chunk partial counts.
  std::vector<count_t> partials;
  /// k-entry reduction of partials (the published next configuration).
  std::vector<count_t> counts;

  // (Batched-mode tile arenas are NOT here: the stage-split pipeline stages
  // each tile in fixed-size stack arrays bounded by
  // kernels_batched::kBatchedWordBudget — per-thread by construction, warm,
  // and invisible to the zero-allocation budget. See step_batched.cpp.)

  // --- Adversary scratch (graph_trials' node-level corruption). ---
  std::vector<count_t> adv_before;       // counts before corruption
  std::vector<count_t> adv_take;         // per-state number of victims
  std::vector<count_t> adv_seen;         // reservoir counters
  std::vector<std::uint64_t> adv_offset; // victim-block prefix sums (k+1)
  std::vector<std::uint64_t> adv_victims;

  /// Sizes every buffer for an (n, k) instance; allocation-free once the
  /// workspace has seen these sizes (buffers only ever grow in capacity).
  void prepare(count_t n, state_t k) {
    PLURALITY_REQUIRE(!bytes_only || k <= 256,
                      "GraphStepWorkspace: bytes-only mode needs k <= 256, got "
                          << static_cast<unsigned>(k));
    if (!bytes_only) {
      nodes.resize(n);
      scratch.resize(n);
    }
    if (k <= 256) {
      // +4 bytes of tail slack: the batched SIMD gathers read the byte
      // mirror through 32-bit lane loads (value masked to the low byte), so
      // an access at id n-1 touches 3 bytes past the last state. Only
      // indices < n are ever addressed.
      nodes8.resize(static_cast<std::size_t>(n) + 4);
      scratch8.resize(static_cast<std::size_t>(n) + 4);
    }
    partials.resize(static_cast<std::size_t>(kGraphChunks) * k);
    counts.resize(k);
  }

  /// Node count the workspace currently holds states for — ws.nodes.size()
  /// normally, the byte array (minus its 4 bytes of SIMD tail slack) in
  /// bytes-only mode. The steppers' "call load_nodes first" checks go
  /// through here so they work in either memory mode.
  [[nodiscard]] std::size_t state_size() const {
    if (!bytes_only) return nodes.size();
    return nodes8.size() >= 4 ? nodes8.size() - 4 : 0;
  }

  // --- Push-mode scratch (step_push.cpp; sized only when Push runs). ---
  /// Per-node sampled source id (phase A output).
  std::vector<std::uint32_t> push_src;
  /// (source << 32 | dest) pairs, bucket-major by source window (phase B).
  std::vector<std::uint64_t> push_pairs;
  /// kGraphChunks x buckets histogram, reused as the placement cursors.
  std::vector<std::uint64_t> push_hist;

  /// Sizes the push-mode buffers (12 bytes/node + the bin histogram);
  /// allocation-free once the workspace has seen this n.
  void prepare_push(count_t n) {
    PLURALITY_REQUIRE(n <= 0xffffffffULL,
                      "push stepper: node ids must fit 32 bits (n=" << n << ")");
    push_src.resize(n);
    push_pairs.resize(n);
    const std::size_t buckets =
        (static_cast<std::size_t>(n) + kPushBucketNodes - 1) / kPushBucketNodes;
    push_hist.resize(static_cast<std::size_t>(kGraphChunks) * buckets);
  }

  /// Extra buffers used only when an adversary is wired in.
  void prepare_adversary(state_t k) {
    adv_before.resize(k);
    adv_take.resize(k);
    adv_seen.resize(k);
    adv_offset.resize(static_cast<std::size_t>(k) + 1);
  }
};

}  // namespace plurality::graph
