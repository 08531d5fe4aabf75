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
// A trial keeps ONE node-state array (plus its double buffer), at the
// narrowest width its state space fits: one byte per node when k <= 256
// (byte_states), u32 otherwise. The width is a function of k alone, so it
// never changes results — the kernels compute in state_t and store at the
// array's width.
//
// Unlike StepWorkspace, the state array is NOT pure scratch: it carries the
// node states across rounds (the graph process is not exchangeable, so the
// count vector is not a sufficient statistic). load_nodes() (re)initializes
// it per trial; everything else is fully rewritten by each step, so
// workspace reuse across trials or dynamics never leaks state. After the
// first step at a given (n, k), a warm round performs zero heap
// allocations (tests/alloc/test_allocation.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/engine_mode.hpp"
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

/// True when a k-state trial stores its node states one byte each (the
/// byte array is then the whole state; beyond 256 states they are u32).
[[nodiscard]] constexpr bool byte_states(state_t k) { return k <= 256; }

/// Read-only view of a trial's node states at either storage width; yields
/// state_t values. Valid until the workspace it views steps or reloads.
class NodeStates {
 public:
  NodeStates(const std::uint8_t* bytes, std::size_t n) : bytes_(bytes), size_(n) {}
  NodeStates(const state_t* wide, std::size_t n) : wide_(wide), size_(n) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  state_t operator[](std::size_t i) const { return bytes_ != nullptr ? bytes_[i] : wide_[i]; }

  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = state_t;
    using difference_type = std::ptrdiff_t;
    using reference = state_t;
    using pointer = void;
    Iterator() = default;
    Iterator(const std::uint8_t* bytes, const state_t* wide, std::size_t i)
        : bytes_(bytes), wide_(wide), i_(i) {}
    state_t operator*() const { return bytes_ != nullptr ? bytes_[i_] : wide_[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) { return {bytes_, wide_, i_++}; }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    const std::uint8_t* bytes_ = nullptr;
    const state_t* wide_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] Iterator begin() const { return {bytes_, wide_, 0}; }
  [[nodiscard]] Iterator end() const { return {bytes_, wide_, size_}; }

  [[nodiscard]] std::vector<state_t> to_vector() const { return {begin(), end()}; }

 private:
  const std::uint8_t* bytes_ = nullptr;
  const state_t* wide_ = nullptr;
  std::size_t size_ = 0;
};

struct GraphStepWorkspace {
  /// Current node states, one byte each, when byte_states(k): the kernels'
  /// random sample loads then hit a dense, cache-resident array. +4 bytes
  /// of tail slack: the batched SIMD gathers read it through 32-bit lane
  /// loads (value masked to the low byte), so an access at id n-1 touches
  /// 3 bytes past the last state. Only indices < n are ever addressed.
  std::vector<std::uint8_t> nodes8;
  /// Next-round byte states (double buffer; swapped into nodes8 each step).
  std::vector<std::uint8_t> scratch8;
  /// Current / next node states as state_t when k > 256; never allocated
  /// for smaller state spaces.
  std::vector<state_t> nodes;
  std::vector<state_t> scratch;
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
    if (byte_states(k)) {
      nodes8.resize(static_cast<std::size_t>(n) + 4);
      scratch8.resize(static_cast<std::size_t>(n) + 4);
    } else {
      nodes.resize(n);
      scratch.resize(n);
    }
    partials.resize(static_cast<std::size_t>(kGraphChunks) * k);
    counts.resize(k);
  }

  /// Node count the workspace holds k-state trial states for (the byte
  /// array minus its tail slack, or the u32 array). The steppers' "call
  /// load_nodes first" checks go through here.
  [[nodiscard]] std::size_t state_size(state_t k) const {
    if (!byte_states(k)) return nodes.size();
    return nodes8.size() >= 4 ? nodes8.size() - 4 : 0;
  }

  /// The current node states of a k-state trial.
  [[nodiscard]] NodeStates states(state_t k) const {
    if (byte_states(k)) return {nodes8.data(), state_size(k)};
    return {nodes.data(), nodes.size()};
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
