// SIMD fast paths of both graph engines — interface only (no intrinsics
// here; implementations live in batched_simd_avx512.cpp /
// batched_simd_avx2.cpp, each compiled with its own ISA flags and selected
// at RUNTIME via __builtin_cpu_supports, so one binary runs correctly on
// any x86-64 host and other architectures fall back to the scalar paths).
//
// Every function here is bitwise-equivalent to a scalar path: the batched
// entries to the passes of kernels_batched.hpp (same Philox words, same
// bounded-bias conversion, same rule algebra), the strict lane entries to
// kernels.hpp's run_chunk_complete / run_chunk_regular (same xoshiro256++
// draws per chunk stream, same exact Lemire bound, same rule). Pinned by
// tests/graph/test_graph_batched.cpp and tests/graph/test_graph_strict.cpp,
// which run every table the host supports against the scalar paths. SIMD
// availability can therefore never change results, only speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/philox.hpp"
#include "support/types.hpp"

namespace plurality::graph::simd {

/// Arguments of a fused kernel invocation: passes 1-4 for `count` nodes
/// [base, base+count) of one chunk, byte states.
struct FusedArgs {
  rng::Philox4x32::Key key;
  std::uint64_t round;           // Philox counter domain
  std::uint64_t n_pad;           // padded node count of the word layout
  const std::uint32_t* neighbors;  // regular CSR rows; nullptr on the clique
  std::uint64_t bound;           // degree (regular) or n (complete)
  const std::uint8_t* nodes8;    // current states
  std::uint8_t* out8;            // next states (double buffer)
  std::uint64_t base;            // first node (global id)
  std::size_t count;
  state_t states;                // state-space size (undecided rule uses k-1)
};

/// Node block of the strict lane kernels: LaneArgs::steps is a multiple of
/// it (the kernels transpose one block of lane results per store).
inline constexpr std::size_t kLaneBlock = 8;

/// Streams per strict lane kernel call: one per 64-bit AVX-512 lane.
inline constexpr unsigned kStrictLanes = 8;

/// Arguments of a strict lane kernel: kStrictLanes consecutive
/// (round, chunk) xoshiro256++ streams stepped in lockstep.
/// Lane l owns nodes [first + l*stride, first + l*stride + steps) and draws
/// them exactly as kernels::run_chunk_complete / run_chunk_regular would
/// from the same generator state.
struct LaneArgs {
  std::uint64_t* state;            // 4 x kStrictLanes state words, word-major: word w
                                   // of lane l at state[w*kStrictLanes + l]; advanced
                                   // in place
  std::uint64_t first;             // lane 0's first node
  std::uint64_t stride;            // node distance between consecutive lanes
  std::size_t steps;               // nodes per lane, a multiple of kLaneBlock
  const std::uint32_t* neighbors;  // regular CSR rows; nullptr on the clique
  std::uint64_t bound;             // degree (regular) or n (complete); < 2^32
  const std::uint8_t* nodes8;      // current states
  std::uint8_t* out8;              // next states (double buffer)
  state_t states;                  // state-space size (undecided rule uses k-1)
};

/// One ISA's kernel table. Null entries mean "no fused variant — use the
/// scalar pipeline for that stage/rule".
struct Ops {
  const char* name;  // "avx512" / "avx2" (diagnostics)
  /// Pass-1 block fill (R = kernels_batched::kSamplerRounds), bitwise equal
  /// to Philox4x32::fill_words<kSamplerRounds>.
  void (*fill_words)(rng::Philox4x32::Key key, std::uint64_t domain,
                     std::uint64_t word_lo, std::size_t count, std::uint64_t* out);
  // Fused generate+convert+gather+apply, degree-uniform CSR topology.
  void (*fused_regular_majority)(const FusedArgs& args);
  void (*fused_regular_voter)(const FusedArgs& args);
  void (*fused_regular_undecided)(const FusedArgs& args);
  // Fused variants on the implicit complete graph.
  void (*fused_complete_majority)(const FusedArgs& args);
  void (*fused_complete_voter)(const FusedArgs& args);
  void (*fused_complete_undecided)(const FusedArgs& args);
  /// Per-class byte count (k <= 16): local[j] += |{i in [lo,hi): data[i]==j}|.
  void (*count_u8)(const std::uint8_t* data, std::size_t lo, std::size_t hi,
                   state_t k, count_t* local);
  // Strict-engine lane kernels (byte states), degree-uniform CSR topology;
  // AVX-512 only (the AVX2 table leaves them null).
  void (*strict_regular_majority)(const LaneArgs& args);
  void (*strict_regular_voter)(const LaneArgs& args);
  void (*strict_regular_undecided)(const LaneArgs& args);
  // The same on the implicit complete graph.
  void (*strict_complete_majority)(const LaneArgs& args);
  void (*strict_complete_voter)(const LaneArgs& args);
  void (*strict_complete_undecided)(const LaneArgs& args);
};

/// The best kernel table this host supports, or nullptr (non-x86, old CPU,
/// or the library was built without the ISA TUs). Detection runs once.
const Ops* detect();

/// Every kernel table this host can execute, best first (detect() is the
/// front; empty when detect() is nullptr).
std::span<const Ops* const> supported();

/// The table both graph engines step with: detect(), unless a
/// ScopedSelection chose another. nullptr means the scalar paths.
const Ops* active();

/// Test hook (single-threaded setup only): while alive, active() returns
/// `ops` — nullptr for the scalar paths, or one of supported() — so tests
/// can pin every table against the scalar paths. Restores the previous
/// choice on destruction.
class ScopedSelection {
 public:
  explicit ScopedSelection(const Ops* ops);
  ~ScopedSelection();
  ScopedSelection(const ScopedSelection&) = delete;
  ScopedSelection& operator=(const ScopedSelection&) = delete;

 private:
  const Ops* previous_;
};

}  // namespace plurality::graph::simd
