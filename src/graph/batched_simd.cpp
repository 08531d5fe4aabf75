// Runtime ISA detection for the graph engines' SIMD fast paths.
//
// The ISA-specific kernel tables live in their own translation units
// (batched_simd_avx512.cpp / batched_simd_avx2.cpp) compiled with the
// matching -m flags; THIS file is compiled with the project's portable
// flags and decides, once, which tables the host can actually execute. That
// split is what keeps one binary correct everywhere: no AVX instruction
// exists outside the guarded TUs, and those are only entered after
// __builtin_cpu_supports says the host has the ISA.
#include "graph/batched_simd.hpp"

#include <array>
#include <atomic>

namespace plurality::graph::simd {

#if defined(PLURALITY_SIMD_AVX512)
const Ops* avx512_ops();  // defined in batched_simd_avx512.cpp
#endif
#if defined(PLURALITY_SIMD_AVX2)
const Ops* avx2_ops();  // defined in batched_simd_avx2.cpp
#endif

namespace {

struct Supported {
  std::array<const Ops*, 2> tables{};
  std::size_t count = 0;
};

Supported probe() {
  Supported out;
#if defined(__x86_64__) || defined(_M_X64)
#if defined(PLURALITY_SIMD_AVX512)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    out.tables[out.count++] = avx512_ops();
  }
#endif
#if defined(PLURALITY_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    out.tables[out.count++] = avx2_ops();
  }
#endif
#endif
  return out;
}

const Supported& host() {
  static const Supported tables = probe();
  return tables;
}

// Address that tells active() to answer detect(); any other value is a
// ScopedSelection's choice (nullptr included).
constexpr Ops kUseDetect{};
std::atomic<const Ops*> g_selected{&kUseDetect};

}  // namespace

const Ops* detect() {
  const Supported& s = host();
  return s.count > 0 ? s.tables[0] : nullptr;
}

std::span<const Ops* const> supported() {
  const Supported& s = host();
  return {s.tables.data(), s.count};
}

const Ops* active() {
  const Ops* selected = g_selected.load(std::memory_order_relaxed);
  return selected == &kUseDetect ? detect() : selected;
}

ScopedSelection::ScopedSelection(const Ops* ops)
    : previous_(g_selected.exchange(ops, std::memory_order_relaxed)) {}

ScopedSelection::~ScopedSelection() { g_selected.store(previous_, std::memory_order_relaxed); }

}  // namespace plurality::graph::simd
