// AVX2 kernel table of the batched pipeline — the half-width port of
// batched_simd_avx512.cpp (8 nodes per step instead of 16; blends replace
// mask registers, byte-shuffles replace vpmovdb). Same bitwise contract:
// identical Philox words, identical bounded-bias conversion, identical rule
// algebra as the scalar pipeline. It has no strict lane kernels: four
// 64-bit lanes lost to the scalar chunk path's prefetch windows once the
// byte states left L2 (docs/performance.md), so the strict engine steps
// scalar on AVX2 hosts. Selected by simd::detect() on hosts with AVX2 but
// not the AVX-512 subset we target; the graph tests run it on AVX-512
// hosts too.
#include "graph/batched_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "graph/batched_simd_common.hpp"
#include "graph/kernels_batched.hpp"

namespace plurality::graph::simd {
namespace {

namespace kb = graph::kernels_batched;
constexpr unsigned kR = kb::kSamplerRounds;

constexpr std::uint64_t kM0 = 0xD2511F53ULL;
constexpr std::uint64_t kM1 = 0xCD9E8D57ULL;
constexpr std::uint32_t kW0 = 0x9E3779B9u;
constexpr std::uint32_t kW1 = 0xBB67AE85u;

struct Pair {
  __m256i a;
  __m256i b;
};

/// kR rounds over blocks blk..blk+3 (4 u64 lanes; A = c1:c0, B = c3:c2).
inline Pair philox_pair(std::uint64_t blk, std::uint64_t domain, rng::Philox4x32::Key key) {
  const __m256i m0 = _mm256_set1_epi64x(static_cast<long long>(kM0));
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(kM1));
  __m256i a = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(blk)),
                               _mm256_setr_epi64x(0, 1, 2, 3));
  __m256i b = _mm256_set1_epi64x(static_cast<long long>(domain));
  std::uint32_t k0 = key.k0, k1 = key.k1;
  for (unsigned r = 0; r < kR; ++r) {
    const __m256i key0 = _mm256_set1_epi64x(static_cast<long long>(std::uint64_t{k0}));
    const __m256i key1 = _mm256_set1_epi64x(static_cast<long long>(std::uint64_t{k1}));
    const __m256i p0 = _mm256_mul_epu32(m0, a);
    const __m256i p1 = _mm256_mul_epu32(m1, b);
    const __m256i na = _mm256_or_si256(
        _mm256_slli_epi64(p1, 32),
        _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32),
                                          _mm256_srli_epi64(a, 32)),
                         key0));
    const __m256i nb = _mm256_or_si256(
        _mm256_slli_epi64(p0, 32),
        _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32),
                                          _mm256_srli_epi64(b, 32)),
                         key1));
    a = na;
    b = nb;
    k0 += kW0;
    k1 += kW1;
  }
  return Pair{a, b};
}

/// Pair -> stream-ordered words 2b..2b+3 and 2b+4..2b+7.
inline void emit_pair(const Pair& p, __m256i& words_lo, __m256i& words_hi) {
  const __m256i u0 = _mm256_unpacklo_epi64(p.a, p.b);  // A0 B0 | A2 B2
  const __m256i u1 = _mm256_unpackhi_epi64(p.a, p.b);  // A1 B1 | A3 B3
  words_lo = _mm256_permute2x128_si256(u0, u1, 0x20);  // A0 B0 A1 B1
  words_hi = _mm256_permute2x128_si256(u0, u1, 0x31);  // A2 B2 A3 B3
}

void fill_words_avx2(rng::Philox4x32::Key key, std::uint64_t domain,
                     std::uint64_t word_lo, std::size_t count, std::uint64_t* out) {
  std::size_t w = 0;
  if (count > 0 && (word_lo & 1) != 0) {
    out[w++] = rng::Philox4x32::word<kR>(key, domain, word_lo);
  }
  for (; w + 8 <= count; w += 8) {
    const Pair p = philox_pair((word_lo + w) >> 1, domain, key);
    __m256i lo, hi;
    emit_pair(p, lo, hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w + 4), hi);
  }
  if (w < count) {
    rng::Philox4x32::fill_words<kR>(key, domain, word_lo + w, count - w, out + w);
  }
}

/// (word * bound) >> 64 over two word ymms (8 u64 lanes) -> 8 u32 indices.
inline __m256i scale8(const __m256i& wlo, const __m256i& whi, const __m256i& bound64) {
  const auto high32 = [&](const __m256i& words) {
    const __m256i lo = _mm256_mul_epu32(words, bound64);
    const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(words, 32), bound64);
    return _mm256_srli_epi64(_mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)), 32);
  };
  const __m256i idx0 = high32(wlo);  // dwords [x0 0 x1 0 | x2 0 x3 0]
  const __m256i idx1 = high32(whi);
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i c0 = _mm256_permutevar8x32_epi32(idx0, pick);  // [x0..x3 | x0..x3]
  const __m256i c1 = _mm256_permutevar8x32_epi32(idx1, pick);
  return _mm256_permute2x128_si256(c0, c1, 0x20);  // [x0..x3 y0..y3]
}

inline __m256i plane_indices(const FusedArgs& args, unsigned s, std::uint64_t node0) {
  const std::uint64_t w0 = static_cast<std::uint64_t>(s) * args.n_pad + node0;
  const Pair p = philox_pair(w0 >> 1, args.round, args.key);
  __m256i wlo, whi;
  emit_pair(p, wlo, whi);
  return scale8(wlo, whi, _mm256_set1_epi64x(static_cast<long long>(args.bound)));
}

/// Gathers the sampled states (u32-widened) for the `live` lanes (all-ones
/// dwords) of 8 indices; dead lanes load nothing.
template <bool Complete>
inline __m256i gather8(const FusedArgs& args, const __m256i& idx, std::uint64_t node0,
                       const __m256i& live) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i target;
  if constexpr (Complete) {
    target = idx;
  } else {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i node = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(node0)), lane);
    const __m256i addr = _mm256_add_epi32(
        _mm256_mullo_epi32(node, _mm256_set1_epi32(static_cast<int>(args.bound))), idx);
    target = _mm256_mask_i32gather_epi32(zero, reinterpret_cast<const int*>(args.neighbors),
                                         addr, live, 4);
  }
  return _mm256_and_si256(
      _mm256_mask_i32gather_epi32(zero, reinterpret_cast<const int*>(args.nodes8), target,
                                  live, 1),
      _mm256_set1_epi32(0xff));
}

/// Packs 8 u32 lane values (< 256) into 8 bytes (lane order).
inline std::uint64_t pack_bytes8(const __m256i& v) {
  const __m256i shuf = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, -1, -1, -1);
  const __m256i packed = _mm256_shuffle_epi8(v, shuf);
  const std::uint32_t lo =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(packed)));
  const std::uint32_t hi =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm256_extracti128_si256(packed, 1)));
  return static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
}

/// Branch-free select in ymm lanes: mask ? x : y with full-lane masks.
inline __m256i blend_mask(const __m256i& mask, const __m256i& x, const __m256i& y) {
  return _mm256_blendv_epi8(y, x, mask);
}

/// Passes 1-4 for lanes [lo, hi) of the 8-node block at node0 (8-aligned,
/// so every plane's words start pair-aligned: n_pad is 64-aligned). The
/// words are addressed by node index, so a partial block at a chunk edge
/// computes exactly what the scalar pipeline would for its live nodes.
template <class Tag, bool Complete>
inline void fused_block(const FusedArgs& args, std::uint64_t node0, unsigned lo,
                        unsigned hi) {
  const bool whole = lo == 0 && hi == 8;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i live = _mm256_andnot_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lo)), lane),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lane));
  __m256i next;
  if constexpr (std::is_same_v<Tag, MajorityTag>) {
    const __m256i a = gather8<Complete>(args, plane_indices(args, 0, node0), node0, live);
    const __m256i b = gather8<Complete>(args, plane_indices(args, 1, node0), node0, live);
    const __m256i c = gather8<Complete>(args, plane_indices(args, 2, node0), node0, live);
    const __m256i take_b =
        _mm256_andnot_si256(_mm256_cmpeq_epi32(a, b), _mm256_cmpeq_epi32(b, c));
    next = blend_mask(take_b, b, a);
  } else if constexpr (std::is_same_v<Tag, VoterTag>) {
    next = gather8<Complete>(args, plane_indices(args, 0, node0), node0, live);
  } else {
    const __m256i seen = gather8<Complete>(args, plane_indices(args, 0, node0), node0, live);
    std::uint64_t own_bytes = 0;
    if (whole) {
      __builtin_memcpy(&own_bytes, args.nodes8 + node0, 8);
    } else {
      for (unsigned l = lo; l < hi; ++l) {
        own_bytes |= static_cast<std::uint64_t>(args.nodes8[node0 + l]) << (8 * l);
      }
    }
    const __m256i own =
        _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<long long>(own_bytes)));
    const __m256i undecided = _mm256_set1_epi32(static_cast<int>(args.states - 1));
    const __m256i keep = _mm256_or_si256(_mm256_cmpeq_epi32(seen, own),
                                         _mm256_cmpeq_epi32(seen, undecided));
    const __m256i colored = blend_mask(keep, own, undecided);
    const __m256i isund = _mm256_cmpeq_epi32(own, undecided);
    next = blend_mask(isund, seen, colored);
  }
  const std::uint64_t bytes = pack_bytes8(next);
  if (whole) {
    __builtin_memcpy(args.out8 + node0, &bytes, 8);
  } else {
    for (unsigned l = lo; l < hi; ++l) {
      args.out8[node0 + l] = static_cast<std::uint8_t>(bytes >> (8 * l));
    }
  }
}

template <class Tag, bool Complete>
void fused_kernel(const FusedArgs& args) {
  const std::uint64_t end = args.base + args.count;
  // Whole 8-aligned blocks; the chunk's unaligned edges become partial
  // blocks whose dead lanes neither load nor store.
  for (std::uint64_t node0 = args.base & ~std::uint64_t{7}; node0 < end; node0 += 8) {
    const auto lo = static_cast<unsigned>(std::max(node0, args.base) - node0);
    const auto hi = static_cast<unsigned>(std::min(node0 + 8, end) - node0);
    fused_block<Tag, Complete>(args, node0, lo, hi);
  }
}

void count_u8_avx2(const std::uint8_t* data, std::size_t lo, std::size_t hi, state_t k,
                   count_t* local) {
  for (state_t j = 0; j < k; ++j) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(j));
    count_t c = 0;
    std::size_t i = lo;
    for (; i + 32 <= hi; i += 32) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
      c += static_cast<count_t>(__builtin_popcount(static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)))));
    }
    for (; i < hi; ++i) c += (data[i] == static_cast<std::uint8_t>(j));
    local[j] += c;
  }
}

const Ops kAvx2Ops = {
    "avx2",
    &fill_words_avx2,
    &fused_kernel<MajorityTag, false>,
    &fused_kernel<VoterTag, false>,
    &fused_kernel<UndecidedTag, false>,
    &fused_kernel<MajorityTag, true>,
    &fused_kernel<VoterTag, true>,
    &fused_kernel<UndecidedTag, true>,
    &count_u8_avx2,
    // No strict lane kernels (see the file comment): the scalar chunk path.
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace plurality::graph::simd

#endif  // __AVX2__
