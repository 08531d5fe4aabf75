// AVX-512 kernel table of both graph engines. Compiled with
// -mavx512f/dq/bw/vl (CMake adds the flags only when the compiler supports
// them; the whole file additionally self-guards on the macros so a build
// without the flags produces an empty TU). Never entered unless
// simd::detect() saw the ISA at runtime.
//
// BITWISE CONTRACT: every function here must reproduce its scalar path
// exactly. Batched entries: the same Philox words
// (Philox4x32::fill_words<kSamplerRounds> order), the same bounded-bias
// conversion (kernels_batched::scale_word), the same rule algebra. Strict
// lane entries: each lane draws its chunk's xoshiro256++ stream exactly as
// kernels::run_chunk_complete / run_chunk_regular would. The graph tests
// pin both engines with every supported table against the scalar paths;
// any lane-order slip fails loudly.
//
// Philox layout in registers: one "pair" is two zmm of eight 64-bit lanes —
// A holds (c1:c0) and B holds (c3:c2) of blocks b..b+7, so after R rounds A
// IS u64 words {2b, 2b+2, ...} (v0 | v1<<32) and B the matching odd words
// (v2 | v3<<32); one interleave emits 16 stream-ordered words. The per-round
// math stays in 64-bit lanes: vpmuludq gives hi:lo of the 32x32 product in
// one instruction, and a ternlog merges the three-way XOR.
#include "graph/batched_simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

// GCC 12's AVX-512 headers seed _mm512_undefined_* with a self-initialised
// local, and -Wmaybe-uninitialized reports it at every inlined intrinsic
// (GCC bug 105593): 418 warnings on this file. A diagnostic pragma applies
// by source location, so this silences the header text only; code in this
// file still warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

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
  __m512i a;  // words 2b, 2b+2, ... (after emit ordering)
  __m512i b;
};

/// R rounds over blocks blk..blk+7 of (key, domain).
inline Pair philox_pair(std::uint64_t blk, std::uint64_t domain, rng::Philox4x32::Key key) {
  const __m512i m0 = _mm512_set1_epi64(static_cast<long long>(kM0));
  const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(kM1));
  __m512i a = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(blk)),
                               _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  __m512i b = _mm512_set1_epi64(static_cast<long long>(domain));
  std::uint32_t k0 = key.k0, k1 = key.k1;
  for (unsigned r = 0; r < kR; ++r) {
    const __m512i key0 = _mm512_set1_epi64(static_cast<long long>(std::uint64_t{k0}));
    const __m512i key1 = _mm512_set1_epi64(static_cast<long long>(std::uint64_t{k1}));
    const __m512i p0 = _mm512_mul_epu32(m0, a);  // hi0:lo0 of M0 * c0
    const __m512i p1 = _mm512_mul_epu32(m1, b);  // hi1:lo1 of M1 * c2
    // A' = (lo1 << 32) | (hi1 ^ c1 ^ k0);  B' = (lo0 << 32) | (hi0 ^ c3 ^ k1)
    const __m512i na = _mm512_or_si512(
        _mm512_slli_epi64(p1, 32),
        _mm512_ternarylogic_epi64(_mm512_srli_epi64(p1, 32), _mm512_srli_epi64(a, 32),
                                  key0, 0x96));
    const __m512i nb = _mm512_or_si512(
        _mm512_slli_epi64(p0, 32),
        _mm512_ternarylogic_epi64(_mm512_srli_epi64(p0, 32), _mm512_srli_epi64(b, 32),
                                  key1, 0x96));
    a = na;
    b = nb;
    k0 += kW0;
    k1 += kW1;
  }
  return Pair{a, b};
}

/// Reorders a pair into stream order: out lanes = words 2b..2b+15 of the
/// stream (A lane t = word 2(b+t), B lane t = word 2(b+t)+1).
inline void emit_pair(const Pair& p, __m512i& words_lo, __m512i& words_hi) {
  const __m512i u0 = _mm512_unpacklo_epi64(p.a, p.b);  // A0 B0 A2 B2 A4 B4 A6 B6
  const __m512i u1 = _mm512_unpackhi_epi64(p.a, p.b);  // A1 B1 A3 B3 A5 B5 A7 B7
  const __m512i v0 = _mm512_shuffle_i64x2(u0, u1, 0x44);  // A0 B0 A2 B2 | A1 B1 A3 B3
  const __m512i v1 = _mm512_shuffle_i64x2(u0, u1, 0xEE);  // A4 B4 A6 B6 | A5 B5 A7 B7
  const __m512i ord = _mm512_setr_epi64(0, 1, 4, 5, 2, 3, 6, 7);
  words_lo = _mm512_permutexvar_epi64(ord, v0);  // words 2b .. 2b+7
  words_hi = _mm512_permutexvar_epi64(ord, v1);  // words 2b+8 .. 2b+15
}

void fill_words_avx512(rng::Philox4x32::Key key, std::uint64_t domain,
                       std::uint64_t word_lo, std::size_t count, std::uint64_t* out) {
  std::size_t w = 0;
  // Scalar head up to an even word boundary.
  if (count > 0 && (word_lo & 1) != 0) {
    out[w++] = rng::Philox4x32::word<kR>(key, domain, word_lo);
  }
  // 16 words per pair.
  for (; w + 16 <= count; w += 16) {
    const Pair p = philox_pair((word_lo + w) >> 1, domain, key);
    __m512i lo, hi;
    emit_pair(p, lo, hi);
    _mm512_storeu_si512(reinterpret_cast<__m512i*>(out + w), lo);
    _mm512_storeu_si512(reinterpret_cast<__m512i*>(out + w + 8), hi);
  }
  // Scalar tail.
  if (w < count) {
    rng::Philox4x32::fill_words<kR>(key, domain, word_lo + w, count - w, out + w);
  }
}

/// (word * bound) >> 64 for two word zmms (16 u64 lanes total) -> 16 u32
/// indices. bound < 2^32.
inline __m512i scale16(const __m512i& wlo, const __m512i& whi, const __m512i& bound64) {
  const __m512i lo0 = _mm512_mul_epu32(wlo, bound64);
  const __m512i hi0 = _mm512_mul_epu32(_mm512_srli_epi64(wlo, 32), bound64);
  const __m512i idx0 =
      _mm512_srli_epi64(_mm512_add_epi64(hi0, _mm512_srli_epi64(lo0, 32)), 32);
  const __m512i lo1 = _mm512_mul_epu32(whi, bound64);
  const __m512i hi1 = _mm512_mul_epu32(_mm512_srli_epi64(whi, 32), bound64);
  const __m512i idx1 =
      _mm512_srli_epi64(_mm512_add_epi64(hi1, _mm512_srli_epi64(lo1, 32)), 32);
  return _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvtepi64_epi32(idx0)),
                            _mm512_cvtepi64_epi32(idx1), 1);
}

/// Generates the 16 u32 indices of sample plane `s` for nodes
/// [node0, node0+16) (node0 such that the plane's words start block-even).
inline __m512i plane_indices(const FusedArgs& args, unsigned s, std::uint64_t node0) {
  const std::uint64_t w0 = static_cast<std::uint64_t>(s) * args.n_pad + node0;
  const Pair p = philox_pair(w0 >> 1, args.round, args.key);
  __m512i wlo, whi;
  emit_pair(p, wlo, whi);
  const __m512i bound64 = _mm512_set1_epi64(static_cast<long long>(args.bound));
  return scale16(wlo, whi, bound64);
}

/// Gathers the sampled states (u32-widened) for the `live` lanes of 16
/// indices: through the neighbor row on regular graphs, directly on the
/// complete graph. The byte states are padded (GraphStepWorkspace::prepare)
/// so the u32 loads at nodes8 + id stay in bounds; dead lanes load nothing.
template <bool Complete>
inline __m512i gather16(const FusedArgs& args, const __m512i& idx, std::uint64_t node0,
                        __mmask16 live) {
  const __m512i ff = _mm512_set1_epi32(0xff);
  const __m512i zero = _mm512_setzero_si512();
  __m512i target;
  if constexpr (Complete) {
    target = idx;
  } else {
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m512i node =
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(node0)), lane);
    const __m512i addr = _mm512_add_epi32(
        _mm512_mullo_epi32(node, _mm512_set1_epi32(static_cast<int>(args.bound))), idx);
    target = _mm512_mask_i32gather_epi32(zero, live, addr,
                                         reinterpret_cast<const int*>(args.neighbors), 4);
  }
  return _mm512_and_si512(
      _mm512_mask_i32gather_epi32(zero, live, target,
                                  reinterpret_cast<const int*>(args.nodes8), 1),
      ff);
}

/// Passes 1-4 for the `live` lanes of the 16-node block at node0 (16-aligned,
/// so every plane's words start pair-aligned: n_pad is 64-aligned). The
/// words are addressed by node index, so a partial block at a chunk edge
/// computes exactly what the scalar pipeline would for its live nodes.
template <class Tag, bool Complete>
inline void fused_block(const FusedArgs& args, std::uint64_t node0, __mmask16 live) {
  __m512i next;
  if constexpr (std::is_same_v<Tag, MajorityTag>) {
    const __m512i a = gather16<Complete>(args, plane_indices(args, 0, node0), node0, live);
    const __m512i b = gather16<Complete>(args, plane_indices(args, 1, node0), node0, live);
    const __m512i c = gather16<Complete>(args, plane_indices(args, 2, node0), node0, live);
    // select((b == c) & (a != b), b, a)
    const __mmask16 take_b = _mm512_cmpeq_epi32_mask(b, c) & _mm512_cmpneq_epi32_mask(a, b);
    next = _mm512_mask_blend_epi32(take_b, a, b);
  } else if constexpr (std::is_same_v<Tag, VoterTag>) {
    next = gather16<Complete>(args, plane_indices(args, 0, node0), node0, live);
  } else {
    const __m512i seen = gather16<Complete>(args, plane_indices(args, 0, node0), node0, live);
    const __m512i own = _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(live, args.nodes8 + node0));
    const __m512i undecided = _mm512_set1_epi32(static_cast<int>(args.states - 1));
    const __mmask16 keep =
        _mm512_cmpeq_epi32_mask(seen, own) | _mm512_cmpeq_epi32_mask(seen, undecided);
    const __m512i colored = _mm512_mask_blend_epi32(keep, undecided, own);
    const __mmask16 isund = _mm512_cmpeq_epi32_mask(own, undecided);
    next = _mm512_mask_blend_epi32(isund, colored, seen);
  }
  _mm_mask_storeu_epi8(args.out8 + node0, live, _mm512_cvtepi32_epi8(next));
}

template <class Tag, bool Complete>
void fused_kernel(const FusedArgs& args) {
  const std::uint64_t end = args.base + args.count;
  // Whole 16-aligned blocks; the chunk's unaligned edges become masked
  // blocks whose dead lanes neither load nor store.
  for (std::uint64_t node0 = args.base & ~std::uint64_t{15}; node0 < end; node0 += 16) {
    const unsigned lo = static_cast<unsigned>(std::max(node0, args.base) - node0);
    const unsigned hi = static_cast<unsigned>(std::min(node0 + 16, end) - node0);
    const auto live = static_cast<__mmask16>(((1u << hi) - 1) & ~((1u << lo) - 1));
    fused_block<Tag, Complete>(args, node0, live);
  }
}

// --- Strict lane kernels: eight xoshiro256++ streams in lockstep. --------

/// One xoshiro256++ step on raw state words — rng::Xoshiro256pp's
/// operator(), restated here so no shared inline copy is instantiated in
/// this TU (see batched_simd_common.hpp).
std::uint64_t xoshiro_next(std::uint64_t* s) {
  const auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// Finishes a Lemire draw whose first product had low < bound: exactly the
/// rejection loop of kernels::uniform_below, continued on one lane's state
/// `s` (already advanced past the first draw). Returns the drawn index.
std::uint64_t lemire_redo(std::uint64_t* s, std::uint64_t low, std::uint64_t high,
                          std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  while (low < threshold) {
    const __uint128_t m = static_cast<__uint128_t>(xoshiro_next(s)) * bound;
    low = static_cast<std::uint64_t>(m);
    high = static_cast<std::uint64_t>(m >> 64);
  }
  return high;
}

/// Eight xoshiro256++ states, word w of lane l in lane l of s[w].
struct Xoshiro8 {
  __m512i s[4];
};

inline __m512i next8(Xoshiro8& g) {
  const __m512i result =
      _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(g.s[0], g.s[3]), 23), g.s[0]);
  const __m512i t = _mm512_slli_epi64(g.s[1], 17);
  g.s[2] = _mm512_xor_si512(g.s[2], g.s[0]);
  g.s[3] = _mm512_xor_si512(g.s[3], g.s[1]);
  g.s[1] = _mm512_xor_si512(g.s[1], g.s[2]);
  g.s[0] = _mm512_xor_si512(g.s[0], g.s[3]);
  g.s[2] = _mm512_xor_si512(g.s[2], t);
  g.s[3] = _mm512_rol_epi64(g.s[3], 45);
  return result;
}

/// The rejecting lanes of a Lemire draw finish it scalar, each on its own
/// state (rare: probability bound / 2^64 per draw).
[[gnu::noinline, gnu::cold]] void redo_rejected(Xoshiro8& g, __mmask8 rejected,
                                               const __m512i& low, std::uint64_t bound,
                                               __m512i& high) {
  alignas(64) std::uint64_t words[4][8];
  alignas(64) std::uint64_t lows[8];
  alignas(64) std::uint64_t highs[8];
  for (unsigned w = 0; w < 4; ++w) _mm512_store_si512(words[w], g.s[w]);
  _mm512_store_si512(lows, low);
  _mm512_store_si512(highs, high);
  for (unsigned l = 0; l < 8; ++l) {
    if (((rejected >> l) & 1u) == 0) continue;
    std::uint64_t s[4] = {words[0][l], words[1][l], words[2][l], words[3][l]};
    highs[l] = lemire_redo(s, lows[l], highs[l], bound);
    for (unsigned w = 0; w < 4; ++w) words[w][l] = s[w];
  }
  for (unsigned w = 0; w < 4; ++w) g.s[w] = _mm512_load_si512(words[w]);
  high = _mm512_load_si512(highs);
}

/// kernels::uniform_below in every lane: the high word of x * bound, with
/// exact rejection (bound < 2^32, so the 64x32 product splits into two
/// 32x32 multiplies without carry loss).
inline __m512i uniform_below8(Xoshiro8& g, const __m512i& bound, std::uint64_t bound64) {
  const __m512i x = next8(g);
  const __m512i p_lo = _mm512_mul_epu32(x, bound);
  const __m512i p_hi = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), bound);
  __m512i high = _mm512_srli_epi64(_mm512_add_epi64(p_hi, _mm512_srli_epi64(p_lo, 32)), 32);
  const __m512i low = _mm512_add_epi64(_mm512_slli_epi64(p_hi, 32), p_lo);
  const __mmask8 rejected = _mm512_cmplt_epu64_mask(low, bound);
  if (rejected != 0) [[unlikely]] redo_rejected(g, rejected, low, bound64, high);
  return high;
}

/// Byte (j*8 + l) -> byte (l*8 + j) of an 8x8 byte matrix: lane-per-step
/// rows become node-run-per-lane rows and back (an involution).
inline __m512i transpose8x8(const __m512i& x) {
  const __m512i pairs = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
  alignas(64) static constexpr std::uint16_t kWords[32] = {
      0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 18, 26, 3, 11, 19, 27,
      4, 12, 20, 28, 5, 13, 21, 29, 6, 14, 22, 30, 7, 15, 23, 31};
  return _mm512_permutexvar_epi16(_mm512_load_si512(kWords), _mm512_shuffle_epi8(x, pairs));
}

/// The sampled states (u32-widened) at 8 drawn indices.
template <bool Complete>
inline __m256i sample8(const LaneArgs& args, const __m512i& idx, const __m512i& row) {
  __m512i target;
  if constexpr (Complete) {
    target = idx;
  } else {
    target = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(
        _mm512_add_epi64(row, idx), reinterpret_cast<const int*>(args.neighbors), 4));
  }
  return _mm256_and_si256(
      _mm512_i64gather_epi32(target, reinterpret_cast<const int*>(args.nodes8), 1),
      _mm256_set1_epi32(0xff));
}

template <class Tag, bool Complete>
void lane_kernel(const LaneArgs& args) {
  Xoshiro8 g;
  for (unsigned w = 0; w < 4; ++w) g.s[w] = _mm512_loadu_si512(args.state + kStrictLanes * w);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(args.bound));
  // Lane l's current node, and (regular graphs) its neighbor-row offset.
  __m512i node = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(args.first)),
      _mm512_mullo_epi64(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm512_set1_epi64(static_cast<long long>(args.stride))));
  __m512i row = _mm512_mullo_epi64(node, bound);
  alignas(64) std::uint8_t own[64];   // own[j*8 + l]: lane l's state at step j
  alignas(64) std::uint8_t tile[64];  // tile[j*8 + l]: lane l's next state at step j
  for (std::size_t j0 = 0; j0 < args.steps; j0 += kLaneBlock) {
    if constexpr (std::is_same_v<Tag, UndecidedTag>) {
      _mm512_store_si512(own, transpose8x8(_mm512_i64gather_epi64(node, args.nodes8, 1)));
    }
    for (unsigned j = 0; j < kLaneBlock; ++j) {
      __m256i next;
      if constexpr (std::is_same_v<Tag, MajorityTag>) {
        const __m256i a = sample8<Complete>(args, uniform_below8(g, bound, args.bound), row);
        const __m256i b = sample8<Complete>(args, uniform_below8(g, bound, args.bound), row);
        const __m256i c = sample8<Complete>(args, uniform_below8(g, bound, args.bound), row);
        const __mmask8 take_b = _mm256_cmpeq_epi32_mask(b, c) & _mm256_cmpneq_epi32_mask(a, b);
        next = _mm256_mask_blend_epi32(take_b, a, b);
      } else if constexpr (std::is_same_v<Tag, VoterTag>) {
        next = sample8<Complete>(args, uniform_below8(g, bound, args.bound), row);
      } else {
        const __m256i mine = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(own + 8 * j)));
        const __m256i seen = sample8<Complete>(args, uniform_below8(g, bound, args.bound), row);
        const __m256i undecided = _mm256_set1_epi32(static_cast<int>(args.states - 1));
        const __mmask8 keep =
            _mm256_cmpeq_epi32_mask(seen, mine) | _mm256_cmpeq_epi32_mask(seen, undecided);
        const __m256i colored = _mm256_mask_blend_epi32(keep, undecided, mine);
        const __mmask8 isund = _mm256_cmpeq_epi32_mask(mine, undecided);
        next = _mm256_mask_blend_epi32(isund, colored, seen);
      }
      _mm_storel_epi64(reinterpret_cast<__m128i*>(tile + 8 * j), _mm256_cvtepi32_epi8(next));
      if constexpr (!Complete) row = _mm512_add_epi64(row, bound);
    }
    // Publish: lane l's kLaneBlock next states are one contiguous run.
    alignas(64) std::uint64_t runs[8];
    _mm512_store_si512(runs, transpose8x8(_mm512_load_si512(tile)));
    for (unsigned l = 0; l < 8; ++l) {
      const std::uint64_t at = args.first + l * args.stride + j0;
      __builtin_memcpy(args.out8 + at, &runs[l], 8);
    }
    node = _mm512_add_epi64(node, _mm512_set1_epi64(static_cast<long long>(kLaneBlock)));
  }
  for (unsigned w = 0; w < 4; ++w) _mm512_storeu_si512(args.state + kStrictLanes * w, g.s[w]);
}

void count_u8_avx512(const std::uint8_t* data, std::size_t lo, std::size_t hi, state_t k,
                     count_t* local) {
  for (state_t j = 0; j < k; ++j) {
    const __m512i needle = _mm512_set1_epi8(static_cast<char>(j));
    count_t c = 0;
    std::size_t i = lo;
    for (; i + 64 <= hi; i += 64) {
      const __m512i v = _mm512_loadu_si512(reinterpret_cast<const __m512i*>(data + i));
      c += static_cast<count_t>(__builtin_popcountll(
          static_cast<std::uint64_t>(_mm512_cmpeq_epi8_mask(v, needle))));
    }
    for (; i < hi; ++i) c += (data[i] == static_cast<std::uint8_t>(j));
    local[j] += c;
  }
}

const Ops kAvx512Ops = {
    "avx512",
    &fill_words_avx512,
    &fused_kernel<MajorityTag, false>,
    &fused_kernel<VoterTag, false>,
    &fused_kernel<UndecidedTag, false>,
    &fused_kernel<MajorityTag, true>,
    &fused_kernel<VoterTag, true>,
    &fused_kernel<UndecidedTag, true>,
    &count_u8_avx512,
    &lane_kernel<MajorityTag, false>,
    &lane_kernel<VoterTag, false>,
    &lane_kernel<UndecidedTag, false>,
    &lane_kernel<MajorityTag, true>,
    &lane_kernel<VoterTag, true>,
    &lane_kernel<UndecidedTag, true>,
};

}  // namespace

const Ops* avx512_ops() { return &kAvx512Ops; }

}  // namespace plurality::graph::simd

#endif  // AVX512 macros
