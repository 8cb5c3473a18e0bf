// AVX-512 backend: eight 64-bit words (512 examples) per step.
//
// The Shannon mux collapses to a single vpternlogq per table level, and the
// Adaboost reweight blend uses the native 8-bit lane masks. As with AVX2,
// everything is exact bitwise logic or elementwise IEEE multiplies, so the
// results are bit-identical to scalar64. Ragged tails fall through to the
// shared scalar bodies, except lut_reduce's: its one-word ranges (a
// serving window) and sub-block tails vectorize across table entries
// instead of across words. Compiled with -mavx512f -mavx512bw -mavx512vl and
// dispatched at runtime in word_backend.cpp.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX512)

#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm512_undefined_epi32() is self-initialized (__Y = __Y), which
// trips -Wmaybe-uninitialized through _mm512_andnot_si512 and
// -Wuninitialized through _mm512_extracti64x4_epi64 (GCC PR105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#include <immintrin.h>

#include "util/word_backend_impl.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 8;  // 64-bit words per __m512i

// vpternlogq imm for "x ? f1 : f0" with operands (f0, f1, x): the index is
// (f0_bit << 2) | (f1_bit << 1) | x_bit, so the truth table is 0b11011000.
constexpr int kMuxImm = 0xD8;

inline __m512i mux(__m512i f0, __m512i f1, __m512i x) {
  return _mm512_ternarylogic_epi64(f0, f1, x, kMuxImm);
}

// One output word of an Arity-input table (3 <= Arity <= 8) with the
// reduction vectorized across table entries instead of across words: the
// serving window's one-word ranges and every range's sub-block tail. The
// contiguous-halves order of word_impl::shannon_reduce (top address bit
// first) folds zmm pairs down to one zmm of 8 entries, then the ymm and
// xmm halves, then one scalar mux — 2^Arity - 1 muxes in about
// 2^(Arity-3) + 3 instructions, all exact bitwise logic.
template <std::size_t Arity>
std::uint64_t reduce_one_word(const std::uint64_t* splat,
                              const std::uint64_t* in) {
  static_assert(Arity >= 3 && Arity <= 8);
  constexpr std::size_t kVectors = (std::size_t{1} << Arity) / kBlock;
  __m512i v[kVectors];
  for (std::size_t k = 0; k < kVectors; ++k) {
    v[k] = _mm512_loadu_si512(splat + k * kBlock);
  }
  std::size_t bit = Arity - 1;
  for (std::size_t n = kVectors / 2; n >= 1; n /= 2, --bit) {
    const __m512i x = _mm512_set1_epi64(static_cast<long long>(in[bit]));
    for (std::size_t k = 0; k < n; ++k) v[k] = mux(v[k], v[k + n], x);
  }
  const __m256i quad = _mm256_ternarylogic_epi64(
      _mm512_castsi512_si256(v[0]), _mm512_extracti64x4_epi64(v[0], 1),
      _mm256_set1_epi64x(static_cast<long long>(in[2])), kMuxImm);
  const __m128i pair = _mm_ternarylogic_epi64(
      _mm256_castsi256_si128(quad), _mm256_extracti128_si256(quad, 1),
      _mm_set1_epi64x(static_cast<long long>(in[1])), kMuxImm);
  const auto lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(pair));
  const auto hi = static_cast<std::uint64_t>(_mm_extract_epi64(pair, 1));
  return lo ^ ((lo ^ hi) & in[0]);
}

template <std::size_t Arity>
void lut_reduce_words(const std::uint64_t* splat,
                      const std::uint64_t* const* columns, std::size_t base,
                      std::size_t word_begin, std::size_t word_end,
                      std::uint64_t* out) {
  std::uint64_t in[Arity];
  for (std::size_t w = word_begin; w < word_end; ++w) {
    for (std::size_t j = 0; j < Arity; ++j) in[j] = columns[j][w - base];
    out[w - word_begin] = reduce_one_word<Arity>(splat, in);
  }
}

// Word-at-a-time lut_reduce: the entry-vectorized kernel for arities 3-8,
// the shared scalar body otherwise.
void lut_reduce_words_avx512(const std::uint64_t* splat, std::size_t arity,
                             const std::uint64_t* const* columns,
                             std::size_t base, std::size_t word_begin,
                             std::size_t word_end, std::uint64_t* out) {
  using Kernel = void (*)(const std::uint64_t*, const std::uint64_t* const*,
                          std::size_t, std::size_t, std::size_t,
                          std::uint64_t*);
  static constexpr Kernel kKernels[] = {
      lut_reduce_words<3>, lut_reduce_words<4>, lut_reduce_words<5>,
      lut_reduce_words<6>, lut_reduce_words<7>, lut_reduce_words<8>};
  if (arity >= 3 && arity - 3 < sizeof(kKernels) / sizeof(kKernels[0])) {
    kKernels[arity - 3](splat, columns, base, word_begin, word_end, out);
    return;
  }
  word_impl::lut_reduce(splat, arity, columns, base, word_begin, word_end,
                        out);
}

void lut_reduce_avx512(const std::uint64_t* splat, std::size_t arity,
                       const std::uint64_t* const* columns, std::size_t base,
                       std::size_t word_begin, std::size_t word_end,
                       std::uint64_t* out) {
  const std::size_t n_words = word_end - word_begin;
  const std::size_t blocks = n_words / kBlock;
  if (blocks == 0) {
    lut_reduce_words_avx512(splat, arity, columns, base, word_begin, word_end,
                            out);
    return;
  }
  // Per-thread, 64-byte-aligned word scratch (word_impl::ScratchWords),
  // one vector per kBlock words.
  static thread_local word_impl::ScratchWords vsplat_buf;
  static thread_local word_impl::ScratchWords scratch_buf;
  const std::size_t table_size = std::size_t{1} << arity;
  std::uint64_t* vsplat =
      word_impl::scratch_words(vsplat_buf, table_size * kBlock);
  for (std::size_t a = 0; a < table_size; ++a) {
    for (std::size_t l = 0; l < kBlock; ++l) {
      vsplat[a * kBlock + l] = splat[a];
    }
  }
  const std::size_t half = arity == 0 ? 0 : table_size / 2;
  std::uint64_t* scratch =
      word_impl::scratch_words(scratch_buf, half * kBlock);
  auto at = [](const std::uint64_t* v, std::size_t k) {
    return _mm512_load_si512(v + k * kBlock);
  };

  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t w = word_begin + blk * kBlock;
    if (arity == 0) {
      _mm512_storeu_si512(out + blk * kBlock, at(vsplat, 0));
      continue;
    }
    std::size_t h = half;
    const __m512i x0 = _mm512_loadu_si512(columns[0] + (w - base));
    for (std::size_t k = 0; k < h; ++k) {
      _mm512_store_si512(scratch + k * kBlock,
                         mux(at(vsplat, 2 * k), at(vsplat, 2 * k + 1), x0));
    }
    for (std::size_t j = 1; j < arity; ++j) {
      h >>= 1;
      const __m512i x = _mm512_loadu_si512(columns[j] + (w - base));
      for (std::size_t k = 0; k < h; ++k) {
        _mm512_store_si512(scratch + k * kBlock,
                           mux(at(scratch, 2 * k), at(scratch, 2 * k + 1), x));
      }
    }
    _mm512_storeu_si512(out + blk * kBlock, at(scratch, 0));
  }
  lut_reduce_words_avx512(splat, arity, columns, base,
                          word_begin + blocks * kBlock, word_end,
                          out + blocks * kBlock);
}

void and_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    _mm512_storeu_si512(dst + w,
                        _mm512_and_si512(_mm512_loadu_si512(a + w),
                                         _mm512_loadu_si512(b + w)));
  }
  word_impl::and_words(a + w, b + w, dst + w, n_words - w);
}

void or_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    _mm512_storeu_si512(dst + w,
                        _mm512_or_si512(_mm512_loadu_si512(a + w),
                                        _mm512_loadu_si512(b + w)));
  }
  word_impl::or_words(a + w, b + w, dst + w, n_words - w);
}

void xor_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    _mm512_storeu_si512(dst + w,
                        _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                         _mm512_loadu_si512(b + w)));
  }
  word_impl::xor_words(a + w, b + w, dst + w, n_words - w);
}

void not_words_avx512(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n_words) {
  const __m512i ones = _mm512_set1_epi64(-1);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    _mm512_storeu_si512(dst + w,
                        _mm512_xor_si512(_mm512_loadu_si512(a + w), ones));
  }
  word_impl::not_words(a + w, dst + w, n_words - w);
}

void argmax_update_avx512(const std::uint64_t* const* cand_planes,
                          std::uint64_t* const* best_planes,
                          std::size_t n_planes,
                          std::uint64_t* const* class_planes,
                          std::size_t n_class_planes,
                          std::uint32_t class_index, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    __m512i gt = _mm512_setzero_si512();
    __m512i eq = _mm512_set1_epi64(-1);
    for (std::size_t p = n_planes; p-- > 0;) {
      const __m512i c = _mm512_loadu_si512(cand_planes[p] + w);
      const __m512i b = _mm512_loadu_si512(best_planes[p] + w);
      gt = _mm512_or_si512(
          gt, _mm512_and_si512(eq, _mm512_andnot_si512(b, c)));
      eq = _mm512_andnot_si512(_mm512_xor_si512(c, b), eq);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const __m512i c = _mm512_loadu_si512(cand_planes[p] + w);
      const __m512i b = _mm512_loadu_si512(best_planes[p] + w);
      // b ^ ((b ^ c) & gt): select c where gt — the same mux as the LUT path.
      _mm512_storeu_si512(best_planes[p] + w, mux(b, c, gt));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const __m512i v = _mm512_loadu_si512(class_planes[q] + w);
      const __m512i updated = ((class_index >> q) & 1u) != 0
                                  ? _mm512_or_si512(v, gt)
                                  : _mm512_andnot_si512(gt, v);
      _mm512_storeu_si512(class_planes[q] + w, updated);
    }
  }
  word_impl::argmax_update_tail(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

void scale_by_mask_avx512(const std::uint64_t* bits, std::size_t n_bits,
                          double factor0, double factor1, double* weights) {
  const __m512d f0v = _mm512_set1_pd(factor0);
  const __m512d f1v = _mm512_set1_pd(factor1);
  const std::size_t full_words = n_bits / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t word = bits[w];
    for (std::size_t g = 0; g < 8; ++g) {
      const __mmask8 m = static_cast<__mmask8>(word >> (g * 8));
      const __m512d f = _mm512_mask_blend_pd(m, f0v, f1v);
      double* p = weights + w * 64 + g * 8;
      _mm512_storeu_pd(p, _mm512_mul_pd(_mm512_loadu_pd(p), f));
    }
  }
  word_impl::scale_by_mask(bits + full_words, n_bits - full_words * 64,
                           factor0, factor1, weights + full_words * 64);
}

}  // namespace

#if defined(POETBIN_HAVE_AVX512VPOPCNT)
// Defined in word_backend_avx512popcnt.cpp (the only TU compiled with
// -mavx512vpopcntdq); selected below only when CPUID reports vpopcntdq.
std::size_t avx512_vpopcnt_popcount_words(const std::uint64_t* a,
                                          std::size_t n_words);
std::size_t avx512_vpopcnt_hamming_words(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t n_words);
#endif

const WordOps& avx512_word_ops() {
  static const WordOps ops = [] {
    WordOps table = {
        .kind = WordBackend::kAvx512,
        .name = "avx512",
        .block_words = kBlock,
        .lut_reduce = lut_reduce_avx512,
        .and_words = and_words_avx512,
        .or_words = or_words_avx512,
        .xor_words = xor_words_avx512,
        .not_words = not_words_avx512,
        // Scalar bodies (hardware popcnt) unless vpopcntdq upgrades them
        // below — both are exact integer counts, so bit-identical either
        // way.
        .popcount_words = word_impl::popcount_words,
        .hamming_words = word_impl::hamming_words,
        .argmax_update = argmax_update_avx512,
        .scale_by_mask = scale_by_mask_avx512,
        // Shared scalar body by contract: log2 is not exact (see WordOps).
        .entropy_sum = word_impl::entropy_sum,
    };
#if defined(POETBIN_HAVE_AVX512VPOPCNT)
    // vpopcntdq is a separate ISA extension from avx512f/bw/vl (Ice
    // Lake+); gate on its own CPUID bit so avx512f-only machines keep the
    // scalar bodies.
    if (__builtin_cpu_supports("avx512vpopcntdq")) {
      table.popcount_words = avx512_vpopcnt_popcount_words;
      table.hamming_words = avx512_vpopcnt_hamming_words;
    }
#endif
    return table;
  }();
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX512
