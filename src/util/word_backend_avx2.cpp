// AVX2 backend: four 64-bit words (256 examples) per step.
//
// Only bitwise logic and elementwise double multiplies run at vector width,
// so every result is bit-identical to the scalar64 reference; ragged
// sub-block tails fall through to the shared scalar bodies in
// word_backend_impl.h. Compiled with -mavx2 (see CMakeLists.txt) and only
// when the toolchain supports it; runtime CPUID dispatch lives in
// word_backend.cpp.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX2)

#include <immintrin.h>

#include "util/word_backend_impl.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 4;  // 64-bit words per __m256i

inline __m256i mux(__m256i f0, __m256i f1, __m256i x) {
  // f0 ^ ((f0 ^ f1) & x): bitwise select x ? f1 : f0.
  return _mm256_xor_si256(f0,
                          _mm256_and_si256(_mm256_xor_si256(f0, f1), x));
}

void lut_reduce_avx2(const std::uint64_t* splat, std::size_t arity,
                     const std::uint64_t* const* columns, std::size_t base,
                     std::size_t word_begin, std::size_t word_end,
                     std::uint64_t* out) {
  const std::size_t n_words = word_end - word_begin;
  const std::size_t blocks = n_words / kBlock;
  if (blocks == 0) {
    word_impl::lut_reduce(splat, arity, columns, base, word_begin, word_end,
                          out);
    return;
  }
  // Broadcast the splatted table once per call (amortized over the whole
  // word range); scratch holds the live half-table between reduction levels.
  // Both live in per-thread, 64-byte-aligned word scratch
  // (word_impl::ScratchWords), one vector per kBlock words.
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
    return _mm256_load_si256(
        reinterpret_cast<const __m256i*>(v + k * kBlock));
  };

  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t w = word_begin + blk * kBlock;
    if (arity == 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + blk * kBlock),
                          at(vsplat, 0));
      continue;
    }
    std::size_t h = half;
    const __m256i x0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(columns[0] + (w - base)));
    for (std::size_t k = 0; k < h; ++k) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(scratch + k * kBlock),
          mux(at(vsplat, 2 * k), at(vsplat, 2 * k + 1), x0));
    }
    for (std::size_t j = 1; j < arity; ++j) {
      h >>= 1;
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(columns[j] + (w - base)));
      for (std::size_t k = 0; k < h; ++k) {
        _mm256_store_si256(
            reinterpret_cast<__m256i*>(scratch + k * kBlock),
            mux(at(scratch, 2 * k), at(scratch, 2 * k + 1), x));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + blk * kBlock),
                        at(scratch, 0));
  }
  word_impl::lut_reduce(splat, arity, columns, base,
                        word_begin + blocks * kBlock, word_end,
                        out + blocks * kBlock);
}

void and_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_and_si256(va, vb));
  }
  word_impl::and_words(a + w, b + w, dst + w, n_words - w);
}

void or_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(va, vb));
  }
  word_impl::or_words(a + w, b + w, dst + w, n_words - w);
}

void xor_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_xor_si256(va, vb));
  }
  word_impl::xor_words(a + w, b + w, dst + w, n_words - w);
}

void not_words_avx2(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n_words) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_xor_si256(va, ones));
  }
  word_impl::not_words(a + w, dst + w, n_words - w);
}

void argmax_update_avx2(const std::uint64_t* const* cand_planes,
                        std::uint64_t* const* best_planes,
                        std::size_t n_planes,
                        std::uint64_t* const* class_planes,
                        std::size_t n_class_planes, std::uint32_t class_index,
                        std::size_t n_words) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    __m256i gt = _mm256_setzero_si256();
    __m256i eq = ones;
    for (std::size_t p = n_planes; p-- > 0;) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cand_planes[p] + w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(best_planes[p] + w));
      gt = _mm256_or_si256(
          gt, _mm256_and_si256(eq, _mm256_andnot_si256(b, c)));
      eq = _mm256_andnot_si256(_mm256_xor_si256(c, b), eq);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cand_planes[p] + w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(best_planes[p] + w));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(best_planes[p] + w),
          _mm256_or_si256(_mm256_andnot_si256(gt, b),
                          _mm256_and_si256(gt, c)));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(class_planes[q] + w));
      const __m256i updated = ((class_index >> q) & 1u) != 0
                                  ? _mm256_or_si256(v, gt)
                                  : _mm256_andnot_si256(gt, v);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(class_planes[q] + w),
                          updated);
    }
  }
  word_impl::argmax_update_tail(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

void scale_by_mask_avx2(const std::uint64_t* bits, std::size_t n_bits,
                        double factor0, double factor1, double* weights) {
  const __m256d f0v = _mm256_set1_pd(factor0);
  const __m256d f1v = _mm256_set1_pd(factor1);
  const std::size_t full_words = n_bits / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const __m256i word = _mm256_set1_epi64x(static_cast<long long>(bits[w]));
    __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
    for (std::size_t g = 0; g < 16; ++g) {
      // All-ones lane exactly where the lane's bit is set in the word.
      const __m256i m =
          _mm256_cmpeq_epi64(_mm256_and_si256(word, sel), sel);
      const __m256d f = _mm256_blendv_pd(f0v, f1v, _mm256_castsi256_pd(m));
      double* p = weights + w * 64 + g * 4;
      _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), f));
      sel = _mm256_slli_epi64(sel, 4);
    }
  }
  word_impl::scale_by_mask(bits + full_words, n_bits - full_words * 64,
                           factor0, factor1, weights + full_words * 64);
}

}  // namespace

const WordOps& avx2_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kAvx2,
      .name = "avx2",
      .block_words = kBlock,
      .lut_reduce = lut_reduce_avx2,
      .and_words = and_words_avx2,
      .or_words = or_words_avx2,
      .xor_words = xor_words_avx2,
      .not_words = not_words_avx2,
      // AVX2 has no 64-lane popcount; the scalar bodies compile to hardware
      // popcnt here and these ops are not on the gated hot paths.
      .popcount_words = word_impl::popcount_words,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = argmax_update_avx2,
      .scale_by_mask = scale_by_mask_avx2,
      // Shared scalar body by contract: log2 is not exact (see WordOps).
      .entropy_sum = word_impl::entropy_sum,
  };
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX2
