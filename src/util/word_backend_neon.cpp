// NEON (AdvSIMD) backend for arm64: two 64-bit words (128 examples) per
// step.
//
// Only bitwise logic runs at vector width, so every result is bit-identical
// to the scalar64 reference; ragged sub-block tails fall through to the
// shared scalar bodies in word_backend_impl.h. Compiled with -march=armv8-a
// in its own TU (see CMakeLists.txt) and only for aarch64 targets; the
// runtime hwcap probe lives in word_backend.cpp. popcount/hamming stay on
// the scalar bodies (they compile to CNT+ADDV inline on arm64 and are not
// on the gated hot paths), scale_by_mask likewise, and entropy_sum must be
// the shared body by contract (log2 is not exact).
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_NEON)

#include <arm_neon.h>

#include "util/word_backend_impl.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 2;  // 64-bit words per uint64x2_t

inline uint64x2_t mux(uint64x2_t f0, uint64x2_t f1, uint64x2_t x) {
  // f0 ^ ((f0 ^ f1) & x): bitwise select x ? f1 : f0.
  return veorq_u64(f0, vandq_u64(veorq_u64(f0, f1), x));
}

void lut_reduce_neon(const std::uint64_t* splat, std::size_t arity,
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
  // word range); scratch holds the live half-table between reduction
  // levels. Both live in per-thread, 64-byte-aligned word scratch
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
    return vld1q_u64(v + k * kBlock);
  };

  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t w = word_begin + blk * kBlock;
    if (arity == 0) {
      vst1q_u64(out + blk * kBlock, at(vsplat, 0));
      continue;
    }
    std::size_t h = half;
    const uint64x2_t x0 = vld1q_u64(columns[0] + (w - base));
    for (std::size_t k = 0; k < h; ++k) {
      vst1q_u64(scratch + k * kBlock,
                mux(at(vsplat, 2 * k), at(vsplat, 2 * k + 1), x0));
    }
    for (std::size_t j = 1; j < arity; ++j) {
      h >>= 1;
      const uint64x2_t x = vld1q_u64(columns[j] + (w - base));
      for (std::size_t k = 0; k < h; ++k) {
        vst1q_u64(scratch + k * kBlock,
                  mux(at(scratch, 2 * k), at(scratch, 2 * k + 1), x));
      }
    }
    vst1q_u64(out + blk * kBlock, at(scratch, 0));
  }
  word_impl::lut_reduce(splat, arity, columns, base,
                        word_begin + blocks * kBlock, word_end,
                        out + blocks * kBlock);
}

void and_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    vst1q_u64(dst + w, vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  word_impl::and_words(a + w, b + w, dst + w, n_words - w);
}

void or_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    vst1q_u64(dst + w, vorrq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  word_impl::or_words(a + w, b + w, dst + w, n_words - w);
}

void xor_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    vst1q_u64(dst + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  word_impl::xor_words(a + w, b + w, dst + w, n_words - w);
}

void not_words_neon(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n_words) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    vst1q_u64(dst + w, veorq_u64(vld1q_u64(a + w), ones));
  }
  word_impl::not_words(a + w, dst + w, n_words - w);
}

void argmax_update_neon(const std::uint64_t* const* cand_planes,
                        std::uint64_t* const* best_planes,
                        std::size_t n_planes,
                        std::uint64_t* const* class_planes,
                        std::size_t n_class_planes, std::uint32_t class_index,
                        std::size_t n_words) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    uint64x2_t gt = vdupq_n_u64(0);
    uint64x2_t eq = ones;
    for (std::size_t p = n_planes; p-- > 0;) {
      const uint64x2_t c = vld1q_u64(cand_planes[p] + w);
      const uint64x2_t b = vld1q_u64(best_planes[p] + w);
      // gt |= eq & (c & ~b); eq &= ~(c ^ b). vbic(x, y) = x & ~y.
      gt = vorrq_u64(gt, vandq_u64(eq, vbicq_u64(c, b)));
      eq = vbicq_u64(eq, veorq_u64(c, b));
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const uint64x2_t c = vld1q_u64(cand_planes[p] + w);
      const uint64x2_t b = vld1q_u64(best_planes[p] + w);
      // vbsl: bits of c where gt is set, bits of b elsewhere.
      vst1q_u64(best_planes[p] + w, vbslq_u64(gt, c, b));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const uint64x2_t v = vld1q_u64(class_planes[q] + w);
      const uint64x2_t updated = ((class_index >> q) & 1u) != 0
                                     ? vorrq_u64(v, gt)
                                     : vbicq_u64(v, gt);
      vst1q_u64(class_planes[q] + w, updated);
    }
  }
  word_impl::argmax_update_tail(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

}  // namespace

const WordOps& neon_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kNeon,
      .name = "neon",
      .block_words = kBlock,
      .lut_reduce = lut_reduce_neon,
      .and_words = and_words_neon,
      .or_words = or_words_neon,
      .xor_words = xor_words_neon,
      .not_words = not_words_neon,
      .popcount_words = word_impl::popcount_words,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = argmax_update_neon,
      .scale_by_mask = word_impl::scale_by_mask,
      // Shared scalar body by contract: log2 is not exact (see WordOps).
      .entropy_sum = word_impl::entropy_sum,
  };
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_NEON
