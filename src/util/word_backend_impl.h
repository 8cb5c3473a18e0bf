// Internal: scalar (64-bit word) kernel bodies shared by the backends.
//
// The scalar64 backend calls these directly; the AVX2/AVX-512 backends call
// them for the ragged sub-block tail of each range (AVX-512 lut_reduce
// keeps its own entry-vectorized tail for arities 3-8). Keeping one definition
// guarantees every backend's remainder path is literally the reference
// implementation. Not part of the public surface — include only from
// word_backend*.cpp.
//
// The bodies below have internal linkage (unnamed namespace): each backend
// TU is compiled with its own ISA flags and auto-vectorizes them at that
// width, and internal linkage keeps every TU on its own build of them —
// with external linkage the linker keeps one copy, and the scalar64 table
// could end up calling the AVX-512 build of a body. That guarantee covers
// these bodies only, not the inline functions with external linkage they
// call from other headers (the standard-library vector members behind the
// thread-local scratch). entropy_sum is the one body that is not here: it
// is defined once, in the scalar64 TU, so no SIMD TU compiles
// dt/entropy.h at all.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned_vector.h"

namespace poetbin::word_impl {
namespace {

// One word of LUT output from `arity` input words: Shannon-reduce the
// splatted truth table over the top address bit first, then the next, ...
// Entry a of the table is the output for address a = sum_j in_j << j, so
// the entries with address bit (arity - 1) clear form the low half and
// those with it set the high half: each step is the bitwise mux
// lo ^ ((lo ^ hi) & x) of two contiguous half-tables. The whole evaluation
// is 2^arity - 1 word muxes, touches no per-example state, and each level
// is one unit-stride loop the compiler vectorizes at the TU's ISA width.
// `scratch` must hold at least 2^(arity-1) words (unused when arity == 0).
inline std::uint64_t shannon_reduce(const std::uint64_t* __restrict splat,
                                    std::size_t arity, const std::uint64_t* in,
                                    std::uint64_t* __restrict scratch) {
  if (arity == 0) return splat[0];
  std::size_t half = std::size_t{1} << (arity - 1);
  const std::uint64_t x_top = in[arity - 1];
  for (std::size_t k = 0; k < half; ++k) {
    const std::uint64_t lo = splat[k];
    scratch[k] = lo ^ ((lo ^ splat[k + half]) & x_top);
  }
  for (std::size_t j = arity - 1; j-- > 0;) {
    half >>= 1;
    const std::uint64_t x = in[j];
    const std::uint64_t* hi = scratch + half;
    for (std::size_t k = 0; k < half; ++k) {
      const std::uint64_t lo = scratch[k];
      scratch[k] = lo ^ ((lo ^ hi[k]) & x);
    }
  }
  return scratch[0];
}

inline void lut_reduce(const std::uint64_t* splat, std::size_t arity,
                       const std::uint64_t* const* columns, std::size_t base,
                       std::size_t word_begin, std::size_t word_end,
                       std::uint64_t* out) {
  if (arity == 0) {
    for (std::size_t w = word_begin; w < word_end; ++w) {
      out[w - word_begin] = splat[0];
    }
    return;
  }
  // Reused across calls: one allocation per thread, not one per chunk.
  static thread_local WordVec scratch;
  static thread_local WordVec in;
  const std::size_t half = std::size_t{1} << (arity - 1);
  if (scratch.size() < half) scratch.resize(half);
  if (in.size() < arity) in.resize(arity);
  for (std::size_t w = word_begin; w < word_end; ++w) {
    for (std::size_t j = 0; j < arity; ++j) in[j] = columns[j][w - base];
    out[w - word_begin] =
        shannon_reduce(splat, arity, in.data(), scratch.data());
  }
}

inline void and_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] & b[w];
}

inline void or_words(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] | b[w];
}

inline void xor_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] ^ b[w];
}

inline void not_words(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = ~a[w];
}

inline std::size_t popcount_words(const std::uint64_t* a, std::size_t n_words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w]));
  }
  return total;
}

inline std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n_words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// MSB-first bitwise comparator over code planes; see WordOps::argmax_update.
inline void argmax_update(const std::uint64_t* const* cand_planes,
                          std::uint64_t* const* best_planes,
                          std::size_t n_planes,
                          std::uint64_t* const* class_planes,
                          std::size_t n_class_planes, std::uint32_t class_index,
                          std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t gt = 0;
    std::uint64_t eq = ~0ULL;
    for (std::size_t p = n_planes; p-- > 0;) {
      const std::uint64_t c = cand_planes[p][w];
      const std::uint64_t b = best_planes[p][w];
      gt |= eq & c & ~b;
      eq &= ~(c ^ b);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      best_planes[p][w] =
          (best_planes[p][w] & ~gt) | (cand_planes[p][w] & gt);
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      if ((class_index >> q) & 1u) {
        class_planes[q][w] |= gt;
      } else {
        class_planes[q][w] &= ~gt;
      }
    }
  }
}

// Tail driver for SIMD argmax_update implementations: rebases every plane
// pointer by `offset` words and runs the scalar comparator on the
// remainder. Single-sourced so the AVX2/AVX-512 remainder paths cannot
// diverge.
inline void argmax_update_tail(const std::uint64_t* const* cand_planes,
                               std::uint64_t* const* best_planes,
                               std::size_t n_planes,
                               std::uint64_t* const* class_planes,
                               std::size_t n_class_planes,
                               std::uint32_t class_index, std::size_t offset,
                               std::size_t n_words) {
  if (offset >= n_words) return;
  static thread_local std::vector<const std::uint64_t*> ctail;
  static thread_local std::vector<std::uint64_t*> btail;
  static thread_local std::vector<std::uint64_t*> qtail;
  ctail.resize(n_planes);
  btail.resize(n_planes);
  qtail.resize(n_class_planes);
  for (std::size_t p = 0; p < n_planes; ++p) {
    ctail[p] = cand_planes[p] + offset;
    btail[p] = best_planes[p] + offset;
  }
  for (std::size_t q = 0; q < n_class_planes; ++q) {
    qtail[q] = class_planes[q] + offset;
  }
  argmax_update(ctail.data(), btail.data(), n_planes, qtail.data(),
                n_class_planes, class_index, n_words - offset);
}

inline void scale_by_mask(const std::uint64_t* bits, std::size_t n_bits,
                          double factor0, double factor1, double* weights) {
  const double factor[2] = {factor0, factor1};
  for (std::size_t i = 0; i < n_bits; ++i) {
    weights[i] *= factor[(bits[i >> 6] >> (i & 63)) & 1u];
  }
}

}  // namespace

// Every backend's entropy_sum is this one function (word_backend_scalar.cpp,
// dt/entropy.h weighted_entropy_sum): the per-node log2 is not an exact op,
// so widening it would break cross-backend bit-identity (see the WordOps
// declaration).
double entropy_sum(const double* pairs, std::size_t n_pairs, double init);

}  // namespace poetbin::word_impl
