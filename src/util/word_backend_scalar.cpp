// scalar64 backend: one 64-bit word per step. The reference every other
// backend must match bit for bit, and the fallback on non-x86 hosts.
#include "util/word_backend.h"

#include <new>
#include <vector>

#include "dt/entropy.h"
#include "util/aligned_vector.h"
#include "util/word_backend_impl.h"

namespace poetbin {

double word_impl::entropy_sum(const double* pairs, std::size_t n_pairs,
                              double init) {
  return weighted_entropy_sum(pairs, n_pairs, init);
}

// The out-of-line halves of word_backend_impl.h: this TU is compiled for
// the baseline ISA, so the standard-library code they instantiate is never
// an AVX2/AVX-512 build.
word_impl::ScratchWords::~ScratchWords() {
  ::operator delete(data, std::align_val_t{kWordAlignment});
}

void word_impl::grow_scratch(ScratchWords& scratch, std::size_t n_words) {
  ::operator delete(scratch.data, std::align_val_t{kWordAlignment});
  scratch.data = nullptr;
  scratch.size = 0;
  scratch.data = static_cast<std::uint64_t*>(::operator new(
      n_words * sizeof(std::uint64_t), std::align_val_t{kWordAlignment}));
  scratch.size = n_words;
}

void word_impl::argmax_update_tail(const std::uint64_t* const* cand_planes,
                                   std::uint64_t* const* best_planes,
                                   std::size_t n_planes,
                                   std::uint64_t* const* class_planes,
                                   std::size_t n_class_planes,
                                   std::uint32_t class_index,
                                   std::size_t offset, std::size_t n_words) {
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

const WordOps& scalar64_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kScalar64,
      .name = "scalar64",
      .block_words = 1,
      .lut_reduce = word_impl::lut_reduce,
      .and_words = word_impl::and_words,
      .or_words = word_impl::or_words,
      .xor_words = word_impl::xor_words,
      .not_words = word_impl::not_words,
      .popcount_words = word_impl::popcount_words,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = word_impl::argmax_update,
      .scale_by_mask = word_impl::scale_by_mask,
      .entropy_sum = word_impl::entropy_sum,
  };
  return ops;
}

}  // namespace poetbin
