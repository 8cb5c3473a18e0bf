// Seeded inputs for the benchmark: random models with the paper presets'
// shapes, input streams, and feature-major packing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/poetbin.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace perfbench {

// 10-class PoET-BiN of random RINC-1 modules (p leaves of arity p under one
// MAT per module, 10 * p modules) and random 8-bit output codes — the
// model shape of bench_batch_eval, built without a training run. Evaluation
// cost depends only on this shape, never on the table contents.
poetbin::PoetBin random_model(std::size_t p, std::size_t n_features,
                              std::uint64_t seed);

// The RINC bank's op count: its leaf and MAT LUTs, and the word muxes one
// 64-example word costs in them, the sum over those LUTs of 2^arity - 1 (a
// Shannon reduction of a 2^a-entry table). Divide by 64 for muxes per
// example.
struct BankCount {
  std::size_t luts = 0;
  std::uint64_t muxes_per_word = 0;
};
BankCount bank_count(const poetbin::PoetBin& model);

// An endless stream of distinct inputs: input i is a pure function of
// (seed, i), and word 0 is a bijective mix of seed + i, so no two indices
// ever yield the same input.
class InputStream {
 public:
  InputStream(std::uint64_t seed, std::size_t n_features);

  std::size_t n_features() const { return n_features_; }
  std::size_t n_words() const { return n_words_; }
  // Writes input `index` as n_words() packed words (tail bits zero).
  void fill(std::uint64_t index, std::uint64_t* words) const;
  poetbin::BitVector make(std::uint64_t index) const;

 private:
  std::uint64_t base_;
  std::size_t n_features_;
  std::size_t n_words_;
};

// In-place transpose of a 64x64 bit block: bit j of word i moves to bit i
// of word j.
void transpose64(std::uint64_t block[64]);

// Feature-major BitMatrix of n_rows examples; row_words(r, words) writes
// example r's packed feature words.
poetbin::BitMatrix pack_rows(
    std::size_t n_rows, std::size_t n_features,
    const std::function<void(std::size_t row, std::uint64_t* words)>&
        row_words);

}  // namespace perfbench
