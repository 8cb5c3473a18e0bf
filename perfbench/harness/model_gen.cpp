#include "model_gen.h"

#include <utility>
#include <vector>

#include "core/rinc.h"
#include "dt/lut.h"
#include "nn/quantize.h"
#include "util/rng.h"

namespace perfbench {

using poetbin::BitMatrix;
using poetbin::BitVector;
using poetbin::Lut;
using poetbin::PoetBin;
using poetbin::RincModule;
using poetbin::Rng;

namespace {

// splitmix64's output function: a bijection on 64-bit words.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

RincModule random_rinc1(std::size_t p, std::size_t n_features, Rng& rng) {
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < p; ++c) {
    children.push_back(RincModule::make_leaf(random_lut(p, n_features, rng)));
  }
  std::vector<double> alphas(p);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children),
                                   poetbin::MatModule(alphas));
}

void count_luts(const RincModule& module, std::uint64_t* muxes,
                std::size_t* luts) {
  if (module.is_leaf()) {
    *muxes += module.leaf_lut().table_size() - 1;
    ++*luts;
    return;
  }
  *muxes += module.mat_lut().table_size() - 1;
  ++*luts;
  for (const RincModule& child : module.children()) {
    count_luts(child, muxes, luts);
  }
}

}  // namespace

PoetBin random_model(std::size_t p, std::size_t n_features,
                     std::uint64_t seed) {
  Rng rng(seed);
  poetbin::PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = 10;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc1(p, n_features, rng));
  }
  const poetbin::QuantizerParams quantizer;  // 8-bit codes
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<poetbin::SparseOutputNeuron> neurons(config.n_classes);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].codes.resize(n_combos);
    for (std::size_t j = 0; j < p; ++j) neurons[c].input_modules[j] = c * p + j;
    for (std::size_t a = 0; a < n_combos; ++a) {
      neurons[c].codes[a] =
          static_cast<std::uint32_t>(rng.next_index(quantizer.levels()));
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

BankCount bank_count(const PoetBin& model) {
  BankCount count;
  for (const RincModule& module : model.modules()) {
    count_luts(module, &count.muxes_per_word, &count.luts);
  }
  return count;
}

InputStream::InputStream(std::uint64_t seed, std::size_t n_features)
    : base_(mix64(seed ^ 0x6a09e667f3bcc909ULL)),
      n_features_(n_features),
      n_words_(BitVector::words_needed(n_features)) {}

void InputStream::fill(std::uint64_t index, std::uint64_t* words) const {
  const std::uint64_t first = mix64(base_ + index);
  words[0] = first;
  for (std::size_t w = 1; w < n_words_; ++w) {
    words[w] = mix64(first ^ (0x9e3779b97f4a7c15ULL * w));
  }
  words[n_words_ - 1] &= BitVector::tail_word_mask(n_features_);
}

BitVector InputStream::make(std::uint64_t index) const {
  BitVector bits(n_features_);
  fill(index, bits.words());
  return bits;
}

void transpose64(std::uint64_t block[64]) {
  // Recursive block swap: exchange the off-diagonal j x j sub-blocks for
  // j = 32, 16, ..., 1.
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k + j]) & mask;
      block[k] ^= t << j;
      block[k + j] ^= t;
    }
  }
}

BitMatrix pack_rows(
    std::size_t n_rows, std::size_t n_features,
    const std::function<void(std::size_t row, std::uint64_t* words)>&
        row_words) {
  BitMatrix out(n_rows, n_features);
  const std::size_t n_words = BitVector::words_needed(n_features);
  std::vector<std::uint64_t> rows(64 * n_words);
  std::uint64_t block[64];
  for (std::size_t r0 = 0; r0 < n_rows; r0 += 64) {
    const std::size_t n = std::min<std::size_t>(64, n_rows - r0);
    std::fill(rows.begin(), rows.end(), 0);
    for (std::size_t i = 0; i < n; ++i) row_words(r0 + i, &rows[i * n_words]);
    const std::size_t row_word = r0 / 64;
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < 64; ++i) block[i] = rows[i * n_words + w];
      transpose64(block);
      // block[f] now holds feature 64w + f of the 64 rows, row i at bit i.
      for (std::size_t f = 0; f < 64 && 64 * w + f < n_features; ++f) {
        out.column(64 * w + f).words()[row_word] = block[f];
      }
    }
  }
  return out;
}

}  // namespace perfbench
