// Shared helpers for the test suite: small synthetic binary classification
// problems with known structure.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "data/dataset.h"
#include "dt/lut.h"
#include "nn/quantize.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace poetbin::testing {

// Restores the active SIMD word backend on scope exit; tests that call
// set_word_backend() must not leak the switch into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_word_backend()) {}
  ~BackendGuard() { set_word_backend(saved_); }

  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  WordBackend saved_;
};

// Random binary feature matrix.
inline BitMatrix random_bits(std::size_t n_rows, std::size_t n_cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix bits(n_rows, n_cols);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t c = 0; c < n_cols; ++c) {
      if (rng.next_bool()) bits.set(r, c, true);
    }
  }
  return bits;
}

// Targets computed by an arbitrary boolean function of the row, optionally
// flipped with probability `noise`.
inline BitVector targets_from(const BitMatrix& features,
                              const std::function<bool(const BitVector&)>& fn,
                              double noise = 0.0, std::uint64_t seed = 9) {
  Rng rng(seed);
  BitVector targets(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    bool label = fn(features.row(i));
    if (noise > 0.0 && rng.next_bool(noise)) label = !label;
    targets.set(i, label);
  }
  return targets;
}

inline double bit_accuracy(const BitVector& predictions, const BitVector& targets) {
  return static_cast<double>(predictions.xnor_popcount(targets)) /
         static_cast<double>(targets.size());
}

// 10-class linearly-separable-ish binary dataset: class = argmax over 10
// prototype agreement counts. Every classifier worth its salt should get
// well above chance on it.
inline BinaryDataset prototype_dataset(std::size_t n, std::size_t n_features,
                                       std::uint64_t seed,
                                       double flip_prob = 0.08) {
  Rng rng(seed);
  const std::size_t n_classes = 10;
  std::vector<BitVector> prototypes;
  for (std::size_t c = 0; c < n_classes; ++c) {
    BitVector proto(n_features);
    for (std::size_t f = 0; f < n_features; ++f) {
      if (rng.next_bool()) proto.set(f, true);
    }
    prototypes.push_back(std::move(proto));
  }

  BinaryDataset data;
  data.features = BitMatrix(n, n_features);
  data.labels.resize(n);
  data.n_classes = n_classes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = rng.next_index(n_classes);
    data.labels[i] = static_cast<int>(label);
    for (std::size_t f = 0; f < n_features; ++f) {
      bool bit = prototypes[label].get(f);
      if (rng.next_bool(flip_prob)) bit = !bit;
      if (bit) data.features.set(i, f, true);
    }
  }
  return data;
}

// LUT of `arity` random inputs drawn from `n_features` with a random truth
// table.
inline Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) {
    table.set(a, rng.next_bool());
  }
  return Lut(std::move(inputs), std::move(table));
}

// Random RINC hierarchy of the given level with `fanin` children per node.
inline RincModule random_rinc(std::size_t level, std::size_t fanin,
                              std::size_t n_features, Rng& rng) {
  if (level == 0) {
    return RincModule::make_leaf(random_lut(fanin, n_features, rng));
  }
  std::vector<RincModule> children;
  children.reserve(fanin);
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(random_rinc(level - 1, fanin, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

// `n_classes`-class model over n_classes * p random RINC-1 modules (p
// arity-p leaves under one MAT each), class c reading modules c*p..c*p+p-1,
// with random 8-bit codes. One leaf input is pinned to the last feature, so
// the model reads exactly `n_features` inputs. With `shared_codes` every
// class reads modules 0..p-1 through that one code table, so their codes
// tie on every example.
inline PoetBin random_rinc1_model(
    std::size_t n_classes, std::size_t p, std::size_t n_features, Rng& rng,
    const std::vector<std::uint32_t>* shared_codes = nullptr) {
  std::vector<RincModule> modules;
  modules.reserve(n_classes * p);
  for (std::size_t m = 0; m < n_classes * p; ++m) {
    std::vector<RincModule> children;
    children.reserve(p);
    for (std::size_t c = 0; c < p; ++c) {
      Lut leaf = random_lut(p, n_features, rng);
      if (m == 0 && c == 0) {
        std::vector<std::size_t> inputs = leaf.inputs();
        inputs[0] = n_features - 1;
        leaf = Lut(std::move(inputs), leaf.table());
      }
      children.push_back(RincModule::make_leaf(std::move(leaf)));
    }
    std::vector<double> alphas(p);
    for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
    modules.push_back(
        RincModule::make_internal(std::move(children), MatModule(alphas)));
  }
  const QuantizerParams quantizer;  // 8-bit codes
  std::vector<SparseOutputNeuron> neurons(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].input_modules.resize(p);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = shared_codes != nullptr ? j : c * p + j;
    }
    if (shared_codes != nullptr) {
      neurons[c].codes = *shared_codes;
    } else {
      neurons[c].codes.resize(std::size_t{1} << p);
      for (auto& code : neurons[c].codes) {
        code = static_cast<std::uint32_t>(rng.next_index(quantizer.levels()));
      }
    }
  }
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = n_classes;
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

}  // namespace poetbin::testing
