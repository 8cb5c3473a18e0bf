// Modified level-wise decision tree — Algorithm 1 of the paper (RINC-0).
//
// Unlike a classic DT (one feature per *node*), the level-wise DT assigns
// one feature per *level*: every node at depth j tests the same feature, so
// a depth-P tree partitions the input space into exactly 2^P cells addressed
// by the P selected feature bits — i.e. it IS a P-input LUT. Training
// greedily picks, per level, the unused feature that minimises the total
// weighted entropy across all nodes of that level; leaves take the weighted
// majority class (ties resolved to class 1, matching Algorithm 1's
// "S0 <= S1 -> 1" rule).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

class BatchEngine;  // core/batch_eval.h; optional candidate-scan parallelism

struct LevelDtConfig {
  // P: number of inputs of the target LUT (= tree depth).
  std::size_t n_inputs = 6;
  // Optional candidate restriction; empty means "all features". Duplicate
  // entries are deduplicated (first occurrence wins the tie-break order) and
  // features already used by this tree are always excluded, per Algorithm 1.
  std::vector<std::size_t> candidate_features;
};

struct LevelDtResult {
  Lut lut;
  // Weighted training error of the LUT under the weights it was trained on.
  double weighted_error = 0.0;
  // Total weighted entropy after the final level (diagnostic).
  double final_entropy = 0.0;
};

// Trains Algorithm 1. `targets` holds the binary class per example;
// `weights` must sum to something positive (Adaboost passes a distribution).
// If `weights` is empty, uniform weights are used.
//
// The entropy scan is word-parallel: class masses are gathered from packed
// candidate-column words, 64 examples per word op. Candidate scores agree
// with train_level_dt_scalar to accumulated rounding, so feature selection
// matches unless two candidates score within a few ulps (exact duplicates
// tie identically); given the same selection, the LUT, entropy and weighted
// error are bit-identical. A non-null `engine` spreads each level's
// candidate scan over its pool, with identical results at any thread count.
// When the carried per-candidate mass buffers (candidates x 2^P doubles)
// would exceed 256 MiB, the fit runs the scalar scan instead.
LevelDtResult train_level_dt(const BitMatrix& features, const BitVector& targets,
                             std::span<const double> weights,
                             const LevelDtConfig& config,
                             const BatchEngine* engine = nullptr);

// The serial scalar scan, one bit extraction per example per candidate:
// the production path for oversized inputs and the semantics the
// word-parallel scan reproduces. Same arguments and validation as
// train_level_dt; `engine` is accepted for signature parity and unused.
LevelDtResult train_level_dt_scalar(const BitMatrix& features,
                                    const BitVector& targets,
                                    std::span<const double> weights,
                                    const LevelDtConfig& config,
                                    const BatchEngine* engine = nullptr);

}  // namespace poetbin
