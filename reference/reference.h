// Scalar oracles for the training paths of libpoetbin.
//
// Each training operation in the library ships exactly one production path:
// word-parallel Adaboost error/reweight loops, bitsliced weak-learner passes
// inside RINC training, and the word-parallel output-layer retrain. The
// straightforward per-example loops they must reproduce bit for bit live
// here, in the poetbin_reference library that only tests and benches link.
// The spec is bit-identity: every oracle returns exactly what the
// production call returns on the same inputs.
//
// The LevelDT scalar scan is not here: it stays in the library as
// train_level_dt_scalar (dt/level_dt.h), which is also the production path
// for inputs too large for the word-parallel scan's carried buffers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "boost/adaboost.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "nn/quantize.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin::reference {

// Discrete Adaboost with one branchy pass per example for the weighted
// error and one exp() per example for the reweight. Same contract and
// validation as poetbin::run_adaboost.
AdaboostResult run_adaboost(const BitVector& targets, WeakTrainFn train_weak,
                            const AdaboostConfig& config,
                            std::span<const double> initial_weights = {});

// A trained RINC module plus the training error RincModule::train_error()
// reports for the production fit (modules rebuilt through make_leaf /
// make_internal do not carry one).
struct RincFit {
  RincModule module;
  double train_error = 0.0;
};

// The RINC recursion of Algorithm 2 on scalar parts: train_level_dt_scalar
// leaves, reference::run_adaboost across children and RincModule::
// eval_dataset as the weak learner's dataset pass. Same contract as
// RincModule::train.
RincFit train_rinc(const BitMatrix& features, const BitVector& targets,
                   std::span<const double> weights, const RincConfig& config);

// A fitted output layer: what PoetBin::output_neurons() and quantizer()
// report after retrain_output_layer.
struct OutputLayerFit {
  std::vector<SparseOutputNeuron> neurons;
  QuantizerParams quantizer;
};

// Full-batch gradient descent on the multi-class squared hinge, one
// (example, class) pair at a time over pre-packed combos, from the seeded
// init — the loop PoetBin::retrain_output_layer reproduces word-parallel.
// `rinc_bits` is the n x >= nc*P RINC bank, neuron c reading columns
// [c*P, (c+1)*P).
OutputLayerFit train_output_layer(const BitMatrix& rinc_bits,
                                  const std::vector<int>& labels,
                                  std::size_t n_classes, std::size_t p,
                                  const OutputLayerConfig& config);

}  // namespace poetbin::reference
