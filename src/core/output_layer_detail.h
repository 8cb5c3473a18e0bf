// Output-layer building blocks shared by PoetBin::retrain_output_layer and
// the scalar reference trainer that tests and benches compare it against:
// the seeded neuron init, the per-class momentum update and the
// shared-scale quantizer fit. Both trainers call these one out-of-line
// definitions, so the steps they share cannot drift apart; only the
// gradient computation differs between them. Not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/poetbin.h"
#include "nn/quantize.h"

namespace poetbin::detail {

inline constexpr float kOutputMomentum = 0.9f;

// nc neurons with block wiring (neuron c reads modules [c*P, (c+1)*P)),
// weights drawn N(0, 2/P) from Rng(seed) in class-major order, zero bias,
// no codes yet.
std::vector<SparseOutputNeuron> seeded_output_neurons(std::size_t n_classes,
                                                      std::size_t p,
                                                      std::uint64_t seed);

// One class's momentum update for an epoch. Kept out of line so every
// caller runs one instruction sequence: separately inlined copies could
// contract the multiply-adds differently and silently break bit-identity.
[[gnu::noinline]] void momentum_step(SparseOutputNeuron& neuron,
                                     float* weight_velocity,
                                     float& bias_velocity,
                                     const float* weight_grad, float bias_grad,
                                     float momentum, float flr);

// Fits one quantizer over every neuron's 2^P reachable activations (a
// shared scale keeps raw codes comparable in the hardware argmax) and fills
// each neuron's codes with it.
QuantizerParams quantize_output_codes(std::vector<SparseOutputNeuron>& output,
                                      std::size_t p, int quant_bits);

}  // namespace poetbin::detail
