#include "reference/reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/output_layer_detail.h"
#include "dt/level_dt.h"
#include "util/check.h"

namespace poetbin::reference {

AdaboostResult run_adaboost(const BitVector& targets, WeakTrainFn train_weak,
                            const AdaboostConfig& config,
                            std::span<const double> initial_weights) {
  const std::size_t n = targets.size();
  POETBIN_CHECK(n > 0);
  POETBIN_CHECK(config.n_rounds >= 1);
  POETBIN_CHECK(config.n_rounds <= 64);

  std::vector<double> weights;
  if (initial_weights.empty()) {
    weights.assign(n, 1.0 / static_cast<double>(n));
  } else {
    POETBIN_CHECK(initial_weights.size() == n);
    double initial_total = 0.0;
    for (const double w : initial_weights) {
      POETBIN_CHECK(w >= 0.0);
      initial_total += w;
    }
    POETBIN_CHECK(initial_total > 0.0);
    weights.assign(initial_weights.begin(), initial_weights.end());
  }

  AdaboostResult result;
  std::vector<double> alphas;
  std::vector<BitVector> round_predictions;

  for (std::size_t round = 0; round < config.n_rounds; ++round) {
    BitVector predictions = train_weak(weights, round);
    POETBIN_CHECK(predictions.size() == n);

    double epsilon = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += weights[i];
      if (predictions.get(i) != targets.get(i)) epsilon += weights[i];
    }
    POETBIN_CHECK(total > 0.0);
    epsilon /= total;

    const double clamped =
        std::clamp(epsilon, config.epsilon_clamp, 1.0 - config.epsilon_clamp);
    const double alpha = 0.5 * std::log((1.0 - clamped) / clamped);

    result.rounds.push_back({alpha, epsilon});
    alphas.push_back(alpha);
    round_predictions.push_back(std::move(predictions));

    // Reweight: w_i *= exp(-alpha * y_i * h_i), then renormalise.
    const BitVector& preds = round_predictions.back();
    double new_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double agreement = (preds.get(i) == targets.get(i)) ? 1.0 : -1.0;
      weights[i] *= std::exp(-alpha * agreement);
      new_total += weights[i];
    }
    POETBIN_CHECK(new_total > 0.0);
    for (auto& w : weights) w /= new_total;
  }

  result.mat = MatModule(std::move(alphas));

  // Combined prediction per training example.
  result.train_predictions = BitVector(n);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t combo = 0;
    for (std::size_t r = 0; r < round_predictions.size(); ++r) {
      if (round_predictions[r].get(i)) combo |= std::size_t{1} << r;
    }
    const bool decision = result.mat.eval_combo(combo);
    if (decision) result.train_predictions.set(i, true);
    if (decision != targets.get(i)) ++errors;
  }
  result.train_error = static_cast<double>(errors) / static_cast<double>(n);
  return result;
}

namespace {

std::size_t ipow(std::size_t base, std::size_t exponent) {
  std::size_t result = 1;
  for (std::size_t i = 0; i < exponent; ++i) result *= base;
  return result;
}

RincFit train_rinc_level(const BitMatrix& features, const BitVector& targets,
                         std::span<const double> weights,
                         const RincConfig& config, std::size_t level,
                         std::size_t dt_budget) {
  if (level == 0) {
    LevelDtResult fit = train_level_dt_scalar(
        features, targets, weights, {.n_inputs = config.lut_inputs});
    return {RincModule::make_leaf(std::move(fit.lut)), fit.weighted_error};
  }

  // At most P children, P^(level-1) leaf DTs at a time.
  const std::size_t child_capacity = ipow(config.lut_inputs, level - 1);
  const std::size_t n_children = std::min(
      config.lut_inputs, (dt_budget + child_capacity - 1) / child_capacity);

  AdaboostConfig boost_config = config.adaboost;
  boost_config.n_rounds = n_children;

  std::vector<RincModule> children;
  std::size_t remaining = dt_budget;
  auto train_weak = [&](std::span<const double> round_weights,
                        std::size_t /*round*/) -> BitVector {
    const std::size_t child_budget = std::min(child_capacity, remaining);
    remaining -= child_budget;
    RincFit child = train_rinc_level(features, targets, round_weights, config,
                                     level - 1, child_budget);
    BitVector predictions = child.module.eval_dataset(features);
    children.push_back(std::move(child.module));
    return predictions;
  };

  AdaboostResult boosted =
      reference::run_adaboost(targets, train_weak, boost_config, weights);
  return {RincModule::make_internal(std::move(children),
                                    std::move(boosted.mat)),
          boosted.train_error};
}

}  // namespace

RincFit train_rinc(const BitMatrix& features, const BitVector& targets,
                   std::span<const double> weights, const RincConfig& config) {
  POETBIN_CHECK(config.lut_inputs >= 2);
  const std::size_t max_dts = ipow(config.lut_inputs, config.levels);
  const std::size_t budget =
      config.total_dts == 0 ? max_dts : config.total_dts;
  POETBIN_CHECK(budget <= max_dts);
  return train_rinc_level(features, targets, weights, config, config.levels,
                          budget);
}

OutputLayerFit train_output_layer(const BitMatrix& rinc_bits,
                                  const std::vector<int>& labels,
                                  std::size_t n_classes, std::size_t p,
                                  const OutputLayerConfig& config) {
  const std::size_t n = rinc_bits.rows();
  POETBIN_CHECK(rinc_bits.cols() >= n_classes * p);
  POETBIN_CHECK(labels.size() == n);

  OutputLayerFit fit;
  fit.neurons = detail::seeded_output_neurons(n_classes, p, config.seed);
  std::vector<SparseOutputNeuron>& output = fit.neurons;

  // Pre-pack each example's P-bit combo per class (bits don't change during
  // output-layer training).
  std::vector<std::uint32_t> combos(n * n_classes, 0);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t j = 0; j < p; ++j) {
      const BitVector& column = rinc_bits.column(c * p + j);
      for (std::size_t i = 0; i < n; ++i) {
        if (column.get(i)) combos[i * n_classes + c] |= 1u << j;
      }
    }
  }

  std::vector<float> weight_velocity(n_classes * p, 0.0f);
  std::vector<float> bias_velocity(n_classes, 0.0f);
  double lr = config.learning_rate;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<float> weight_grad(n_classes * p, 0.0f);
    std::vector<float> bias_grad(n_classes, 0.0f);
    const float inv_n = 1.0f / static_cast<float>(n);

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < n_classes; ++c) {
        const std::uint32_t combo = combos[i * n_classes + c];
        const float logit = output[c].activation(combo);
        const float target =
            (static_cast<std::size_t>(labels[i]) == c) ? 1.0f : -1.0f;
        const float hinge = 1.0f - target * logit;
        if (hinge <= 0.0f) continue;
        const float grad_logit = -2.0f * hinge * target * inv_n;
        bias_grad[c] += grad_logit;
        for (std::size_t j = 0; j < p; ++j) {
          if ((combo >> j) & 1) weight_grad[c * p + j] += grad_logit;
        }
      }
    }

    const float flr = static_cast<float>(lr);
    for (std::size_t c = 0; c < n_classes; ++c) {
      detail::momentum_step(output[c], weight_velocity.data() + c * p,
                            bias_velocity[c], weight_grad.data() + c * p,
                            bias_grad[c], detail::kOutputMomentum, flr);
    }
    lr *= config.lr_decay;
  }

  fit.quantizer = detail::quantize_output_codes(output, p, config.quant_bits);
  return fit;
}

}  // namespace poetbin::reference
