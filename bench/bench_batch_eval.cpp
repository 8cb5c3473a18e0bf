// Scalar vs bitsliced vs threaded batch inference, per SIMD word backend.
//
// Acceptance bars (gated only at POETBIN_BENCH_SCALE >= 1):
//   - the single-threaded bitsliced path on the default (widest) backend
//     must be >= 8x the scalar eval_dataset throughput on 10k examples;
//   - on AVX2-capable hosts the avx2 backend must be >= 1.5x the scalar64
//     word path on the P=6 RINC-2 eval.
// Every backend the host supports is timed and written to
// bench_results.json (keys suffixed _scalar64/_avx2/_avx512) so the CI
// regression diff covers all of them; the unsuffixed keys are the default
// backend, matching older artifacts. The fused output-layer argmax
// (predict_dataset_batched) is benchmarked against the scalar
// predict_dataset on a 10-class model, and the serving section times
// MicroBatcher predict_one traffic (window 64) against the scalar
// one-example-at-a-time loop (gate: >= 5x at P=6, serve_microbatch_* rows).
// The window rows time one 64-row serving window per backend against its
// op count at the backend's lut_reduce peak (window_predict_<backend>_ms)
// and the whole MicroBatcher window around it (window_batcher_ms); the
// pack and handoff share of that window (window_pack_share) is a
// difference of two minima, so it is reported but not a gated *_ms key.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "nn/quantize.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "util/aligned_vector.h"
#include "util/bit_matrix.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace {

using namespace poetbin;
using Clock = std::chrono::steady_clock;

BitMatrix random_bits(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix bits(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    BitVector& column = bits.column(c);
    for (std::size_t w = 0; w < column.word_count(); ++w) {
      column.words()[w] = rng.next_u64();
    }
    column.mask_tail_word();
  }
  return bits;
}

Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

RincModule random_rinc(std::size_t level, std::size_t fanin,
                       std::size_t leaf_arity, std::size_t n_features,
                       Rng& rng) {
  if (level == 0) {
    return RincModule::make_leaf(random_lut(leaf_arity, n_features, rng));
  }
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(
        random_rinc(level - 1, fanin, leaf_arity, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

// 10-class PoET-BiN with random RINC-1 modules and random quantized codes:
// realistic output-layer shape for the fused argmax without a full training
// run.
PoetBin random_model(std::size_t p, std::size_t n_features, Rng& rng) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = 10;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc(1, p, p, n_features, rng));
  }
  const QuantizerParams quantizer;  // 8-bit codes
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<SparseOutputNeuron> neurons(config.n_classes);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].codes.resize(n_combos);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = c * p + j;
    }
    for (std::size_t a = 0; a < n_combos; ++a) {
      neurons[c].codes[a] = rng.next_index(quantizer.levels());
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

template <typename Fn>
double time_best_of(std::size_t reps, const Fn& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Word muxes one output word of `module` costs: 2^k - 1 per k-input LUT.
std::uint64_t module_muxes(const RincModule& module) {
  std::uint64_t muxes = (std::uint64_t{1} << module.fanin()) - 1;
  for (const RincModule& child : module.children()) {
    muxes += module_muxes(child);
  }
  return muxes;
}

// Word muxes of one fused predict word: the RINC bank plus every output
// neuron's code planes (each a P-input table). The argmax comparator and
// the un-slicing are not muxes and are left out.
std::uint64_t predict_muxes(const PoetBin& model) {
  std::uint64_t muxes = 0;
  for (const RincModule& module : model.modules()) {
    muxes += module_muxes(module);
  }
  const std::uint64_t plane_muxes =
      (std::uint64_t{1} << model.lut_inputs()) - 1;
  return muxes + model.n_classes() * model.code_plane_count() * plane_muxes;
}

// The active backend's lut_reduce peak in word muxes per second: an
// arity-`arity` table over a cache-resident 256-word block, best of a few
// timed batches.
double lut_reduce_peak(std::size_t arity) {
  constexpr std::size_t kWords = 256;
  Rng rng(17);
  std::vector<std::uint64_t> splat(std::size_t{1} << arity);
  for (auto& word : splat) word = rng.next_bool() ? ~0ULL : 0ULL;
  WordVec columns(arity * kWords);
  for (auto& word : columns) word = rng.next_u64();
  std::vector<const std::uint64_t*> column_ptrs(arity);
  for (std::size_t j = 0; j < arity; ++j) {
    column_ptrs[j] = columns.data() + j * kWords;
  }
  WordVec out(kWords);
  const WordOps& ops = word_ops();
  constexpr std::size_t kCalls = 64;
  const double seconds = time_best_of(20, [&] {
    for (std::size_t c = 0; c < kCalls; ++c) {
      ops.lut_reduce(splat.data(), arity, column_ptrs.data(), 0, 0, kWords,
                     out.data());
    }
  });
  return static_cast<double>(splat.size() - 1) * kWords * kCalls / seconds;
}

void report(const char* label, double seconds, std::size_t n_examples,
            double baseline_seconds) {
  std::printf("  %-28s %10.3f ms  %12.0f ex/s  %6.2fx\n", label,
              1e3 * seconds, n_examples / seconds, baseline_seconds / seconds);
}

}  // namespace

int main() {
  bench::print_header(
      "Batch inference: scalar vs bitsliced per word backend",
      "acceptance: default >= 8x scalar; avx2 >= 1.5x scalar64 (P=6); "
      "micro-batch serve >= 5x single (P=6)");
  bench::JsonResults json("batch_eval");

  const std::size_t n_examples =
      static_cast<std::size_t>(10000 * bench::bench_scale());
  const std::size_t n_features = 512;
  const BitMatrix features = random_bits(n_examples, n_features, 1234);
  Rng rng(99);

  std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const WordBackend default_backend = active_word_backend();
  const auto backends = available_word_backends();
  std::printf("dataset: %zu examples x %zu features, %u hardware threads\n",
              n_examples, n_features, static_cast<unsigned>(hw));
  bench::report_word_backends(json);

  bool pass = true;
  // P=6 (the paper's S1 arity) and P=8 (M1/C1), RINC-2 hierarchies; the P=8
  // config uses fanin 4 to keep the LUT count comparable to the paper's
  // partial trees.
  for (const std::size_t p : {std::size_t{6}, std::size_t{8}}) {
    const std::size_t fanin = p == 6 ? 6 : 4;
    const RincModule module =
        random_rinc(/*level=*/2, fanin, /*leaf_arity=*/p, n_features, rng);
    std::printf("RINC-2, fanin %zu (%zu LUTs), P=%zu leaf arity:\n", fanin,
                module.lut_count(), p);

    BitVector scalar_out, sliced_out, threaded_out;
    const double scalar_s =
        time_best_of(3, [&] { scalar_out = module.eval_dataset(features); });
    report("scalar eval_dataset", scalar_s, n_examples, scalar_s);

    char key[64], label[64];
    std::snprintf(key, sizeof key, "eval_p%zu_scalar_ms", p);
    json.add(key, 1e3 * scalar_s);

    // One single-thread bitsliced row per available backend, all verified
    // bit-identical against the scalar output.
    double backend_s[3] = {0.0, 0.0, 0.0};
    for (const auto backend : backends) {
      set_word_backend(backend);
      const double sliced_s = time_best_of(
          5, [&] { sliced_out = module.eval_dataset_batched(features); });
      if (!(sliced_out == scalar_out)) {
        std::printf("  ERROR: %s output disagrees with scalar path\n",
                    word_backend_name(backend));
        return 1;
      }
      backend_s[static_cast<std::size_t>(backend)] = sliced_s;
      std::snprintf(label, sizeof label, "bitsliced (1t, %s)",
                    word_backend_name(backend));
      report(label, sliced_s, n_examples, scalar_s);
      std::snprintf(key, sizeof key, "eval_p%zu_bitsliced_%s_ms", p,
                    word_backend_name(backend));
      json.add(key, 1e3 * sliced_s);
    }
    set_word_backend(default_backend);
    const double sliced_s =
        backend_s[static_cast<std::size_t>(default_backend)];

    const BatchEngine engine(hw);
    const double threaded_s = time_best_of(
        5, [&] { threaded_out = engine.eval_dataset(module, features); });
    if (!(threaded_out == scalar_out)) {
      std::printf("  ERROR: threaded output disagrees with scalar path\n");
      return 1;
    }
    std::snprintf(label, sizeof label, "bitsliced (%u threads)",
                  static_cast<unsigned>(hw));
    report(label, threaded_s, n_examples, scalar_s);

    const double speedup = scalar_s / sliced_s;
    std::printf("  -> default backend 1-thread speedup: %.2fx (target 8x)\n",
                speedup);
    if (speedup < 8.0) pass = false;
    const double scalar64_s =
        backend_s[static_cast<std::size_t>(WordBackend::kScalar64)];
    const double avx2_s =
        backend_s[static_cast<std::size_t>(WordBackend::kAvx2)];
    if (p == 6 && avx2_s > 0.0) {
      const double widening = scalar64_s / avx2_s;
      std::printf("  -> avx2 vs scalar64 word path: %.2fx (target 1.5x)\n",
                  widening);
      json.add("eval_p6_avx2_vs_scalar64", widening);
      if (widening < 1.5) pass = false;
    }
    std::printf("\n");
    std::snprintf(key, sizeof key, "eval_p%zu_bitsliced_ms", p);
    json.add(key, 1e3 * sliced_s);
    std::snprintf(key, sizeof key, "eval_p%zu_threaded_ms", p);
    json.add(key, 1e3 * threaded_s);
    std::snprintf(key, sizeof key, "eval_p%zu_speedup_1t", p);
    json.add(key, speedup);
  }

  // --- Fused output-layer argmax (predict) per backend ----------------------
  const BatchEngine fused_engine(1);
  for (const std::size_t p : {std::size_t{6}, std::size_t{8}}) {
    const PoetBin model = random_model(p, n_features, rng);
    std::printf("PoET-BiN predict, 10 classes, P=%zu (%zu modules):\n", p,
                model.n_modules());
    std::vector<int> scalar_pred, fused_pred;
    const double scalar_s =
        time_best_of(3, [&] { scalar_pred = model.predict_dataset(features); });
    report("scalar predict_dataset", scalar_s, n_examples, scalar_s);
    char key[64], label[64];
    std::snprintf(key, sizeof key, "predict_p%zu_scalar_ms", p);
    json.add(key, 1e3 * scalar_s);
    for (const auto backend : backends) {
      set_word_backend(backend);
      const double fused_s = time_best_of(5, [&] {
        fused_pred = model.predict_dataset_batched(features, fused_engine);
      });
      if (fused_pred != scalar_pred) {
        std::printf("  ERROR: fused argmax (%s) disagrees with scalar\n",
                    word_backend_name(backend));
        return 1;
      }
      std::snprintf(label, sizeof label, "fused argmax (1t, %s)",
                    word_backend_name(backend));
      report(label, fused_s, n_examples, scalar_s);
      std::snprintf(key, sizeof key, "predict_p%zu_fused_%s_ms", p,
                    word_backend_name(backend));
      json.add(key, 1e3 * fused_s);
    }
    set_word_backend(default_backend);
    std::printf("\n");
  }

  // --- Serving: micro-batched predict_one vs one example at a time ----------
  // The MicroBatcher packs single-example requests into 64-wide windows and
  // dispatches each window as one fused bitsliced pass on the Runtime's
  // persistent engine (single thread here, so the row isolates the
  // batching win, not thread parallelism). Gate: >= 5x the scalar
  // one-example-at-a-time loop at P=6, window 64.
  for (const std::size_t p : {std::size_t{6}, std::size_t{8}}) {
    const PoetBin model = random_model(p, n_features, rng);
    std::printf("PoET-BiN serving, 10 classes, P=%zu, window 64:\n", p);
    std::vector<BitVector> rows;
    rows.reserve(n_examples);
    for (std::size_t i = 0; i < n_examples; ++i) {
      rows.push_back(features.row(i));
    }
    std::vector<int> single_pred(n_examples), served_pred(n_examples);
    const double single_s = time_best_of(3, [&] {
      for (std::size_t i = 0; i < n_examples; ++i) {
        single_pred[i] = model.predict(rows[i]);
      }
    });
    report("one example at a time", single_s, n_examples, single_s);

    const Runtime runtime(model, {.threads = 1});
    const double serve_s = time_best_of(5, [&] {
      MicroBatcher batcher(runtime, {.max_batch = 64});
      std::vector<MicroBatcher::Ticket> tickets;
      tickets.reserve(n_examples);
      for (std::size_t i = 0; i < n_examples; ++i) {
        tickets.push_back(batcher.submit(rows[i]));
      }
      batcher.flush();
      for (std::size_t i = 0; i < n_examples; ++i) {
        served_pred[i] = tickets[i].get();
      }
    });
    if (served_pred != single_pred) {
      std::printf("  ERROR: micro-batched serving disagrees with scalar\n");
      return 1;
    }
    report("micro-batched (window 64, 1t)", serve_s, n_examples, single_s);
    const double serve_speedup = single_s / serve_s;
    char key[64];
    std::snprintf(key, sizeof key, "serve_single_p%zu_ms", p);
    json.add(key, 1e3 * single_s);
    std::snprintf(key, sizeof key, "serve_microbatch_p%zu_ms", p);
    json.add(key, 1e3 * serve_s);
    std::snprintf(key, sizeof key, "serve_microbatch_p%zu_speedup", p);
    json.add(key, serve_speedup);
    if (p == 6) {
      std::printf("  -> micro-batching speedup: %.2fx (target 5x)\n",
                  serve_speedup);
      if (serve_speedup < 5.0) pass = false;
    }
    std::printf("\n");
  }

  // --- One serving window, priced against its op count --------------------
  // A MicroBatcher window of 64 requests is one word of the fused pass:
  // the same predict_dataset -> lut_reduce path as the offline rows, with
  // every kernel call covering a single word. Its expected cost is the
  // window's word muxes at the backend's lut_reduce peak; efficiency is
  // expected / measured. The batcher row times a whole MicroBatcher window
  // (64 submits, the pack, the predict, flush, 64 gets). Each rep times
  // every backend's predict and then one batcher window, so a host state
  // change that lasts many reps moves all of these minima together rather
  // than one row.
  {
    constexpr std::size_t kWindow = 64;
    constexpr std::size_t kWindowReps = 2000;
    const std::size_t p = 6;
    const PoetBin model = random_model(p, n_features, rng);
    const BitMatrix window = random_bits(kWindow, n_features, 4321);
    const std::vector<int> expected = model.predict_dataset(window);
    const Runtime runtime(model, {.threads = 1});
    const double muxes = static_cast<double>(predict_muxes(model));

    std::vector<BitVector> rows;
    rows.reserve(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) rows.push_back(window.row(i));
    MicroBatcher batcher(runtime, {.max_batch = kWindow});
    std::vector<MicroBatcher::Ticket> tickets;
    tickets.reserve(kWindow);
    std::vector<int> served(kWindow);

    std::vector<double> predict_s(backends.size(), 1e300);
    std::vector<std::vector<int>> got(backends.size());
    double batcher_s = 1e300;
    for (std::size_t rep = 0; rep < kWindowReps; ++rep) {
      for (std::size_t b = 0; b < backends.size(); ++b) {
        set_word_backend(backends[b]);
        predict_s[b] = std::min(predict_s[b], time_best_of(1, [&] {
                                  got[b] = runtime.predict(window);
                                }));
      }
      set_word_backend(default_backend);
      batcher_s = std::min(batcher_s, time_best_of(1, [&] {
                             tickets.clear();
                             for (const BitVector& row : rows) {
                               tickets.push_back(batcher.submit(row));
                             }
                             batcher.flush();
                             for (std::size_t i = 0; i < kWindow; ++i) {
                               served[i] = tickets[i].get();
                             }
                           }));
    }

    std::printf("One serving window, 10 classes, P=%zu, %zu rows "
                "(%.0f word muxes):\n",
                p, kWindow, muxes);
    double default_predict_s = 0.0;
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const WordBackend backend = backends[b];
      if (got[b] != expected) {
        std::printf("  ERROR: window predict (%s) disagrees with scalar\n",
                    word_backend_name(backend));
        return 1;
      }
      set_word_backend(backend);
      const double peak = lut_reduce_peak(p);
      const double expected_s = muxes / peak;
      std::printf("  window predict (%-8s)  %8.4f ms  op count at peak "
                  "%8.4f ms (%.2e mux/s)  efficiency %.3f\n",
                  word_backend_name(backend), 1e3 * predict_s[b],
                  1e3 * expected_s, peak, expected_s / predict_s[b]);
      char key[64];
      std::snprintf(key, sizeof key, "window_predict_%s_ms",
                    word_backend_name(backend));
      json.add(key, 1e3 * predict_s[b]);
      if (backend == default_backend) default_predict_s = predict_s[b];
    }
    set_word_backend(default_backend);
    if (served != expected) {
      std::printf("  ERROR: micro-batched window disagrees with scalar\n");
      return 1;
    }
    const double pack_share = (batcher_s - default_predict_s) / batcher_s;
    std::printf("  MicroBatcher window        %8.4f ms  (pack and handoff "
                "share beyond the predict %.2f)\n\n",
                1e3 * batcher_s, pack_share);
    json.add("window_batcher_ms", 1e3 * batcher_s);
    json.add("window_pack_share", pack_share);
  }

  json.add("acceptance_pass", pass ? 1.0 : 0.0);

  // Only gate at full scale: small runs (CI smoke at 0.25) are too noisy
  // for a hard threshold.
  if (bench::bench_scale() < 1.0) {
    std::printf("acceptance check skipped (scale < 1.0); measured %s target\n",
                pass ? "above" : "below");
    return 0;
  }
  std::printf(
      "acceptance (default >= 8x scalar; avx2 >= 1.5x scalar64 at P=6; "
      "micro-batch >= 5x single at P=6): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
