// Word-parallel (bitsliced) batch inference.
//
// BitMatrix stores a dataset feature-major as packed uint64 columns, so a
// P-input LUT can be evaluated for 64 examples at once: Shannon-expand the
// truth table over the P selected column *words* with pure AND/OR/XOR/NOT —
// no per-example address assembly. A RINC/MAT hierarchy is then a DAG of
// such word ops, and a whole dataset pass is an embarrassingly parallel
// loop over word indices, which BatchEngine chunks across a thread pool.
//
// Word kernels (`eval_lut_words`, `eval_rinc_words`) are exposed for tests
// and for callers that manage their own parallelism; everything else goes
// through `Lut::eval_dataset_bitsliced`, `RincModule::eval_dataset_batched`
// or a BatchEngine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

// Evaluates `lut` for the 64-example blocks [64*word_begin, 64*word_end) of
// `features`, writing one packed output word per block to `out` (which must
// hold word_end - word_begin words). If the range covers the dataset's last
// word, bits beyond features.rows() are zeroed.
void eval_lut_words(const Lut& lut, const BitMatrix& features,
                    std::size_t word_begin, std::size_t word_end,
                    std::uint64_t* out);

// Same contract for a whole RINC hierarchy: children are evaluated into
// word buffers and the MAT LUT combines them with word ops.
void eval_rinc_words(const RincModule& module, const BitMatrix& features,
                     std::size_t word_begin, std::size_t word_end,
                     std::uint64_t* out);

// Same contract over a *virtual* feature matrix given as column-word
// pointers: patch bit j resolves to patch_columns[j], absolute-indexed
// packed words (word w holds examples [64w, 64w + 64)) — a real input
// column, or a shared all-zero buffer for conv padding bits. This is what
// lets RincConvLayer::eval_dataset_batched skip the im2col materialization:
// the transpose is a pointer table, not a copied patch matrix.
void eval_rinc_patch_words(const RincModule& module,
                           const std::uint64_t* const* patch_columns,
                           std::size_t n_patch_bits, std::size_t n_rows,
                           std::size_t word_begin, std::size_t word_end,
                           std::uint64_t* out);

// Multithreaded batch driver. Owns a persistent pool of worker threads and
// chunks the example range (in whole words) across them. All eval methods
// return bit-identical results to the scalar paths; the pool is not
// re-entrant (one dataset pass at a time per engine — enforced by a cheap
// in-use check that aborts on overlapping parallel_for calls).
//
// predict_dataset fuses the output-layer argmax into the word pass: per
// chunk it evaluates the RINC bank into cache-resident word buffers,
// Shannon-reduces each output neuron's quantized code into bit-planes, and
// runs a bitsliced MSB-first comparator across classes — no per-example
// combo assembly, no materialized rinc_outputs matrix. Word kernels run on
// the active SIMD backend (util/word_backend.h).
class BatchEngine {
 public:
  // 0 = std::thread::hardware_concurrency(); 1 = run inline, no workers.
  explicit BatchEngine(std::size_t n_threads = 0);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  std::size_t n_threads() const { return n_threads_; }

  // Bitsliced equivalents of the scalar dataset paths.
  BitVector eval_dataset(const RincModule& module,
                         const BitMatrix& features) const;
  BitMatrix rinc_outputs(const PoetBin& model, const BitMatrix& features) const;
  std::vector<int> predict_dataset(const PoetBin& model,
                                   const BitMatrix& features) const;
  // Same pass into a caller buffer of features.rows() entries, so a caller
  // that predicts window after window (the MicroBatcher) reuses one buffer.
  void predict_dataset(const PoetBin& model, const BitMatrix& features,
                       std::span<int> predictions) const;
  double accuracy(const PoetBin& model, const BitMatrix& features,
                  const std::vector<int>& labels) const;

  // Runs fn(job) for job in [0, n_jobs) on the pool plus the calling
  // thread. Exposed for callers with custom per-chunk work.
  void parallel_for(std::size_t n_jobs,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  class ThreadPool;

  std::size_t n_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when n_threads_ == 1
  // Set while a parallel_for is dispatched to the pool; overlapping use
  // (from a job or from another thread) is a contract violation and aborts.
  mutable std::atomic<bool> busy_{false};
};

}  // namespace poetbin
