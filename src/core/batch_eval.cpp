#include "core/batch_eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/rinc_conv.h"
#include "util/aligned_vector.h"
#include "util/check.h"
#include "util/word_backend.h"

namespace poetbin {

namespace {

// All-ones in the positions a dataset of n_rows bits occupies within its
// last word (0 means the last word is full).
std::uint64_t tail_mask(std::size_t n_rows) {
  const std::size_t rem = n_rows & 63;
  return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
}

// Shared guts of the public word kernels once the splat table and the input
// word streams are resolved. `splat` is the LUT's precomputed splat words
// (Lut::splat_words — owned or viewing a packed-model mapping, so nothing
// is rebuilt per chunk). `columns[j]` must expose words
// [word_begin, word_end) of address bit j at offsets word_begin..; the
// kernels pass either BitMatrix column words (absolute indexing) or child
// scratch buffers (rebased to 0) through `base`. The Shannon reduction
// itself — the 2^P - 1 word muxes per output word — runs on the active SIMD
// word backend; only the dataset's last word needs the tail re-masked.
void reduce_words(const std::uint64_t* splat, std::size_t arity,
                  const std::uint64_t* const* columns, std::size_t word_begin,
                  std::size_t word_end, std::size_t base, std::size_t n_rows,
                  std::uint64_t* out) {
  word_ops().lut_reduce(splat, arity, columns, base, word_begin, word_end,
                        out);
  const std::size_t last_word = BitVector::words_needed(n_rows);
  if (word_begin < word_end && word_end == last_word) {
    out[word_end - 1 - word_begin] &= tail_mask(n_rows);
  }
}

// Per-thread scratch of the RINC walks, one frame per tree depth: that
// level's child output words and its LUT column pointers. A frame grows on
// first use and is reused by every later walk, so a warm walk allocates
// nothing. A deeper frame growing never moves a shallower frame's buffer
// (each frame owns its own heap block), so pointers a walk holds across
// its children's walks stay valid.
struct WalkScratch {
  std::vector<WordVec> words;
  std::vector<std::vector<const std::uint64_t*>> columns;
};

WalkScratch& walk_scratch() {
  static thread_local WalkScratch scratch;
  return scratch;
}

// Depth `depth`'s column-pointer frame, grown to at least n entries.
const std::uint64_t** column_frame(WalkScratch& scratch, std::size_t depth,
                                   std::size_t n) {
  if (scratch.columns.size() <= depth) scratch.columns.resize(depth + 1);
  std::vector<const std::uint64_t*>& frame = scratch.columns[depth];
  if (frame.size() < n) frame.resize(n);
  return frame.data();
}

// Depth `depth`'s child-output frame, grown to at least n words.
std::uint64_t* word_frame(WalkScratch& scratch, std::size_t depth,
                          std::size_t n) {
  if (scratch.words.size() <= depth) scratch.words.resize(depth + 1);
  WordVec& frame = scratch.words[depth];
  if (frame.size() < n) frame.resize(n);
  return frame.data();
}

// The RINC hierarchy as a DAG of word ops: children are reduced into
// chunk-rebased scratch words, then the MAT LUT combines them. No fan-in
// cap: packed files allow fan-in up to 16. `leaf_column(i)` resolves leaf
// input i to its absolute-indexed column words.
template <typename LeafColumn>
void walk_rinc(const RincModule& module, const LeafColumn& leaf_column,
               std::size_t n_rows, std::size_t word_begin,
               std::size_t word_end, WalkScratch& scratch, std::size_t depth,
               std::uint64_t* out) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    const std::size_t arity = lut.arity();
    const std::uint64_t** columns = column_frame(scratch, depth, arity);
    for (std::size_t j = 0; j < arity; ++j) {
      columns[j] = leaf_column(lut.inputs()[j]);
    }
    reduce_words(lut.splat_words().data(), arity, columns, word_begin,
                 word_end, /*base=*/0, n_rows, out);
    return;
  }
  const auto& children = module.children();
  const std::size_t fanin = children.size();
  const std::size_t n_words = word_end - word_begin;
  std::uint64_t* child_words = word_frame(scratch, depth, fanin * n_words);
  const std::uint64_t** columns = column_frame(scratch, depth, fanin);
  for (std::size_t c = 0; c < fanin; ++c) {
    columns[c] = child_words + c * n_words;
    walk_rinc(children[c], leaf_column, n_rows, word_begin, word_end, scratch,
              depth + 1, child_words + c * n_words);
  }
  // Child buffers are rebased to the chunk, hence base = word_begin.
  reduce_words(module.mat_lut().splat_words().data(), fanin, columns,
               word_begin, word_end, word_begin, n_rows, out);
}

}  // namespace

void eval_lut_words(const Lut& lut, const BitMatrix& features,
                    std::size_t word_begin, std::size_t word_end,
                    std::uint64_t* out) {
  POETBIN_CHECK(word_begin <= word_end);
  POETBIN_CHECK(word_end <= features.word_count());
  const std::size_t arity = lut.arity();
  const std::uint64_t** columns = column_frame(walk_scratch(), 0, arity);
  for (std::size_t j = 0; j < arity; ++j) {
    columns[j] = features.column_words(lut.inputs()[j]).data();
  }
  reduce_words(lut.splat_words().data(), arity, columns, word_begin,
               word_end, /*base=*/0, features.rows(), out);
}

void eval_rinc_words(const RincModule& module, const BitMatrix& features,
                     std::size_t word_begin, std::size_t word_end,
                     std::uint64_t* out) {
  POETBIN_CHECK(word_begin <= word_end);
  POETBIN_CHECK(word_end <= features.word_count());
  walk_rinc(
      module,
      [&features](std::size_t input) {
        return features.column_words(input).data();
      },
      features.rows(), word_begin, word_end, walk_scratch(), 0, out);
}

void eval_rinc_patch_words(const RincModule& module,
                           const std::uint64_t* const* patch_columns,
                           std::size_t n_patch_bits, std::size_t n_rows,
                           std::size_t word_begin, std::size_t word_end,
                           std::uint64_t* out) {
  POETBIN_CHECK(word_begin <= word_end);
  POETBIN_CHECK(word_end <= BitVector::words_needed(n_rows));
  walk_rinc(
      module,
      [patch_columns, n_patch_bits](std::size_t input) {
        POETBIN_CHECK(input < n_patch_bits);
        return patch_columns[input];
      },
      n_rows, word_begin, word_end, walk_scratch(), 0, out);
}

BitVector Lut::eval_dataset_bitsliced(const BitMatrix& features) const {
  BitVector out(features.rows());
  eval_lut_words(*this, features, 0, features.word_count(), out.words());
  return out;
}

BitVector RincModule::eval_dataset_batched(const BitMatrix& features) const {
  BitVector out(features.rows());
  eval_rinc_words(*this, features, 0, features.word_count(), out.words());
  return out;
}

// ---------------------------------------------------------------------------
// BatchEngine
// ---------------------------------------------------------------------------

// Persistent worker pool. Each parallel_for publishes a job function and a
// shared atomic job counter; workers (and the calling thread) drain it,
// and the caller blocks until every worker has gone back to sleep.
class BatchEngine::ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_workers) {
    threads_.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  void run(std::size_t n_jobs, const std::function<void(std::size_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      n_jobs_ = n_jobs;
      // order: relaxed — published to the workers by the mu_ unlock +
      // generation bump below (mutex release/acquire), not by this store.
      next_job_.store(0, std::memory_order_relaxed);
      workers_active_ = threads_.size();
      ++generation_;
    }
    cv_work_.notify_all();
    drain();
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return workers_active_ == 0; });
    job_ = nullptr;
  }

 private:
  void drain() {
    for (;;) {
      // order: relaxed — only the atomicity of the claim matters; job_ and
      // n_jobs_ were published by the mutex handoff in run(), and each
      // claimed index is touched by exactly one thread.
      const std::size_t job = next_job_.fetch_add(1, std::memory_order_relaxed);
      if (job >= n_jobs_) return;
      (*job_)(job);
    }
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--workers_active_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t n_jobs_ = 0;
  std::atomic<std::size_t> next_job_{0};
  std::size_t workers_active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

BatchEngine::BatchEngine(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads_ = n_threads;
  if (n_threads_ > 1) {
    // The calling thread participates in every parallel_for, so spawn one
    // fewer worker than the requested parallelism.
    pool_ = std::make_unique<ThreadPool>(n_threads_ - 1);
  }
}

BatchEngine::~BatchEngine() = default;

void BatchEngine::parallel_for(
    std::size_t n_jobs, const std::function<void(std::size_t)>& fn) const {
  if (pool_ == nullptr || n_jobs <= 1) {
    for (std::size_t job = 0; job < n_jobs; ++job) fn(job);
    return;
  }
  // The pool has one job slot; dispatching a second parallel_for while one
  // is in flight (from a job, or from another user thread) would corrupt it
  // silently. Fail fast instead. The flag is cleared by RAII so a throwing
  // job doesn't poison the engine for later (legal, sequential) calls.
  //
  // order: acquire on the exchange pairs with BusyReset's release below —
  // the lock-acquire half of a try-lock: when caller B's exchange reads the
  // false that caller A's reset stored, everything A's pass wrote (output
  // words included) happens-before B's pass. The flag is per-engine state,
  // so two engines on different Runtimes never contend here
  // (race_stress_test's TwoEnginesNeverFalseTripBusyGuard pins that down).
  POETBIN_CHECK_MSG(!busy_.exchange(true, std::memory_order_acquire),
                    "BatchEngine is not re-entrant: parallel_for called while "
                    "another parallel_for on the same engine is in flight; "
                    "use one engine per concurrent dataset pass");
  struct BusyReset {
    std::atomic<bool>* flag;
    // order: release is the unlock half of the handoff — it publishes this
    // pass's writes to the next exchange-acquire on the same engine.
    ~BusyReset() { flag->store(false, std::memory_order_release); }
  } reset{&busy_};  // busy_ is mutable, so &busy_ is non-const here
  pool_->run(n_jobs, fn);
}

namespace {

struct WordChunks {
  std::size_t n_words = 0;
  std::size_t chunk_words = 0;
  std::size_t n_chunks = 0;
};

// Word-aligned chunking of the example range: a few chunks per thread for
// load balance, but no smaller than 16 words (1024 examples) so every
// chunk runs whole SIMD blocks and the per-call costs — the AVX backends'
// lane broadcast of each table, the RINC walk, job dispatch — stay
// amortized. (Tables are splatted at load and walk scratch is per thread;
// neither is per chunk.)
WordChunks chunk_words(std::size_t n_words, std::size_t n_threads) {
  WordChunks chunks;
  chunks.n_words = n_words;
  if (n_words == 0) return chunks;
  const std::size_t target = std::max<std::size_t>(1, 4 * n_threads);
  chunks.chunk_words = std::max<std::size_t>(16, (n_words + target - 1) / target);
  chunks.n_chunks = (n_words + chunks.chunk_words - 1) / chunks.chunk_words;
  return chunks;
}

}  // namespace

BitVector BatchEngine::eval_dataset(const RincModule& module,
                                    const BitMatrix& features) const {
  BitVector out(features.rows());
  const WordChunks chunks = chunk_words(features.word_count(), n_threads_);
  parallel_for(chunks.n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * chunks.chunk_words;
    const std::size_t end = std::min(chunks.n_words, begin + chunks.chunk_words);
    eval_rinc_words(module, features, begin, end, out.words() + begin);
  });
  return out;
}

BitMatrix BatchEngine::rinc_outputs(const PoetBin& model,
                                    const BitMatrix& features) const {
  const auto& modules = model.modules();
  BitMatrix out(features.rows(), modules.size());
  // One job per (module, chunk): module count alone (nc x P) can be smaller
  // than the pool on large machines, and a single huge module should still
  // spread across threads.
  const WordChunks chunks = chunk_words(features.word_count(), n_threads_);
  parallel_for(modules.size() * chunks.n_chunks, [&](std::size_t job) {
    const std::size_t m = job / chunks.n_chunks;
    const std::size_t chunk = job % chunks.n_chunks;
    const std::size_t begin = chunk * chunks.chunk_words;
    const std::size_t end = std::min(chunks.n_words, begin + chunks.chunk_words);
    eval_rinc_words(modules[m], features, begin, end,
                    out.column(m).words() + begin);
  });
  return out;
}

std::vector<int> BatchEngine::predict_dataset(const PoetBin& model,
                                              const BitMatrix& features) const {
  const std::size_t n = features.rows();
  const auto& neurons = model.output_neurons();
  std::vector<int> predictions(n, 0);
  // With zero or one output neuron every example is class 0 (the scalar
  // argmax initializes to class 0), and there is nothing to compare.
  if (n == 0 || neurons.size() <= 1) return predictions;

  const auto& modules = model.modules();
  const std::size_t p = model.lut_inputs();
  const std::size_t n_combos = std::size_t{1} << p;

  // Code bit-planes: each plane of each neuron's code is a boolean
  // function of its P input bits, so it Shannon-reduces with the same word
  // kernel as the LUT layers — the argmax becomes pure word ops. The model
  // holds the planes precomputed (PoetBin::code_plane), owned on the heap
  // or viewing a packed-model mapping; nothing is splatted per call.
  for (const auto& neuron : neurons) {
    POETBIN_CHECK(neuron.input_modules.size() == p);
    POETBIN_CHECK(neuron.codes.size() == n_combos);
  }
  const std::size_t n_planes = model.code_plane_count();
  POETBIN_CHECK_MSG(n_planes >= 1, "model has no code planes");
  const std::size_t n_class_planes =
      static_cast<std::size_t>(std::bit_width(neurons.size() - 1));

  const WordOps& ops = word_ops();
  const WordChunks chunks = chunk_words(features.word_count(), n_threads_);
  parallel_for(chunks.n_chunks, [&](std::size_t chunk) {
    const std::size_t word_begin = chunk * chunks.chunk_words;
    const std::size_t word_end =
        std::min(chunks.n_words, word_begin + chunks.chunk_words);
    const std::size_t n_chunk = word_end - word_begin;

    // Chunk-sized word buffers, reused across chunks per worker thread: the
    // RINC bank's outputs, the candidate/best code planes and the class
    // index planes all stay cache-resident — predict never materializes an
    // n-row intermediate matrix.
    static thread_local WordVec module_words, cand, best, cls;
    static thread_local std::vector<const std::uint64_t*> columns;
    static thread_local std::vector<std::uint64_t*> cand_ptrs, best_ptrs,
        cls_ptrs;
    module_words.resize(modules.size() * n_chunk);
    cand.resize(n_planes * n_chunk);
    best.resize(n_planes * n_chunk);
    cls.assign(n_class_planes * n_chunk, 0);
    columns.resize(p);
    cand_ptrs.resize(n_planes);
    best_ptrs.resize(n_planes);
    cls_ptrs.resize(n_class_planes);
    for (std::size_t plane = 0; plane < n_planes; ++plane) {
      cand_ptrs[plane] = cand.data() + plane * n_chunk;
      best_ptrs[plane] = best.data() + plane * n_chunk;
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      cls_ptrs[q] = cls.data() + q * n_chunk;
    }

    for (std::size_t m = 0; m < modules.size(); ++m) {
      eval_rinc_words(modules[m], features, word_begin, word_end,
                      module_words.data() + m * n_chunk);
    }

    for (std::size_t c = 0; c < neurons.size(); ++c) {
      for (std::size_t j = 0; j < p; ++j) {
        columns[j] =
            module_words.data() + neurons[c].input_modules[j] * n_chunk;
      }
      // Class 0 seeds the running best directly; later classes reduce into
      // the candidate planes and run the bitsliced comparator. Bits beyond
      // n in the dataset's last word carry garbage codes, but the
      // extraction below never reads them.
      std::uint64_t* const* out_ptrs = c == 0 ? best_ptrs.data()
                                              : cand_ptrs.data();
      for (std::size_t plane = 0; plane < n_planes; ++plane) {
        ops.lut_reduce(model.code_plane(c, plane), p, columns.data(),
                       word_begin, word_begin, word_end, out_ptrs[plane]);
      }
      if (c != 0) {
        ops.argmax_update(cand_ptrs.data(), best_ptrs.data(), n_planes,
                          cls_ptrs.data(), n_class_planes,
                          static_cast<std::uint32_t>(c), n_chunk);
      }
    }

    // Un-slice the class-index planes into per-example predictions.
    for (std::size_t w = 0; w < n_chunk; ++w) {
      const std::size_t row0 = (word_begin + w) * 64;
      const std::size_t rows = std::min<std::size_t>(64, n - row0);
      for (std::size_t q = 0; q < n_class_planes; ++q) {
        const std::uint64_t plane_bits = cls[q * n_chunk + w];
        for (std::size_t i = 0; i < rows; ++i) {
          predictions[row0 + i] |=
              static_cast<int>((plane_bits >> i) & 1u) << q;
        }
      }
    }
  });
  return predictions;
}

double BatchEngine::accuracy(const PoetBin& model, const BitMatrix& features,
                             const std::vector<int>& labels) const {
  return prediction_accuracy(predict_dataset(model, features), labels);
}

// --- PoetBin conveniences (declared in poetbin.h) --------------------------

BitMatrix PoetBin::rinc_outputs_batched(const BitMatrix& features,
                                        const BatchEngine& engine) const {
  return engine.rinc_outputs(*this, features);
}

std::vector<int> PoetBin::predict_dataset_batched(
    const BitMatrix& features, const BatchEngine& engine) const {
  return engine.predict_dataset(*this, features);
}

double PoetBin::accuracy_batched(const BitMatrix& features,
                                 const std::vector<int>& labels,
                                 const BatchEngine& engine) const {
  return engine.accuracy(*this, features, labels);
}

// --- RincConvLayer / ConvModel (declared in core/rinc_conv.h) --------------

BitMatrix RincConvLayer::eval_dataset_batched(const BitMatrix& inputs,
                                              const BatchEngine& engine) const {
  POETBIN_CHECK(inputs.cols() == in_shape_.flat());
  const std::size_t n = inputs.rows();
  const std::size_t positions = out_shape_.height * out_shape_.width;
  const std::size_t n_bits = patch_bits();
  BitMatrix out(n, out_shape_.flat());
  if (n == 0 || modules_.empty()) return out;

  // One shared all-zero column backs every padding bit of every position:
  // "padding bits pre-masked" is simply reading packed zeros.
  const WordVec zeros(inputs.word_count(), 0);

  // The im2col transpose as pointers instead of copied bits:
  // table[p * n_bits + j] is the packed input column behind patch bit j of
  // output position p (same c -> ky -> kx bit order as gather_patches).
  std::vector<const std::uint64_t*> table(positions * n_bits);
  const std::size_t in_h = in_shape_.height;
  const std::size_t in_w = in_shape_.width;
  const std::size_t plane = in_h * in_w;
  const std::size_t kernel = config_.kernel;
  for (std::size_t oy = 0; oy < out_shape_.height; ++oy) {
    for (std::size_t ox = 0; ox < out_shape_.width; ++ox) {
      const std::size_t p = oy * out_shape_.width + ox;
      std::size_t bit = 0;
      for (std::size_t c = 0; c < in_shape_.channels; ++c) {
        for (std::size_t ky = 0; ky < kernel; ++ky) {
          const long iy = static_cast<long>(oy * config_.stride + ky) -
                          static_cast<long>(config_.padding);
          for (std::size_t kx = 0; kx < kernel; ++kx, ++bit) {
            const long ix = static_cast<long>(ox * config_.stride + kx) -
                            static_cast<long>(config_.padding);
            const bool in_frame = iy >= 0 && ix >= 0 &&
                                  iy < static_cast<long>(in_h) &&
                                  ix < static_cast<long>(in_w);
            table[p * n_bits + bit] =
                in_frame ? inputs
                               .column_words(c * plane +
                                             static_cast<std::size_t>(iy) *
                                                 in_w +
                                             static_cast<std::size_t>(ix))
                               .data()
                         : zeros.data();
          }
        }
      }
    }
  }

  // One job per (channel, position, chunk): each writes a disjoint word
  // range of one output column, so any thread count is race-free and
  // bit-identical (word kernels are exact).
  const WordChunks chunks =
      chunk_words(inputs.word_count(), engine.n_threads());
  engine.parallel_for(
      modules_.size() * positions * chunks.n_chunks, [&](std::size_t job) {
        const std::size_t channel = job / (positions * chunks.n_chunks);
        const std::size_t rest = job % (positions * chunks.n_chunks);
        const std::size_t p = rest / chunks.n_chunks;
        const std::size_t chunk = rest % chunks.n_chunks;
        const std::size_t begin = chunk * chunks.chunk_words;
        const std::size_t end =
            std::min(chunks.n_words, begin + chunks.chunk_words);
        eval_rinc_patch_words(
            modules_[channel], table.data() + p * n_bits, n_bits, n, begin,
            end, out.column(channel * positions + p).words() + begin);
      });
  return out;
}

std::vector<int> ConvModel::predict_dataset_batched(
    const BitMatrix& frames, const BatchEngine& engine) const {
  // Two sequential passes on one engine (parallel_for is not re-entrant,
  // but back-to-back calls are the intended use).
  return engine.predict_dataset(classifier,
                                conv.eval_dataset_batched(frames, engine));
}

}  // namespace poetbin
