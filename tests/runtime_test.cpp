// Serving-layer contract: a Runtime (loaded from disk or trained in
// memory) and a MicroBatcher on top of it must reproduce the scalar
// PoetBin reference bit for bit — under every SIMD word backend, at any
// thread count, against the materialized RINC bank, and under concurrent
// producers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/serialize.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "serve/serve_stats.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace poetbin {
namespace {

struct ServeFixture {
  BinaryDataset data;
  PoetBin model;
  std::vector<int> scalar_preds;   // the oracle every path must match
  std::vector<BitVector> rows;     // per-example request bits
  double scalar_accuracy = 0.0;
};

// One trained model shared by every test in this file (training dominates
// the suite's runtime; the serving paths under test never mutate it).
const ServeFixture& fixture() {
  static const ServeFixture* fx = [] {
    auto* f = new ServeFixture;
    f->data = testing::prototype_dataset(600, 64, 21);
    const std::size_t p = 4;
    BitMatrix intermediate(f->data.size(), f->data.n_classes * p);
    Rng rng(31);
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        const bool is_class = f->data.labels[i] == static_cast<int>(j / p);
        intermediate.set(i, j, is_class != rng.next_bool(0.05));
      }
    }
    PoetBinConfig config;
    config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
    config.n_classes = f->data.n_classes;
    config.output.epochs = 40;
    config.threads = 1;
    f->model = PoetBin::train(f->data.features, intermediate, f->data.labels,
                              config);
    f->scalar_preds = f->model.predict_dataset(f->data.features);
    f->scalar_accuracy = f->model.accuracy(f->data.features, f->data.labels);
    f->rows.reserve(f->data.size());
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      f->rows.push_back(f->data.features.row(i));
    }
    return f;
  }();
  return *fx;
}

// The fused argmax against the materialized path: the same RINC bank
// evaluated word-parallel on an engine, then the scalar argmax over it.
TEST(Runtime, PredictMatchesScalarFusedAndMaterialized) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 2});
  const BatchEngine engine(2);
  const std::vector<int> materialized = fx.model.predict_from_rinc_bits(
      engine.rinc_outputs(fx.model, fx.data.features));
  EXPECT_EQ(materialized, fx.scalar_preds);
  EXPECT_EQ(runtime.predict(fx.data.features), materialized);
  EXPECT_DOUBLE_EQ(runtime.accuracy(fx.data.features, fx.data.labels),
                   fx.scalar_accuracy);
}

TEST(Runtime, PredictOneMatchesScalar) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(runtime.predict_one(fx.rows[i]), fx.scalar_preds[i]);
  }
}

TEST(Runtime, RincOutputsMatchScalar) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 3});
  EXPECT_EQ(runtime.rinc_outputs(fx.data.features),
            fx.model.rinc_outputs(fx.data.features));
}

// The satellite contract: save a trained model, reload it under each
// forced backend and several thread counts, and every Runtime (and a
// MicroBatcher on top of it) predicts bit-identically to the scalar
// PoetBin::predict_dataset of the original model.
TEST(Runtime, SerializedReloadIsBitIdenticalUnderEveryBackend) {
  const ServeFixture& fx = fixture();
  testing::BackendGuard guard;
  const std::string path = ::testing::TempDir() + "/runtime_model.txt";
  {
    const Runtime writer(fx.model, {.threads = 1});
    ASSERT_TRUE(writer.save(path).ok());
  }
  for (const WordBackend backend : available_word_backends()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{5}}) {
      Runtime::LoadResult runtime =
          Runtime::load(path, {.threads = threads, .forced_backend = backend});
      ASSERT_TRUE(runtime.ok());
      EXPECT_EQ(runtime->backend(), backend);
      EXPECT_EQ(runtime->threads(), threads);
      EXPECT_EQ(runtime->predict(fx.data.features), fx.scalar_preds)
          << word_backend_name(backend) << " x " << threads << " threads";

      MicroBatcher batcher(*runtime, {.max_batch = 64});
      std::vector<MicroBatcher::Ticket> tickets;
      tickets.reserve(fx.rows.size());
      for (const BitVector& row : fx.rows) {
        tickets.push_back(batcher.submit(row));
      }
      batcher.flush();
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        ASSERT_EQ(tickets[i].get(), fx.scalar_preds[i])
            << word_backend_name(backend) << " x " << threads
            << " threads, example " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Runtime, LoadMissingFileReturnsTypedError) {
  Runtime::LoadResult result = Runtime::load("/nonexistent/dir/model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
  // The message names the offending path so callers can log it verbatim.
  EXPECT_NE(result.error().message.find("/nonexistent/dir/model.txt"),
            std::string::npos);
}

TEST(Runtime, RetrainOutputLayerMatchesScalarRetrain) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 2});
  runtime.retrain_output_layer(fx.data.features, fx.data.labels);

  PoetBin reference = fx.model;
  reference.retrain_output_layer(reference.rinc_outputs(fx.data.features),
                                 fx.data.labels, /*engine=*/nullptr);
  for (std::size_t c = 0; c < reference.n_classes(); ++c) {
    EXPECT_EQ(runtime.model().output_neurons()[c].codes,
              reference.output_neurons()[c].codes);
    EXPECT_EQ(runtime.model().output_neurons()[c].weights,
              reference.output_neurons()[c].weights);
  }
}

TEST(MicroBatcher, SubmitPacksFullWindows) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 64});
  std::vector<MicroBatcher::Ticket> tickets;
  tickets.reserve(fx.rows.size());
  for (const BitVector& row : fx.rows) {
    tickets.push_back(batcher.submit(row));
  }
  batcher.flush();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(tickets[i].get(), fx.scalar_preds[i]) << "example " << i;
  }
  // 600 examples = 9 full 64-wide windows + one 24-example flush.
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, fx.rows.size());
  EXPECT_EQ(stats.batches, (fx.rows.size() + 63) / 64);
  EXPECT_EQ(stats.timeouts, 0u);  // flush() is not a leader timeout
  // Window-fill histogram: the 9 full windows land in the last bucket, the
  // 24/64 flush window in bucket ceil(24*8/64)-1 = 2.
  EXPECT_EQ(stats.window_fill[ServeStats::kFillBuckets - 1], 9u);
  EXPECT_EQ(stats.window_fill[2], 1u);
  EXPECT_DOUBLE_EQ(stats.mean_window_fill(), 600.0 / 10.0);
}

// The batching policy is work-conserving: with nothing else in flight, a
// waiting leader dispatches its partial window at once. max_wait is 10 s
// in these tests, so a request that sat out the timer would blow the 1 s
// bound by an order of magnitude.
constexpr auto kLongWait = std::chrono::seconds(10);
constexpr auto kPromptly = std::chrono::seconds(1);

TEST(MicroBatcher, BlockingRequestAloneDispatchesAtOnce) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  // Nobody else joins the window and the engine is idle: the leader must
  // dispatch its partial batch without waiting and match the scalar path.
  MicroBatcher batcher(runtime, {.max_batch = 64, .max_wait = kLongWait});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.predict_one(fx.rows[0]), fx.scalar_preds[0]);
  EXPECT_LT(std::chrono::steady_clock::now() - start, kPromptly);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.timeouts, 0u);  // an idle engine is not a timeout
  EXPECT_EQ(stats.window_fill[0], 1u);  // 1/64 fill -> first bucket
}

TEST(MicroBatcher, BlockingRequestAfterAsyncSubmitDispatchesAtOnce) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 64, .max_wait = kLongWait});
  // A submit() opens the window, so the blocking request lands in slot 1.
  // It must still lead the window out — leadership follows the first
  // *blocking* request, not slot 0 (a slot-0-only rule left this
  // predict_one waiting forever) — and take the submitted example along.
  const auto start = std::chrono::steady_clock::now();
  MicroBatcher::Ticket ticket = batcher.submit(fx.rows[0]);
  EXPECT_EQ(batcher.predict_one(fx.rows[1]), fx.scalar_preds[1]);
  EXPECT_EQ(ticket.get(), fx.scalar_preds[0]);
  EXPECT_EQ(ticket.get(), fx.scalar_preds[0]);  // get() again: same answer
  EXPECT_LT(std::chrono::steady_clock::now() - start, kPromptly);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.timeouts, 0u);
}

// Eight blocking producers with a 10 s max_wait: every window either goes
// out on an idle engine or is woken by the in-flight window's completion,
// so the run finishes far inside one max_wait and no request is stranded
// on the timer.
TEST(MicroBatcher, ConcurrentProducersNeverWaitOutMaxWait) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 64, .max_wait = kLongWait});
  const std::size_t n_producers = 8;
  const std::size_t n = fx.rows.size();
  std::vector<int> served(n, -1);
  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < n_producers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += n_producers) {
        served[i] = batcher.predict_one(fx.rows[i]);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kPromptly);
  EXPECT_EQ(served, fx.scalar_preds);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST(MicroBatcher, ZeroWaitDispatchesImmediately) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::microseconds(0)});
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batcher.predict_one(fx.rows[i]), fx.scalar_preds[i]);
  }
}

TEST(MicroBatcher, WindowOfOne) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 1});
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batcher.predict_one(fx.rows[i]), fx.scalar_preds[i]);
  }
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 10u);
  EXPECT_EQ(stats.timeouts, 0u);  // windows of one fill instantly
}

TEST(MicroBatcher, FlushOnDestructionCompletesOutstandingTickets) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  std::vector<MicroBatcher::Ticket> tickets;
  {
    MicroBatcher batcher(runtime, {.max_batch = 64});
    for (std::size_t i = 0; i < 10; ++i) {
      tickets.push_back(batcher.submit(fx.rows[i]));
    }
    // Tickets for a dispatched batch may outlive the batcher; resolve them
    // before it dies (get() after destruction is a use-after-free by
    // contract, so pull the results while flushing).
    batcher.flush();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      EXPECT_EQ(tickets[i].get(), fx.scalar_preds[i]);
    }
  }
}

// Windows of fill 1/17/63/64 under window sizes 8/64/128 (a fill above
// max_batch spans several windows), on every backend, must reproduce
// scalar PoetBin::predict: the block-transpose pack, the zeroed rows past
// the fill and the reused window matrix all sit on this path.
void expect_window_fills_match_scalar(const PoetBin& model,
                                      const std::vector<BitVector>& rows) {
  std::vector<int> expected(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expected[i] = model.predict(rows[i]);
  }
  testing::BackendGuard guard;
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    const Runtime runtime(model, {.threads = 1});
    for (const std::size_t max_batch :
         {std::size_t{8}, std::size_t{64}, std::size_t{128}}) {
      MicroBatcher batcher(runtime, {.max_batch = max_batch,
                                     .max_wait = std::chrono::seconds(10)});
      std::size_t next = 0;
      for (const std::size_t fill : {std::size_t{1}, std::size_t{17},
                                     std::size_t{63}, std::size_t{64}}) {
        std::vector<MicroBatcher::Ticket> tickets;
        tickets.reserve(fill);
        for (std::size_t i = 0; i < fill; ++i) {
          tickets.push_back(batcher.submit(rows[(next + i) % rows.size()]));
        }
        batcher.flush();
        for (std::size_t i = 0; i < fill; ++i) {
          const std::size_t row = (next + i) % rows.size();
          ASSERT_EQ(tickets[i].get(), expected[row])
              << word_backend_name(backend) << " max_batch=" << max_batch
              << " fill=" << fill << " row=" << row;
        }
        next += fill;
      }
    }
  }
}

TEST(MicroBatcher, WindowFillsMatchScalarOnEveryBackend) {
  const ServeFixture& fx = fixture();
  expect_window_fills_match_scalar(fx.model, fx.rows);
}

TEST(MicroBatcher, MultiWordRaggedRowsMatchScalarOnEveryBackend) {
  constexpr std::size_t kFeatures = 130;  // three feature words, ragged
  Rng rng(97);
  const PoetBin model = testing::random_rinc1_model(
      /*n_classes=*/3, /*p=*/4, kFeatures, rng);
  const BitMatrix features = testing::random_bits(300, kFeatures, 98);
  std::vector<BitVector> rows;
  rows.reserve(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    rows.push_back(features.row(i));
  }
  expect_window_fills_match_scalar(model, rows);
}

// The acceptance stress: >= 8 concurrent producers hammering predict_one
// must each get back exactly what scalar predict would return for their
// example, regardless of how requests interleave into windows.
TEST(MicroBatcher, ConcurrentProducersAreBitIdentical) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 32,
                        .max_wait = std::chrono::microseconds(2000)});
  const std::size_t n_producers = 8;
  const std::size_t n = fx.rows.size();
  std::vector<int> served(n, -1);
  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  for (std::size_t t = 0; t < n_producers; ++t) {
    producers.emplace_back([&, t] {
      // Strided slices so producers interleave within the same windows.
      for (std::size_t i = t; i < n; i += n_producers) {
        served[i] = batcher.predict_one(fx.rows[i]);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(served, fx.scalar_preds);
  EXPECT_EQ(batcher.stats().requests, n);
}

// Same stress through the engine-threaded runtime and a second backend, in
// case dispatch overlaps engine parallelism in interesting ways.
TEST(MicroBatcher, ConcurrentProducersWithThreadedEngine) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 4});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::microseconds(1000)});
  const std::size_t n_producers = 12;
  const std::size_t n = fx.rows.size();
  std::vector<int> served(n, -1);
  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  for (std::size_t t = 0; t < n_producers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += n_producers) {
        served[i] = batcher.predict_one(fx.rows[i]);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(served, fx.scalar_preds);
}

// The caller-supplied-engine overloads match the scalar paths (these are
// the only batched entry points now that the n_threads shims are gone).
TEST(PoetBinEngineOverloads, CallerSuppliedEngineMatchesScalar) {
  const ServeFixture& fx = fixture();
  const BatchEngine engine(3);
  EXPECT_EQ(fx.model.predict_dataset_batched(fx.data.features, engine),
            fx.scalar_preds);
  EXPECT_EQ(fx.model.rinc_outputs_batched(fx.data.features, engine),
            fx.model.rinc_outputs(fx.data.features));
  EXPECT_DOUBLE_EQ(
      fx.model.accuracy_batched(fx.data.features, fx.data.labels, engine),
      fx.scalar_accuracy);
}

}  // namespace
}  // namespace poetbin
