// End-to-end contract for the TCP serving front end: a trained model served
// over loopback must reproduce the scalar PoetBin reference bit for bit
// under concurrent pipelined clients, answer kInfo/kStats, reject malformed
// and wrong-width requests with clean per-frame errors (keeping the
// connection alive), and shut down gracefully.
#include "serve/net_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/net_client.h"
#include "serve/protocol.h"
#include "serve/runtime.h"
#include "test_util.h"

namespace poetbin {
namespace {

struct ServeFixture {
  BinaryDataset data;
  PoetBin model;
  std::vector<int> scalar_preds;
  std::vector<BitVector> rows;
};

// One trained model shared by every test in this file (training dominates
// the suite's runtime; the serving paths under test never mutate it).
const ServeFixture& fixture() {
  static const ServeFixture* fx = [] {
    auto* f = new ServeFixture;
    f->data = testing::prototype_dataset(400, 64, 23);
    const std::size_t p = 4;
    BitMatrix intermediate(f->data.size(), f->data.n_classes * p);
    Rng rng(37);
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        const bool is_class = f->data.labels[i] == static_cast<int>(j / p);
        intermediate.set(i, j, is_class != rng.next_bool(0.05));
      }
    }
    PoetBinConfig config;
    config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
    config.n_classes = f->data.n_classes;
    config.output.epochs = 30;
    config.threads = 1;
    f->model = PoetBin::train(f->data.features, intermediate, f->data.labels,
                              config);
    f->scalar_preds = f->model.predict_dataset(f->data.features);
    f->rows.reserve(f->data.size());
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      f->rows.push_back(f->data.features.row(i));
    }
    return f;
  }();
  return *fx;
}

NetServerOptions loopback_options(bool micro_batch) {
  NetServerOptions options;
  options.port = 0;  // ephemeral
  options.micro_batch = micro_batch;
  options.max_batch = 16;
  options.max_wait = std::chrono::microseconds(200);
  // The fixture's rows are dataset-width; force the served width to match
  // instead of deriving it from the model's referenced features.
  options.n_features = 64;
  return options;
}

TEST(NetServer, LoopbackPredictionsMatchScalarUnderConcurrency) {
  const ServeFixture& fx = fixture();
  for (const bool micro_batch : {true, false}) {
    Runtime runtime(fx.model, {.threads = 1});
    NetServer server(runtime, loopback_options(micro_batch));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr std::size_t kThreads = 8;
    std::vector<int> served(fx.rows.size(), -1);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        NetClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        // Pipelined bursts over this thread's slice of the dataset.
        std::vector<const BitVector*> burst;
        std::vector<std::size_t> burst_rows;
        std::vector<wire::Response> responses;
        for (std::size_t i = t; i < fx.rows.size(); i += kThreads) {
          burst.push_back(&fx.rows[i]);
          burst_rows.push_back(i);
          if (burst.size() == 8 || i + kThreads >= fx.rows.size()) {
            ASSERT_TRUE(client.predict_pipelined(burst, &responses));
            ASSERT_EQ(responses.size(), burst.size());
            for (std::size_t b = 0; b < burst.size(); ++b) {
              ASSERT_EQ(responses[b].status, wire::Status::kOk);
              served[burst_rows[b]] = responses[b].prediction;
            }
            burst.clear();
            burst_rows.clear();
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    EXPECT_EQ(served, fx.scalar_preds) << "micro_batch=" << micro_batch;

    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.requests, fx.rows.size());
    EXPECT_EQ(stats.connections, kThreads);
    EXPECT_EQ(stats.errors, 0u);
    if (micro_batch) {
      EXPECT_GT(stats.batches, 0u);
    }
    server.stop();
  }
}

TEST(NetServer, InfoReportsServedShape) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  wire::Response info;
  ASSERT_TRUE(client.info(&info));
  ASSERT_EQ(info.status, wire::Status::kOk);
  EXPECT_EQ(info.n_features, 64u);
  EXPECT_EQ(info.n_classes, fx.model.n_classes());
  server.stop();
}

TEST(NetServer, DerivedFeatureWidthCoversEveryReferencedFeature) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServerOptions options = loopback_options(true);
  options.n_features = 0;  // derive from the model
  NetServer server(runtime, options);
  ASSERT_TRUE(server.start());
  EXPECT_GT(server.n_features(), 0u);
  EXPECT_LE(server.n_features(), 64u);
  // A request of exactly the derived width is served.
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  wire::Response response;
  ASSERT_TRUE(client.predict(BitVector(server.n_features()), &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  server.stop();
}

TEST(NetServer, WrongWidthIsRejectedAndConnectionSurvives) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  wire::Response response;
  ASSERT_TRUE(client.predict(BitVector(13), &response));
  EXPECT_EQ(response.status, wire::Status::kWrongFeatureWidth);

  // The rejection is per-frame: the same connection still serves.
  ASSERT_TRUE(client.predict(fx.rows[0], &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.prediction, fx.scalar_preds[0]);

  EXPECT_EQ(server.stats().errors, 1u);
  server.stop();
}

TEST(NetServer, MalformedFramesGetCleanErrorReplies) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Three bad frames in one write: unknown type, zero-bit predict, and an
  // info request with trailing bytes. Each gets its own error response.
  std::vector<std::uint8_t> bytes = {1, 0, 0, 0, 42};          // unknown type
  const std::vector<std::uint8_t> empty = {5, 0, 0, 0, 1, 0, 0, 0, 0};
  bytes.insert(bytes.end(), empty.begin(), empty.end());
  const std::vector<std::uint8_t> trailing = {2, 0, 0, 0, 2, 9};
  bytes.insert(bytes.end(), trailing.begin(), trailing.end());

  std::vector<wire::Response> responses;
  ASSERT_TRUE(client.roundtrip_raw(bytes, 3, &responses));
  EXPECT_EQ(responses[0].status, wire::Status::kUnknownType);
  EXPECT_EQ(responses[1].status, wire::Status::kEmptyInput);
  EXPECT_EQ(responses[2].status, wire::Status::kBadFrame);

  // Still alive afterwards.
  wire::Response response;
  ASSERT_TRUE(client.predict(fx.rows[1], &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.prediction, fx.scalar_preds[1]);
  EXPECT_EQ(server.stats().errors, 3u);
  server.stop();
}

TEST(NetServer, OversizedFrameAnswersThenCloses) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  const std::uint32_t length = wire::kMaxFramePayload + 1;
  const std::vector<std::uint8_t> bytes = {
      static_cast<std::uint8_t>(length), static_cast<std::uint8_t>(length >> 8),
      static_cast<std::uint8_t>(length >> 16),
      static_cast<std::uint8_t>(length >> 24)};
  std::vector<wire::Response> responses;
  ASSERT_TRUE(client.roundtrip_raw(bytes, 1, &responses));
  EXPECT_EQ(responses[0].status, wire::Status::kOversized);

  // The stream cannot be re-synchronised, so the server hangs up; the next
  // round trip fails at the transport level.
  wire::Response response;
  EXPECT_FALSE(client.predict(fx.rows[0], &response));
  server.stop();
}

TEST(NetServer, StatsRequestReturnsLiveCounters) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < 5; ++i) {
    wire::Response response;
    ASSERT_TRUE(client.predict(fx.rows[i], &response));
    ASSERT_EQ(response.status, wire::Status::kOk);
  }
  wire::Response stats;
  ASSERT_TRUE(client.query_stats(&stats));
  ASSERT_EQ(stats.status, wire::Status::kOk);
  EXPECT_EQ(stats.stats.requests, 5u);
  EXPECT_EQ(stats.stats.connections, 1u);
  EXPECT_EQ(stats.stats.errors, 0u);
  server.stop();
}

// The net path calls Ticket::get() right after submitting its round, so on
// an idle server that get() leads the partial window out at once: with a
// 10 s max_wait, a lone kPredict is still answered well inside 1 s.
TEST(NetServer, LonePredictOnIdleServerIsAnsweredAtOnce) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServerOptions options = loopback_options(true);
  options.max_wait = std::chrono::seconds(10);
  NetServer server(runtime, options);
  ASSERT_TRUE(server.start());
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto start = std::chrono::steady_clock::now();
  wire::Response response;
  ASSERT_TRUE(client.predict(fx.rows[0], &response));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  ASSERT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.prediction, fx.scalar_preds[0]);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  server.stop();
}

// Threads of this process (entries of /proc/self/task).
std::size_t process_thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// Accessible (not PROT_NONE) mapped memory of this process in KiB, from
// /proc/self/maps. A thread that exited but was never joined keeps its
// stack mapped read-write, so unjoined handlers show here even after their
// kernel tasks are gone. VmSize would also count glibc's malloc arenas:
// each thread that mallocs while every arena is attached to a live thread
// gets a new one, and each reserves 64 MiB of PROT_NONE address space, so
// quick connection turnover grows VmSize with no stack left behind.
std::size_t process_accessible_kib() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  std::size_t total = 0;
  while (std::getline(maps, line)) {
    // "start-end perms offset dev inode [path]", addresses in hex.
    const std::size_t dash = line.find('-');
    const std::size_t space = line.find(' ');
    if (dash == std::string::npos || space == std::string::npos) continue;
    if (line.compare(space + 1, 3, "---") == 0) continue;
    const std::uint64_t start = std::stoull(line.substr(0, dash), nullptr, 16);
    const std::uint64_t end =
        std::stoull(line.substr(dash + 1, space - dash - 1), nullptr, 16);
    total += static_cast<std::size_t>((end - start) / 1024);
  }
  return total;
}

// A long-lived server that sees many short connections must join each
// finished handler while it runs, not only at stop(): 256 sequential
// connect -> predict -> close cycles leave the thread count and the
// mapped memory (unjoined 8 MiB handler stacks would add ~2 GiB) where
// they started.
TEST(NetServer, ClosedConnectionsDoNotAccumulateHandlerThreads) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  NetServer server(runtime, loopback_options(true));
  ASSERT_TRUE(server.start());
  const std::size_t threads_before = process_thread_count();
  const std::size_t mapped_before_kib = process_accessible_kib();
  constexpr std::size_t kConnections = 256;
  for (std::size_t i = 0; i < kConnections; ++i) {
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    wire::Response response;
    const std::size_t row = i % fx.rows.size();
    ASSERT_TRUE(client.predict(fx.rows[row], &response));
    ASSERT_EQ(response.status, wire::Status::kOk);
    EXPECT_EQ(response.prediction, fx.scalar_preds[row]);
    client.close();
  }
  // The last handlers finish after their clients close; they are reaped
  // within one acceptor poll slice (200 ms).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (process_thread_count() > threads_before + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(process_thread_count(), threads_before + 2);
  EXPECT_LT(process_accessible_kib(), mapped_before_kib + 256 * 1024)
      << "closed connections left unjoined handler stacks mapped";
  EXPECT_EQ(server.stats().connections, kConnections);
  server.stop();
}

TEST(NetServer, StopUnblocksIdleConnectionsAndIsRestartable) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 1});
  std::uint16_t first_port = 0;
  {
    NetServer server(runtime, loopback_options(true));
    ASSERT_TRUE(server.start());
    first_port = server.port();
    // An idle connection (no request in flight) must not wedge stop().
    NetClient idle;
    ASSERT_TRUE(idle.connect("127.0.0.1", server.port()));
    server.stop();
  }
  // A fresh server instance starts cleanly afterwards.
  NetServer again(runtime, loopback_options(true));
  ASSERT_TRUE(again.start());
  EXPECT_NE(again.port(), 0);
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", again.port()));
  wire::Response response;
  ASSERT_TRUE(client.predict(fx.rows[2], &response));
  EXPECT_EQ(response.prediction, fx.scalar_preds[2]);
  again.stop();
  (void)first_port;
}

}  // namespace
}  // namespace poetbin
