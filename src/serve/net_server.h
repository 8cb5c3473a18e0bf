// Plain-TCP serving front end over Runtime + MicroBatcher.
//
// A NetServer owns one listening socket and answers wire-protocol frames
// (serve/protocol.h): packed input bits in, predicted class out. One thread
// accepts; each connection gets a handler thread that *drains* every
// complete frame buffered on its socket per read — so pipelined clients
// (several requests in flight per connection) fill micro-batch windows even
// with few connections, and the fused 64-wide word pass does the work of 64
// scalar evaluations. With micro_batch = false every request runs the
// scalar predict_one path one at a time — the naive baseline the bench
// compares against.
//
//   Runtime rt(model, {.threads = 1});
//   NetServer server(rt, {.port = 0});          // 0 = pick an ephemeral port
//   std::string error;
//   if (!server.start(&error)) die(error);
//   ... clients connect to 127.0.0.1:server.port() ...
//   server.stop();                              // graceful: drains handlers
//
// Process sharding: run_sharded_server() forks N workers that each bind the
// SAME port with SO_REUSEPORT — the kernel load-balances connections across
// them, one Runtime + MicroBatcher per process, no shared state, no locks
// across shards. That is the deployment shape; a single in-process
// NetServer is the unit the tests and bench drive directly.
//
// Error contract: malformed frames get a typed error response on the same
// connection and the connection survives (except an oversized declared
// length, which poisons the stream and closes after the reply). A request
// whose bit width does not match the served model gets kWrongFeatureWidth.
// Handler reads sit in short poll slices so stop() is never blocked on an
// idle connection; a *mid-frame* stall or a blocked write is bounded by
// io_timeout and closes the connection.
//
// Hot reload: a kReload frame asks the worker's Runtime to atomically swap
// in the model from its recorded source path. The swap is RCU-style
// (serve/runtime.h): requests already dispatched — including a whole
// micro-batch window — finish on the old version, later requests see the
// new one, and a failed reload answers kReloadFailed while the old model
// keeps serving. kModelInfo reports the serving version/format so clients
// can observe swaps. run_sharded_server can also watch the model file
// (watch_interval) and reload on mtime/size changes without any frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "serve/serve_stats.h"

namespace poetbin {

struct NetServerOptions {
  // Bind address. Default loopback: this is a benchmark/serving harness,
  // not an Internet-facing daemon.
  std::string host = "127.0.0.1";
  // TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  // Set SO_REUSEPORT before bind so several forked workers can share one
  // port (the kernel balances accepts across them).
  bool reuse_port = false;
  // true: requests go through a MicroBatcher (64-wide fused word pass).
  // false: every request runs Runtime::predict_one inline — the naive
  // one-request-per-dispatch baseline.
  bool micro_batch = true;
  std::size_t max_batch = 64;
  // MicroBatcherOptions::max_wait: the longest a partial window keeps
  // collecting while an earlier window is in flight. A connection leads its
  // round's last window out as soon as the engine is idle, so an idle
  // server answers at once whatever this says.
  std::chrono::microseconds max_wait{200};
  // Cap on a mid-frame read stall or a blocked response write. Idle
  // connections (no partial frame) may stay open indefinitely.
  std::chrono::milliseconds io_timeout{5000};
  // Input bit width served; 0 derives it from the model (highest referenced
  // feature index + 1, the same rule the netlist exporter uses).
  std::size_t n_features = 0;
};

class NetServer {
 public:
  // The Runtime must outlive the server. Non-const: kReload frames drive
  // Runtime::reload() (all request paths stay const/snapshot-based).
  explicit NetServer(Runtime& runtime, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens and spawns the acceptor. Returns false (with *error
  // filled when given) if the socket cannot be set up.
  bool start(std::string* error = nullptr);

  // Graceful shutdown: stops accepting, wakes every handler, joins all
  // threads. In-flight requests finish; idempotent.
  void stop();

  // The bound port (after start(); meaningful mainly with port = 0).
  std::uint16_t port() const { return bound_port_; }
  // Feature width requests must match (resolved at construction).
  std::size_t n_features() const { return n_features_; }

  // Merged counters: connection/error counts from the network layer plus
  // the MicroBatcher's window + cache stats (or naive-path request counts,
  // with the cache counters folded from the Runtime directly).
  ServeStats stats() const;

 private:
  // A connection's thread plus the flag it raises when it is done, so the
  // acceptor can join finished handlers instead of accumulating them.
  struct Handler {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> finished;
  };

  void accept_loop();
  void handle_connection(int fd);
  // Joins every handler whose connection has closed (their stacks and
  // buffers stay allocated until joined).
  void reap_finished_handlers();

  Runtime* runtime_;
  NetServerOptions options_;
  std::size_t n_features_;
  std::unique_ptr<MicroBatcher> batcher_;  // null in naive mode

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread acceptor_;
  mutable std::mutex conn_mu_;  // guards handlers_ and net_stats_
  std::vector<Handler> handlers_;
  ServeStats net_stats_;
};

// Options for the forked multi-process front end.
struct ShardedServeOptions {
  std::size_t workers = 1;
  // Engine threads per worker Runtime. Sharding parallelism comes from the
  // worker processes; 1 keeps each worker's word pass inline.
  std::size_t threads = 1;
  // > 0: each worker polls the model file at this interval and hot-reloads
  // when its mtime or size changes — live model pushes without touching
  // the processes or dropping a connection. 0 disables watching (kReload
  // frames still work either way).
  std::chrono::milliseconds watch_interval{0};
  // Per-worker prediction cache size (RuntimeOptions::cache_bytes). The
  // serving default is ON — repeated inputs skip the word pass entirely,
  // bit-identically — unlike the library default; 0 disables
  // (`serve --no-cache`).
  std::size_t cache_bytes = 8u << 20;
  NetServerOptions server;  // reuse_port is forced on when workers > 1
};

// Loads the model at `model_path` (typed error to stderr on failure), forks
// `workers` processes that each serve it on one shared port, prints a
// "serving" line once every worker is accepting, then runs until SIGTERM or
// SIGINT. Each worker prints its ServeStats on shutdown. Returns a process
// exit code. Blocks the calling process; intended for main().
int run_sharded_server(const std::string& model_path,
                       const ShardedServeOptions& options);

}  // namespace poetbin
