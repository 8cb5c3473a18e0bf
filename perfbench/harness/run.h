// Private to the harness: the workload table, the request sources and one
// benchmark run. workloads.cpp holds set-up and the timed run, traced.cpp
// the traced run.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "generator.h"
#include "model_gen.h"
#include "openloop.h"
#include "serve/micro_batcher.h"
#include "serve/net_server.h"
#include "serve/predict_cache.h"
#include "serve/protocol.h"
#include "serve/runtime.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench::detail {

using poetbin::BitMatrix;
using poetbin::BitVector;
using poetbin::MicroBatcher;
using poetbin::NetServer;
using poetbin::PoetBin;
using poetbin::PredictCache;
using poetbin::Runtime;
using poetbin::ServeStats;
namespace wire = poetbin::wire;

// --- fixed workload parameters --------------------------------------------

struct Spec {
  const char* name;
  // Share of requests drawn zipf(theta) over a fixed pool (answered from the
  // cache once seen); the others are inputs never sent before.
  double pool_share;
};

inline constexpr Spec kSpecs[] = {
    {"serve_miss", 0.0},
    {"serve_mixed", 0.3},
    {"serve_hot", 1.0},  // not in BENCHMARK.json: see METRICS.md
};

// The model: the S1 preset's shape (LUT arity P = 6, 256 input bits),
// served by one engine thread.
inline constexpr std::size_t kArity = 6;
inline constexpr std::size_t kInputBits = 256;
inline constexpr std::size_t kEngineThreads = 1;

inline constexpr double kLoRate = 2000.0;     // windows hold about one request
inline constexpr double kHiRate = 40000.0;    // windows about a quarter full
// max_rps latency limit. Near 2 ms the p90-against-rate curve of both
// workloads is nearly flat (1.8 to 2.4 ms over a 20% rate range on a 4-vCPU
// x86 VM), so the highest passing rung jumped with host noise and collapsed
// to a third whenever the host stole 5% of the vCPUs' time. 50 ms lies on
// the queueing wall just below saturation, where p90 climbs from about 10
// ms to over 90 ms within two rungs.
inline constexpr double kP90LimitMs = 50.0;
inline constexpr std::size_t kWindow = 64;
inline constexpr std::chrono::microseconds kMaxWait{200};
inline constexpr std::size_t kCacheBytes = std::size_t{8} << 20;  // serving default
inline constexpr std::size_t kConnections = 2;
inline constexpr std::size_t kOfflineRows = std::size_t{1} << 18;
inline constexpr std::size_t kHotPool = 1024;
inline constexpr double kZipfTheta = 0.99;
// Set-ups per run, all made before any measurement: the harness's own
// frees would otherwise let later set-ups reuse memory an earlier
// allocation already faulted in, which a fresh serving process never does.
inline constexpr std::size_t kSetupReps = 9;
inline constexpr std::size_t kRounds = 5;
inline constexpr std::size_t kLatencySlices = 5;
inline constexpr std::size_t kSpotChecks = 256;
// The max_rps search covers rungs kLadderLo..kLadderHi of the ladder
// (openloop.h): from 20.2k req/s, within reach of both workloads, to 5.0M
// req/s, just above the 4-4.5M req/s one generator thread sustains against
// serve_hot on a 4-vCPU x86 VM (steps beyond that fail by generator
// backlog, and the run reports which limit stopped the search). The first
// round binary-searches all of it (8 steps), later rounds the rungs above
// the best so far.
inline constexpr int kLadderLo = 104;
inline constexpr int kLadderHi = 295;
// A step sends at most this many requests (high rungs get shorter steps),
// which bounds the per-step logs and the miss oracle's batch.
inline constexpr double kMaxStepRequests = 1500000.0;
// A step stops sending once a request is this late: it has failed anyway.
inline constexpr double kLadderAbortMs = 100.0;

// Share of each round (--seconds / kRounds) given to each timed phase.
inline constexpr double kShareOffline = 0.08;
inline constexpr double kShareWarmup = 0.04;
inline constexpr double kShareLo = 0.20;
inline constexpr double kShareHi = 0.12;
// One ladder step, as a share of --seconds (a round's search takes 8 or
// fewer).
inline constexpr double kShareLadderStep = 0.0116;

inline const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// --- request sources --------------------------------------------------------

// Every request a fresh input of the stream; the expected classes of a
// phase's inputs come from one fused Runtime::predict before it starts.
class MissSource : public RequestSource {
 public:
  MissSource(const InputStream& stream, const Runtime& oracle)
      : stream_(stream), oracle_(oracle), scratch_(stream.n_features()) {}

  void prepare(std::size_t count) override {
    base_ = next_;
    next_ += count;
    expected_.clear();
    if (count == 0) return;  // a mixed phase may draw every request from the pool
    const BitMatrix packed = pack_rows(
        count, stream_.n_features(),
        [&](std::size_t r, std::uint64_t* words) {
          stream_.fill(base_ + r, words);
        });
    expected_ = oracle_.predict(packed);
  }

  int encode(std::size_t k, std::vector<std::uint8_t>* out) override {
    stream_.fill(base_ + k, scratch_.words());
    wire::encode_predict_request(scratch_, out);
    return expected_[k];
  }

  BitVector input(std::size_t k) const override {
    return stream_.make(base_ + k);
  }
  int expected(std::size_t k) const { return expected_[k]; }

 private:
  InputStream stream_;
  const Runtime& oracle_;
  BitVector scratch_;
  std::uint64_t base_ = 0;
  std::uint64_t next_ = 0;
  std::vector<int> expected_;
};

// Requests drawn zipf(theta) over a fixed pool whose expected classes were
// computed once, up front.
class HotSource : public RequestSource {
 public:
  HotSource(std::vector<BitVector> pool, std::vector<int> expected,
            std::uint64_t seed)
      : pool_(std::move(pool)),
        pool_expected_(std::move(expected)),
        zipf_(seed, kZipfTheta, pool_.size()) {}

  void prepare(std::size_t count) override {
    keys_.resize(count);
    for (auto& key : keys_) key = static_cast<std::uint32_t>(zipf_.next());
  }

  int encode(std::size_t k, std::vector<std::uint8_t>* out) override {
    wire::encode_predict_request(pool_[keys_[k]], out);
    return pool_expected_[keys_[k]];
  }

  BitVector input(std::size_t k) const override { return pool_[keys_[k]]; }
  const std::vector<BitVector>& pool() const { return pool_; }
  const std::vector<int>& pool_expected() const { return pool_expected_; }
  // Inserts the whole pool: the steady state of a hot server's cache.
  void warm(PredictCache& cache) const {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      cache.insert(PredictCache::make_key(pool_[i]), pool_expected_[i], 0);
    }
  }

 private:
  std::vector<BitVector> pool_;
  std::vector<int> pool_expected_;
  poetbin::FastZipf zipf_;
  std::vector<std::uint32_t> keys_;
};

// Request k comes from the pool with probability `share`, else from the
// never-seen stream; each part keeps its own order and its own oracle.
class MixedSource : public RequestSource {
 public:
  MixedSource(HotSource& pool, MissSource& fresh, double share,
              std::uint64_t seed)
      : pool_(pool), fresh_(fresh), share_(share), rng_(seed) {}

  void prepare(std::size_t count) override {
    parts_.resize(count);
    std::uint32_t n_pool = 0, n_fresh = 0;
    for (Part& part : parts_) {
      part.from_pool = rng_.next_bool(share_);
      part.index = part.from_pool ? n_pool++ : n_fresh++;
    }
    pool_.prepare(n_pool);
    fresh_.prepare(n_fresh);
  }

  int encode(std::size_t k, std::vector<std::uint8_t>* out) override {
    const Part& p = parts_[k];
    return p.from_pool ? pool_.encode(p.index, out) : fresh_.encode(p.index, out);
  }

  BitVector input(std::size_t k) const override {
    const Part& p = parts_[k];
    return p.from_pool ? pool_.input(p.index) : fresh_.input(p.index);
  }

 private:
  struct Part {
    bool from_pool = false;
    std::uint32_t index = 0;  // within its part of the phase
  };
  HotSource& pool_;
  MissSource& fresh_;
  double share_;
  poetbin::Rng rng_;
  std::vector<Part> parts_;
};

// --- one run ---------------------------------------------------------------

struct Server {
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<NetServer> server;
  // now_ns() at the set-up's stage boundaries: Runtime::load runs from
  // load_ns to start_ns, NetServer::start from start_ns to ready_ns.
  std::int64_t load_ns = 0, start_ns = 0, ready_ns = 0;

  double setup_s() const { return static_cast<double>(ready_ns - load_ns) / 1e9; }
};

// Counters over one phase: the difference of two ServeStats snapshots.
struct StatsDelta {
  double requests = 0, batches = 0, timeouts = 0, hits = 0, misses = 0;

  static StatsDelta between(const ServeStats& a, const ServeStats& b) {
    StatsDelta d;
    d.requests = static_cast<double>(b.requests - a.requests);
    d.batches = static_cast<double>(b.batches - a.batches);
    d.timeouts = static_cast<double>(b.timeouts - a.timeouts);
    d.hits = static_cast<double>(b.cache_hits - a.cache_hits);
    d.misses = static_cast<double>(b.cache_misses - a.cache_misses);
    return d;
  }
  double mean_fill() const {
    return batches > 0 ? (requests - hits) / batches / kWindow : 0.0;
  }
};

// Stops servers in parallel (each stop waits out an accept poll slice).
void retire(std::vector<Server> servers);

// CPU placement. The generator busy-polls, so a server thread woken on its
// CPU would wait out a scheduler slice behind it; the generator therefore
// gets the last allowed CPU to itself and the server the others. Threads
// inherit the mask of the thread that starts them, so pin_server_cpus()
// must precede Runtime::load and NetServer::start (the acceptor starts the
// handler threads). Both are no-ops with fewer than two allowed CPUs.
void pin_server_cpus();
void pin_generator_cpu();
// Pins the calling thread to the allowed CPU after the one this last chose.
// The vCPUs of a shared host each switch between a fast and a slow state
// (1.7x apart on a 4-vCPU x86 VM) for seconds at a time, so the offline
// passes take turns on every CPU and the fastest pass finds a fast one.
void pin_next_cpu();
// One line: sample counts, p50/p90/p99/p999 and generator lateness.
void report_latency(const char* label, const PhaseSummary& s);

class TracedRun;

class Run {
 public:
  Run(const Spec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        stream_(options.seed * 0x100000001b3ULL + 17, kInputBits) {}

  RunResult execute();

 private:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    result_.metrics.push_back({name, value, unit, samples});
    std::printf("metric %-34s %14.6g %-6s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
  }
  void wrong(const std::string& what) {
    result_.correct = false;
    std::fprintf(stderr, "WRONG: %s\n", what.c_str());
  }

  bool prepare_model();
  bool check_oracle();
  struct LadderOutcome {
    int rung = -1;
    double rate = 0.0;
    std::size_t samples = 0;
  };

  // A serving Runtime from the model file and a NetServer on it; no server
  // when either fails.
  Server start_server();
  // kSetupReps servers, all kept up (see kSetupReps); false when one fails.
  bool setup_reps(std::vector<Server>* servers);
  // Runtime::predict passes over the offline dataset for budget_s, each on
  // the next CPU (pin_next_cpu); the thread ends pinned to the generator CPU.
  void offline_slice(Runtime& runtime, double budget_s,
                     std::vector<double>* times);
  PhaseRun serve_phase(Generator& gen, double rate, double seconds,
                       double abort_ms, Tracer* tracer = nullptr);
  void account(const PhaseRun& run);
  void ladder(Generator& gen, double step_s, LadderOutcome* best,
              std::vector<const char*>* failures);

  void timed_run();
  void traced_run();  // traced.cpp
  friend class TracedRun;

  RequestSource& source() {
    if (mixed_ != nullptr) return *mixed_;
    return hot_ != nullptr ? static_cast<RequestSource&>(*hot_) : *miss_;
  }

  const Spec& spec_;
  RunOptions options_;
  InputStream stream_;
  std::string model_path_;
  PoetBin model_;
  std::unique_ptr<Runtime> oracle_;
  BitMatrix offline_x_;
  std::vector<int> offline_expected_;
  std::unique_ptr<MissSource> miss_;  // when pool_share < 1
  std::unique_ptr<HotSource> hot_;    // when pool_share > 0
  std::unique_ptr<MixedSource> mixed_;  // when both
  std::uint64_t request_ids_ = 0;
  RunResult result_;
};

}  // namespace perfbench::detail
