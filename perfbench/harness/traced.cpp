// The traced run: per-layer metrics and one accounting table per journey.
//
// Every timing here is a span the harness records around its own call into
// a layer's public API (trace.h); nothing inside the library is
// instrumented. Bulk probes (a codec or cache call replayed over the
// workload's whole frame or key stream) are one span covering `count`
// operations. The TCP journey runs at the lo rate untraced and then traced,
// and the same request stream is replayed in-process through
// decode -> cache probe -> MicroBatcher -> cache insert -> encode, once
// untraced and once traced; the replay against the TCP latency locates the
// network front end's share, and traced against untraced is the tracing
// overhead.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_eval.h"
#include "core/packed_model.h"
#include "run.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace perfbench::detail {

namespace {

// Share of --seconds per traced phase; the fixed-repetition layer probes
// take the rest.
constexpr double kTraceWarmup = 0.04;
constexpr double kTraceLo = 0.15;
constexpr double kTraceLoTraced = 0.10;
constexpr double kTraceHi = 0.10;
constexpr double kTraceReplay = 0.10;  // each of untraced and traced

constexpr std::size_t kBulkOps = 65536;  // codec / cache stream length
constexpr std::size_t kBulkReps = 5;
constexpr std::size_t kWindowReps = 300;
constexpr std::size_t kSingleReps = 200;
constexpr std::size_t kPassReps = 9;     // full-dataset batch_eval passes
constexpr std::size_t kPeakWords = 256;  // cache-resident calibration block
constexpr std::size_t kPeakSamples = 5;
constexpr double kPeakSampleS = 0.04;

double ns_of(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns);
}

}  // namespace

class TracedRun {
 public:
  explicit TracedRun(Run& run) : run_(run), spec_(run.spec_) {}

  void execute();

 private:
  // Times fn() as one span covering `count` operations; returns its
  // duration in ns.
  template <typename Fn>
  double span(const char* name, std::uint64_t count, Fn&& fn,
              std::int32_t parent = -1) {
    const std::int32_t id =
        tracer_.begin(tracer_.intern(name), next_id_++, parent);
    fn();
    tracer_.end(id, count);
    return ns_of(tracer_.spans()[static_cast<std::size_t>(id)]);
  }

  void check(bool ok, const std::string& what) {
    ++run_.result_.attempted;
    if (!ok) {
      ++run_.result_.failed;
      run_.wrong(what);
    }
  }

  std::optional<Runtime> load_uncached();
  void calibrate_peak();
  bool load_journey();
  bool offline_journey();
  bool window_probes();
  bool codec_and_cache_probes();
  bool serve_journey();
  void replay(std::size_t n, bool traced, std::vector<double>* roots_us);
  void print_tables();

  Run& run_;
  const Spec& spec_;
  Tracer tracer_;
  std::uint64_t next_id_ = std::uint64_t{1} << 40;  // clear of TCP ids

  // Values the tables and derived metrics share.
  std::uint64_t bank_muxes_ = 0;
  double peak_muxes_per_s_ = 0;
  double setup_ms_ = 0, read_ms_ = 0, construct_ms_ = 0, start_ms_ = 0;
  double leaf_ms_ = 0, rinc_ms_ = 0, predict1_ms_ = 0, outputs1_ms_ = 0;
  double runtime1_ms_ = 0;
  double tcp_lo_p50_us_ = 0, tcp_lo_mean_us_ = 0, tcp_traced_p50_us_ = 0;
  double replay_untraced_mean_us_ = 0;
  std::size_t replay_n_ = 0;
};

std::optional<Runtime> TracedRun::load_uncached() {
  auto loaded = Runtime::load(run_.model_path_, {.threads = kEngineThreads});
  if (!loaded.ok()) {
    check(false, "Runtime::load failed: " + loaded.error().message);
    return std::nullopt;
  }
  return std::move(loaded).value();
}

// The word engine's peak: lut_reduce of the model's arity over a
// cache-resident block, best of a few samples, in word muxes per second
// (a 2^a-entry table costs 2^a - 1 muxes per word).
void TracedRun::calibrate_peak() {
  const std::size_t arity = kArity;
  poetbin::Rng rng(run_.options_.seed + 11);
  std::vector<std::uint64_t> splat(std::size_t{1} << arity);
  for (auto& w : splat) w = rng.next_bool() ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> columns(arity * kPeakWords);
  for (auto& w : columns) w = rng.next_u64();
  std::vector<const std::uint64_t*> column_ptrs(arity);
  for (std::size_t j = 0; j < arity; ++j) {
    column_ptrs[j] = columns.data() + j * kPeakWords;
  }
  std::vector<std::uint64_t> out(kPeakWords);
  const poetbin::WordOps& ops = poetbin::word_ops();
  const double muxes_per_call =
      static_cast<double>(splat.size() - 1) * kPeakWords;
  const std::uint32_t name = tracer_.intern("word_backend.lut_reduce_peak");
  for (std::size_t s = 0; s < kPeakSamples; ++s) {
    const std::int32_t id = tracer_.begin(name, next_id_++);
    const std::int64_t t_end =
        now_ns() + static_cast<std::int64_t>(kPeakSampleS * 1e9);
    std::uint64_t calls = 0;
    do {
      for (int i = 0; i < 64; ++i) {
        ops.lut_reduce(splat.data(), arity, column_ptrs.data(), 0, 0,
                       kPeakWords, out.data());
      }
      calls += 64;
    } while (now_ns() < t_end);
    tracer_.end(id, calls);
    const double rate = muxes_per_call * static_cast<double>(calls) /
                        (ns_of(tracer_.spans()[static_cast<std::size_t>(id)]) / 1e9);
    peak_muxes_per_s_ = std::max(peak_muxes_per_s_, rate);
  }
}

// --- journey: model file -> serving Runtime + NetServer ---------------------

bool TracedRun::load_journey() {
  std::vector<Server> servers;
  if (!run_.setup_reps(&servers)) {
    retire(std::move(servers));
    return false;
  }
  std::vector<double> setup, load, start, read, construct;
  const std::uint32_t setup_name = tracer_.intern("setup");
  const std::uint32_t load_name = tracer_.intern("runtime.load");
  const std::uint32_t start_name = tracer_.intern("net_server.start");
  for (const Server& s : servers) {
    const std::uint64_t id = next_id_++;
    const std::int32_t root =
        tracer_.add({setup_name, id, s.load_ns, s.ready_ns, -1, 1});
    tracer_.add({load_name, id, s.load_ns, s.start_ns, root, 1});
    tracer_.add({start_name, id, s.start_ns, s.ready_ns, root, 1});
    setup.push_back(static_cast<double>(s.ready_ns - s.load_ns));
    load.push_back(static_cast<double>(s.start_ns - s.load_ns));
    start.push_back(static_cast<double>(s.ready_ns - s.start_ns));
  }

  // The load split finer: parse + verify, then engine + cache set-up. These
  // Runtimes too stay up until the end, so each allocates fresh memory.
  std::vector<std::unique_ptr<Runtime>> built;
  const std::uint32_t stages_name = tracer_.intern("load.stages");
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const std::int32_t stages = tracer_.begin(stages_name, next_id_++);
    std::optional<poetbin::IoResult<PoetBin>> model;
    read.push_back(span("packed_model.read", 1, [&] {
      model.emplace(poetbin::read_packed_model_file(
          run_.model_path_, poetbin::PackedVerify::kTrustChecksum));
    }, stages));
    if (!model->ok()) {
      check(false, "read_packed_model_file failed");
      retire(std::move(servers));
      return false;
    }
    construct.push_back(span("runtime.construct", 1, [&] {
      built.push_back(std::make_unique<Runtime>(
          std::move(*model).value(),
          poetbin::RuntimeOptions{.threads = kEngineThreads,
                                  .cache_bytes = kCacheBytes}));
    }, stages));
    tracer_.end(stages);
  }
  retire(std::move(servers));
  setup_ms_ = median(setup) / 1e6;
  read_ms_ = median(read) / 1e6;
  construct_ms_ = median(construct) / 1e6;
  start_ms_ = median(start) / 1e6;
  run_.add("runtime.load_ms", median(load) / 1e6, "ms", load.size());
  return true;
}

// --- journey: offline predict over the pre-packed dataset -------------------

bool TracedRun::offline_journey() {
  // One engine thread, so the stage times add up to the end-to-end pass;
  // thread_scaling reports what the second thread buys.
  auto loaded = Runtime::load(run_.model_path_, {.threads = 1});
  if (!loaded.ok()) {
    check(false, "Runtime::load failed");
    return false;
  }
  const Runtime rt1 = std::move(loaded).value();
  const Runtime::Snapshot snap = rt1.snapshot();
  const PoetBin& model = snap->model;
  const BitMatrix& x = run_.offline_x_;
  const std::size_t words = x.word_count();
  const std::vector<int>& expected = run_.offline_expected_;
  std::vector<std::uint64_t> buf(words);
  const poetbin::BatchEngine e1(1), e2(2);
  std::vector<double> leaf, rinc, predict1, outputs1, predict2, runtime1;
  check(rt1.predict(x) == expected, "1-thread Runtime::predict differs");
  for (std::size_t rep = 0; rep < kPassReps; ++rep) {
    leaf.push_back(span("batch_eval.leaf_pass", words, [&] {
      for (const poetbin::RincModule& module : model.modules()) {
        for (const poetbin::Lut* lut : module.leaf_luts()) {
          poetbin::eval_lut_words(*lut, x, 0, words, buf.data());
        }
      }
    }));
    rinc.push_back(span("batch_eval.rinc_pass", words, [&] {
      for (const poetbin::RincModule& module : model.modules()) {
        poetbin::eval_rinc_words(module, x, 0, words, buf.data());
      }
    }));
    std::vector<int> p1, p2, pr;
    BitMatrix bank;
    predict1.push_back(span("batch_eval.predict_1t", words,
                            [&] { p1 = e1.predict_dataset(model, x); }));
    outputs1.push_back(span("batch_eval.rinc_outputs_1t", words,
                            [&] { bank = e1.rinc_outputs(model, x); }));
    predict2.push_back(span("batch_eval.predict_2t", words,
                            [&] { p2 = e2.predict_dataset(model, x); }));
    runtime1.push_back(
        span("runtime.predict_1t", words, [&] { pr = rt1.predict(x); }));
    check(p1 == expected && p2 == expected && pr == expected,
          "batch_eval predict_dataset differs from the oracle");
  }
  // The fastest pass of each stage: a vCPU of a shared host switches
  // between a fast and a slow state (1.7x apart) for seconds at a time, and
  // with medians of a few passes a slow leaf pass next to a fast RINC pass
  // made the MAT difference negative.
  auto fastest = [](const std::vector<double>& ns) {
    return *std::min_element(ns.begin(), ns.end());
  };
  leaf_ms_ = fastest(leaf) / 1e6;
  rinc_ms_ = fastest(rinc) / 1e6;
  predict1_ms_ = fastest(predict1) / 1e6;
  outputs1_ms_ = fastest(outputs1) / 1e6;
  runtime1_ms_ = fastest(runtime1) / 1e6;
  const double w = static_cast<double>(words);
  const BankCount bank = bank_count(model);
  bank_muxes_ = bank.muxes_per_word;
  run_.add("batch_eval.leaf_ns_per_word", leaf_ms_ * 1e6 / w, "ns", leaf.size());
  run_.add("batch_eval.mat_ns_per_word", (rinc_ms_ - leaf_ms_) * 1e6 / w, "ns",
           rinc.size());
  run_.add("batch_eval.output_ns_per_word",
           (predict1_ms_ - outputs1_ms_) * 1e6 / w, "ns", predict1.size());
  run_.add("batch_eval.thread_scaling", fastest(predict1) / fastest(predict2),
           "x", predict2.size());
  run_.add("batch_eval.muxes_per_example",
           static_cast<double>(bank_muxes_) / 64.0, "count",
           bank.luts);
  const double bank_rate =
      static_cast<double>(bank_muxes_) * w / (rinc_ms_ / 1e3);
  run_.add("word_backend.mux_efficiency", bank_rate / peak_muxes_per_s_,
           "ratio", rinc.size());
  return true;
}

// --- one micro-batch window, from outside --------------------------------

bool TracedRun::window_probes() {
  std::optional<Runtime> rt = load_uncached();
  if (!rt) return false;
  const InputStream probe_stream(run_.options_.seed + 5, kInputBits);
  const BitMatrix x64 = pack_rows(kWindow, kInputBits,
                                  [&](std::size_t r, std::uint64_t* words) {
                                    probe_stream.fill(r, words);
                                  });
  const std::vector<int> expected = run_.oracle_->predict(x64);
  std::vector<BitVector> rows;
  for (std::size_t i = 0; i < kWindow; ++i) rows.push_back(probe_stream.make(i));

  std::vector<double> predict, window, single;
  std::vector<int> got(kWindow);
  check(rt->predict(x64) == expected, "window predict differs");
  for (std::size_t rep = 0; rep < kWindowReps; ++rep) {
    std::vector<int> p;
    predict.push_back(
        span("runtime.window_predict", kWindow, [&] { p = rt->predict(x64); }));
    if (rep == 0) check(p == expected, "window predict differs");
  }
  MicroBatcher batcher(*rt, {.max_batch = kWindow, .max_wait = kMaxWait});
  std::vector<MicroBatcher::Ticket> tickets;
  tickets.reserve(kWindow);
  for (std::size_t rep = 0; rep < kWindowReps; ++rep) {
    tickets.clear();
    window.push_back(span("micro_batcher.window", kWindow, [&] {
      for (std::size_t i = 0; i < kWindow; ++i) {
        tickets.push_back(batcher.submit(rows[i]));
      }
      batcher.flush();
      for (std::size_t i = 0; i < kWindow; ++i) got[i] = tickets[i].get();
    }));
    if (rep == 0) check(got == expected, "micro-batched window differs");
  }
  for (std::size_t rep = 0; rep < kSingleReps; ++rep) {
    const std::size_t i = rep % kWindow;
    int one = -1;
    single.push_back(span("micro_batcher.single", 1,
                          [&] { one = batcher.predict_one(rows[i]); }));
    check(one == expected[i], "predict_one differs");
  }
  const double predict_us = median(predict) / 1e3;
  const double window_us = median(window) / 1e3;
  run_.add("runtime.window_predict_us", predict_us, "us", predict.size());
  run_.add("micro_batcher.window_us", window_us, "us", window.size());
  run_.add("micro_batcher.pack_us", window_us - predict_us, "us", window.size());
  run_.add("micro_batcher.single_us", median(single) / 1e3, "us", single.size());
  const double window_rate = static_cast<double>(bank_muxes_) / (predict_us / 1e6);
  run_.add("word_backend.window_mux_efficiency",
           window_rate / peak_muxes_per_s_, "ratio", predict.size());
  return true;
}

// --- codec and cache, replayed over the workload's own streams -------------

bool TracedRun::codec_and_cache_probes() {
  RequestSource& source = run_.source();
  source.prepare(kBulkOps);
  std::vector<std::uint8_t> frames;
  std::vector<int> expected(kBulkOps);
  std::vector<BitVector> inputs(kBulkOps);
  for (std::size_t k = 0; k < kBulkOps; ++k) {
    expected[k] = source.encode(k, &frames);
    inputs[k] = source.input(k);
  }
  const double n = static_cast<double>(kBulkOps);

  std::vector<double> decode, encode, client_encode, client_decode;
  std::vector<std::uint8_t> responses, requests;
  for (std::size_t rep = 0; rep < kBulkReps; ++rep) {
    std::size_t decoded_ok = 0;
    decode.push_back(span("codec.decode_request", kBulkOps, [&] {
      std::size_t offset = 0;
      wire::Request request;
      wire::Status status = wire::Status::kOk;
      bool fatal = false;
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        if (wire::decode_request(frames.data(), frames.size(), &offset,
                                 &request, &status, &fatal) ==
                wire::FrameResult::kFrame &&
            request.bits.size() == kInputBits) {
          ++decoded_ok;
        }
      }
    }));
    check(decoded_ok == kBulkOps, "decode_request rejected replayed frames");
    encode.push_back(span("codec.encode_predict_response", kBulkOps, [&] {
      responses.clear();
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        wire::encode_predict_response(wire::Status::kOk,
                                      static_cast<std::uint16_t>(expected[k]),
                                      &responses);
      }
    }));
    client_encode.push_back(span("codec.encode_predict_request", kBulkOps, [&] {
      requests.clear();
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        wire::encode_predict_request(inputs[k], &requests);
      }
    }));
    check(requests == frames, "re-encoded requests differ from the stream");
    std::size_t answers_ok = 0;
    client_decode.push_back(span("codec.decode_response", kBulkOps, [&] {
      std::size_t offset = 0;
      wire::Response response;
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        if (wire::decode_response(responses.data(), responses.size(), &offset,
                                  &response) == wire::FrameResult::kFrame &&
            response.prediction == expected[k]) {
          ++answers_ok;
        }
      }
    }));
    check(answers_ok == kBulkOps, "decode_response lost answers");
  }
  run_.add("protocol.decode_ns", median(decode) / n, "ns",
           kBulkOps * decode.size());
  run_.add("protocol.encode_ns", median(encode) / n, "ns",
           kBulkOps * encode.size());
  run_.add("loadgen.codec_ns",
           (median(client_encode) + median(client_decode)) / n, "ns",
           kBulkOps * client_encode.size());

  // The cache at its serving size; for serve_hot it holds the pool (its
  // steady state), for the miss streams it starts empty.
  std::vector<PredictCache::Key> keys(kBulkOps);
  for (std::size_t k = 0; k < kBulkOps; ++k) {
    keys[k] = PredictCache::make_key(inputs[k]);
  }
  PredictCache cache({.capacity_bytes = kCacheBytes});
  if (run_.hot_ != nullptr) run_.hot_->warm(cache);
  std::vector<double> probe, insert;
  for (std::size_t rep = 0; rep < kBulkReps; ++rep) {
    std::size_t wrong_hits = 0;
    probe.push_back(span("codec.cache_probe", kBulkOps, [&] {
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        int prediction = -1;
        if (cache.probe(PredictCache::make_key(inputs[k]), &prediction) &&
            prediction != expected[k]) {
          ++wrong_hits;
        }
      }
    }));
    check(wrong_hits == 0, "cache hit returned a wrong class");
    PredictCache fresh({.capacity_bytes = kCacheBytes});
    insert.push_back(span("codec.cache_insert", kBulkOps, [&] {
      for (std::size_t k = 0; k < kBulkOps; ++k) {
        fresh.insert(keys[k], expected[k], 0);
      }
    }));
  }
  run_.add("predict_cache.probe_ns", median(probe) / n, "ns",
           kBulkOps * probe.size());
  run_.add("predict_cache.insert_ns", median(insert) / n, "ns",
           kBulkOps * insert.size());
  return true;
}

// --- journey: a TCP request, and its in-process replay ---------------------

bool TracedRun::serve_journey() {
  Server s = run_.start_server();
  if (s.server == nullptr) {
    check(false, "server set-up failed");
    return false;
  }
  pin_generator_cpu();  // as in the timed run, for the TCP phases only
  Generator gen;
  std::string error;
  if (!gen.connect(s.server->port(), kConnections, &error)) {
    check(false, "connect: " + error);
    return false;
  }
  const double budget = run_.options_.seconds;
  run_.serve_phase(gen, kHiRate, kTraceWarmup * budget, 1000.0);
  const ServeStats s1 = s.server->stats();
  const PhaseSummary lo = PhaseSummary::of(
      run_.serve_phase(gen, kLoRate, kTraceLo * budget, 1000.0).log);
  const ServeStats s2 = s.server->stats();
  const PhaseSummary lo_traced = PhaseSummary::of(
      run_.serve_phase(gen, kLoRate, kTraceLoTraced * budget, 1000.0, &tracer_)
          .log);
  const ServeStats s3 = s.server->stats();
  const PhaseSummary hi = PhaseSummary::of(
      run_.serve_phase(gen, kHiRate, kTraceHi * budget, 1000.0).log);
  const ServeStats s4 = s.server->stats();
  gen.disconnect();
  pin_server_cpus();
  report_latency("lo", lo);
  report_latency("lo traced", lo_traced);
  report_latency("hi", hi);
  s.server.reset();
  s.runtime.reset();

  tcp_lo_p50_us_ = lo.p50.value * 1e3;
  tcp_lo_mean_us_ = lo.mean_ms * 1e3;
  tcp_traced_p50_us_ = lo_traced.p50.value * 1e3;
  const StatsDelta lo_delta = StatsDelta::between(s1, s2);
  const StatsDelta hi_delta = StatsDelta::between(s3, s4);
  const StatsDelta all = StatsDelta::between(s1, s4);
  run_.add("loadgen.max_late_ms",
           std::max({lo.max_late_ms, lo_traced.max_late_ms, hi.max_late_ms}),
           "ms", lo.attempted + lo_traced.attempted + hi.attempted);
  run_.add("predict_cache.hit_ratio",
           all.hits + all.misses > 0 ? all.hits / (all.hits + all.misses) : 0.0,
           "ratio", static_cast<std::size_t>(all.hits + all.misses));
  run_.add("micro_batcher.mean_fill", hi_delta.mean_fill(), "ratio",
           static_cast<std::size_t>(hi_delta.batches));
  run_.add("micro_batcher.timeout_ratio",
           lo_delta.batches > 0 ? lo_delta.timeouts / lo_delta.batches : 0.0,
           "ratio", static_cast<std::size_t>(lo_delta.batches));

  const auto n = static_cast<std::size_t>(kLoRate * kTraceReplay * budget);
  std::vector<double> untraced_us;
  replay(n, false, &untraced_us);
  replay(n, true, nullptr);
  replay_n_ = n;
  replay_untraced_mean_us_ = mean(untraced_us);
  run_.add("net_server.residual_us", tcp_lo_p50_us_ - median(untraced_us),
           "us", untraced_us.size());
  return true;
}

// Replays n requests of the workload's stream, paced at the lo rate, through
// the server's stage chain on a Runtime loaded from the same file.
void TracedRun::replay(std::size_t n, bool traced,
                       std::vector<double>* roots_us) {
  std::optional<Runtime> rt = load_uncached();
  if (!rt) return;
  MicroBatcher batcher(*rt, {.max_batch = kWindow, .max_wait = kMaxWait});
  PredictCache cache({.capacity_bytes = kCacheBytes});
  if (run_.hot_ != nullptr) run_.hot_->warm(cache);
  RequestSource& source = run_.source();
  source.prepare(n);
  std::vector<std::uint8_t> frames;
  std::vector<int> expected(n);
  for (std::size_t k = 0; k < n; ++k) expected[k] = source.encode(k, &frames);

  const std::uint32_t root_name = tracer_.intern("replay.request");
  const std::uint32_t decode_name = tracer_.intern("protocol.decode");
  const std::uint32_t probe_name = tracer_.intern("predict_cache.probe");
  const std::uint32_t window_name = tracer_.intern("micro_batcher.predict_one");
  const std::uint32_t insert_name = tracer_.intern("predict_cache.insert");
  const std::uint32_t encode_name = tracer_.intern("protocol.encode");

  std::vector<std::uint8_t> out;
  std::size_t offset = 0;
  std::size_t wrong = 0;
  const std::int64_t start = now_ns() + 1000000;
  const double period = 1e9 / kLoRate;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(k) * period);
    while (now_ns() < due) {
    }
    const std::uint64_t id = next_id_++;
    std::int32_t root = -1;
    auto stage = [&](std::uint32_t name, auto&& fn) {
      if (!traced) return fn();
      const std::int32_t s = tracer_.begin(name, id, root);
      fn();
      tracer_.end(s);
    };
    const std::int64_t t0 = now_ns();
    if (traced) root = tracer_.begin(root_name, id);
    wire::Request request;
    wire::Status status = wire::Status::kOk;
    bool fatal = false;
    stage(decode_name, [&] {
      wire::decode_request(frames.data(), frames.size(), &offset, &request,
                           &status, &fatal);
    });
    PredictCache::Key key;
    int prediction = -1;
    bool hit = false;
    stage(probe_name, [&] {
      key = PredictCache::make_key(request.bits);
      hit = cache.probe(key, &prediction);
    });
    if (!hit) {
      stage(window_name, [&] { prediction = batcher.predict_one(request.bits); });
      stage(insert_name, [&] { cache.insert(key, prediction, 0); });
    }
    stage(encode_name, [&] {
      out.clear();
      wire::encode_predict_response(wire::Status::kOk,
                                    static_cast<std::uint16_t>(prediction), &out);
    });
    if (traced) {
      tracer_.end(root);
    } else {
      roots_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    if (prediction != expected[k]) ++wrong;
  }
  run_.result_.attempted += n;
  run_.result_.failed += wrong;
  if (wrong > 0) run_.wrong("in-process replay answers differ from the oracle");
}

// --- accounting -------------------------------------------------------------

void TracedRun::print_tables() {
  const std::vector<std::int64_t> self = self_times(tracer_.spans());
  const std::vector<StageTotal> totals = totals_by_name(tracer_.spans(), self);
  auto find = [&](const char* name) -> const StageTotal* {
    for (const StageTotal& t : totals) {
      if (tracer_.name(t.name) == name) return &t;
    }
    return nullptr;
  };
  // Mean self time per request (us) of a stage, over `requests` requests.
  auto per_request_us = [&](const char* name, double requests) {
    const StageTotal* t = find(name);
    return t != nullptr && requests > 0 ? t->self_ns / requests / 1e3 : 0.0;
  };
  auto row = [](const char* stage, double value, const char* note) {
    std::printf("  %-34s %12.3f  %s\n", stage, value, note);
  };

  const StageTotal* tcp_root = find("loadgen.request");
  const double tcp_requests =
      tcp_root != nullptr ? static_cast<double>(tcp_root->spans) : 0.0;
  const double replay_requests = static_cast<double>(replay_n_);
  struct Stage {
    const char* name;
    double us;
    const char* note;
  };
  const Stage serve[] = {
      {"loadgen.encode", per_request_us("loadgen.encode", tcp_requests),
       "client, traced TCP phase"},
      {"protocol.decode", per_request_us("protocol.decode", replay_requests),
       "replay"},
      {"predict_cache.probe",
       per_request_us("predict_cache.probe", replay_requests), "replay"},
      {"micro_batcher.predict_one",
       per_request_us("micro_batcher.predict_one", replay_requests),
       "replay (misses only): window wait + pack + fused pass"},
      {"predict_cache.insert",
       per_request_us("predict_cache.insert", replay_requests), "replay"},
      {"protocol.encode", per_request_us("protocol.encode", replay_requests),
       "replay"},
      {"replay glue", per_request_us("replay.request", replay_requests),
       "replay root self time"},
      {"loadgen.decode", per_request_us("loadgen.decode", tcp_requests),
       "client, traced TCP phase"},
  };
  double sum = 0.0;
  std::printf("\naccounting: TCP request at %.0f req/s (mean us per request)\n",
              kLoRate);
  for (const Stage& s : serve) {
    row(s.name, s.us, s.note);
    sum += s.us;
  }
  row("unaccounted", tcp_lo_mean_us_ - sum,
      "net_server: sockets, poll wakeups, handler scheduling");
  row("= end to end", tcp_lo_mean_us_, "untraced TCP mean latency from due");
  const StageTotal* replay_root = find("replay.request");
  const double traced_root_mean =
      replay_root != nullptr && replay_root->spans > 0
          ? replay_root->total_ns / static_cast<double>(replay_root->spans) / 1e3
          : 0.0;
  std::printf("  tracing overhead: replay %.3f us/request (traced %.3f vs "
              "untraced %.3f); TCP p50 %.3f us (traced %.3f vs untraced %.3f)\n",
              traced_root_mean - replay_untraced_mean_us_, traced_root_mean,
              replay_untraced_mean_us_, tcp_traced_p50_us_ - tcp_lo_p50_us_,
              tcp_traced_p50_us_, tcp_lo_p50_us_);

  std::printf("\naccounting: offline predict, 1 engine thread, %zu examples "
              "(median ms per pass)\n", kOfflineRows);
  const double mat_ms = rinc_ms_ - leaf_ms_;
  const double output_ms = predict1_ms_ - outputs1_ms_;
  row("batch_eval.leaf", leaf_ms_, "eval_lut_words over every leaf");
  row("batch_eval.mat", mat_ms, "eval_rinc_words - leaves");
  row("batch_eval.output", output_ms,
      "predict_dataset - rinc_outputs: code planes, argmax, unpack");
  row("unaccounted", runtime1_ms_ - leaf_ms_ - mat_ms - output_ms,
      "engine chunking, Runtime dispatch");
  row("= end to end", runtime1_ms_, "Runtime::predict");
  std::printf("  op count: %.1f word muxes per example; bank at %.3g of the "
              "lut_reduce peak (%.3g muxes/s)\n",
              static_cast<double>(bank_muxes_) / 64.0,
              static_cast<double>(bank_muxes_) *
                  static_cast<double>(run_.offline_x_.word_count()) /
                  (rinc_ms_ / 1e3) / peak_muxes_per_s_,
              peak_muxes_per_s_);

  std::printf("\naccounting: model file to serving (median ms)\n");
  row("packed_model.read", read_ms_, "read_packed_model_file, trusting load");
  row("runtime.construct", construct_ms_, "engine, cache, version slot");
  row("net_server.start", start_ms_, "batcher, socket, acceptor thread");
  row("unaccounted", setup_ms_ - read_ms_ - construct_ms_ - start_ms_,
      "Runtime::load's own work beyond read + construct");
  row("= end to end", setup_ms_, "Runtime::load + NetServer::start");
}

void TracedRun::execute() {
  tracer_.reserve(std::size_t{1} << 16);
  pin_server_cpus();
  calibrate_peak();
  if (!load_journey() || !offline_journey() || !window_probes() ||
      !codec_and_cache_probes() || !serve_journey()) {
    return;
  }
  print_tables();
  const RunResult& r = run_.result_;
  run_.add("fail_ratio",
           r.attempted > 0 ? static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted)
                           : 0.0,
           "ratio", r.attempted);
  const std::string path = run_.options_.workdir + "/spans-" + spec_.name +
                           "-" + std::to_string(run_.options_.seed) + ".csv";
  if (tracer_.write_csv(path)) {
    std::printf("spans: %zu written to %s\n", tracer_.spans().size(),
                path.c_str());
  }
}

void Run::traced_run() { TracedRun(*this).execute(); }

}  // namespace perfbench::detail
