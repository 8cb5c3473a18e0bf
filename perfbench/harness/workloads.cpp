#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <thread>

#include "core/packed_model.h"
#include "run.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace perfbench {
namespace detail {

bool Run::prepare_model() {
  model_ = random_model(kArity, kInputBits, options_.seed);
  model_path_ = options_.workdir + "/model-" + spec_.name + "-" +
                std::to_string(::getpid()) + ".pbm";
  const poetbin::IoStatus written =
      poetbin::write_packed_model_file(model_, model_path_);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", model_path_.c_str(),
                 written.error().message.c_str());
    return false;
  }
  auto loaded = Runtime::load(model_path_, {.threads = kEngineThreads});
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", model_path_.c_str(),
                 loaded.error().message.c_str());
    return false;
  }
  oracle_ = std::make_unique<Runtime>(std::move(loaded).value());

  // Offline dataset: its own stream, packed once, answers from the oracle.
  const InputStream offline_stream(options_.seed * 0x100000001b3ULL + 29,
                                   kInputBits);
  offline_x_ = pack_rows(kOfflineRows, kInputBits,
                         [&](std::size_t r, std::uint64_t* words) {
                           offline_stream.fill(r, words);
                         });
  offline_expected_ = oracle_->predict(offline_x_);

  if (spec_.pool_share > 0.0) {
    std::vector<BitVector> pool;
    for (std::size_t i = 0; i < kHotPool; ++i) pool.push_back(stream_.make(i));
    const BitMatrix packed =
        pack_rows(kHotPool, kInputBits,
                  [&](std::size_t r, std::uint64_t* words) {
                    std::copy(pool[r].words(),
                              pool[r].words() + pool[r].word_count(), words);
                  });
    hot_ = std::make_unique<HotSource>(std::move(pool), oracle_->predict(packed),
                                       options_.seed + 101);
  }
  if (spec_.pool_share < 1.0) {
    // With a pool, the new inputs come from a stream of their own: the pool
    // took the first inputs of stream_.
    miss_ = std::make_unique<MissSource>(
        hot_ == nullptr
            ? stream_
            : InputStream(options_.seed * 0x100000001b3ULL + 23, kInputBits),
        *oracle_);
  }
  if (hot_ != nullptr && miss_ != nullptr) {
    mixed_ = std::make_unique<MixedSource>(*hot_, *miss_, spec_.pool_share,
                                           options_.seed + 103);
  }
  return check_oracle();
}

// The fused oracle must agree with the scalar reference (the in-memory
// model, not the packed file) on a seeded sample of every input set.
bool Run::check_oracle() {
  poetbin::Rng rng(options_.seed + 7);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kSpotChecks; ++i) {
    const std::size_t r = rng.next_index(kOfflineRows);
    if (model_.predict(offline_x_.row(r)) != offline_expected_[r]) {
      wrong("oracle disagrees with scalar PoetBin::predict on dataset row " +
            std::to_string(r));
    }
    ++checked;
  }
  if (hot_ != nullptr) {
    for (std::size_t i = 0; i < kHotPool; i += kHotPool / 64) {
      if (model_.predict(hot_->pool()[i]) != hot_->pool_expected()[i]) {
        wrong("oracle disagrees with scalar on pool key " + std::to_string(i));
      }
      ++checked;
    }
  }
  if (miss_ != nullptr) {
    // A throwaway phase-sized batch of the miss stream on a private copy so
    // the served stream's indices are untouched.
    MissSource probe(InputStream(options_.seed + 3, kInputBits),
                     *oracle_);
    probe.prepare(kSpotChecks);
    for (std::size_t k = 0; k < kSpotChecks; ++k) {
      if (model_.predict(probe.input(k)) != probe.expected(k)) {
        wrong("oracle disagrees with scalar on stream input " +
              std::to_string(k));
      }
      ++checked;
    }
  }
  std::printf("oracle: fused Runtime::predict matches scalar PoetBin::predict "
              "on %zu sampled inputs\n", checked);
  return result_.correct;
}

Server Run::start_server() {
  Server s;
  s.load_ns = now_ns();
  auto loaded = Runtime::load(
      model_path_, {.threads = kEngineThreads, .cache_bytes = kCacheBytes});
  if (!loaded.ok()) return s;
  s.runtime = std::make_unique<Runtime>(std::move(loaded).value());
  s.start_ns = now_ns();
  s.server = std::make_unique<NetServer>(
      *s.runtime, poetbin::NetServerOptions{.port = 0,
                                            .micro_batch = true,
                                            .max_batch = kWindow,
                                            .max_wait = kMaxWait,
                                            .n_features = kInputBits});
  std::string error;
  if (!s.server->start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    s.server.reset();
    return s;
  }
  s.ready_ns = now_ns();
  return s;
}

bool Run::setup_reps(std::vector<Server>* servers) {
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    Server s = start_server();
    if (s.server == nullptr) {
      wrong("server set-up failed");
      return false;
    }
    servers->push_back(std::move(s));
  }
  return true;
}

void retire(std::vector<Server> servers) {
  std::vector<std::thread> stoppers;
  for (Server& s : servers) {
    stoppers.emplace_back([server = std::move(s)]() mutable {
      server.server.reset();
      server.runtime.reset();
    });
  }
  for (auto& t : stoppers) t.join();
}

namespace {

// The allowed CPUs when first asked, split into (server, generator).
struct CpuSplit {
  bool valid = false;
  cpu_set_t allowed, server, generator;

  CpuSplit() {
    CPU_ZERO(&allowed);
    CPU_ZERO(&server);
    CPU_ZERO(&generator);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2) {
      return;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) last = cpu;
    }
    server = allowed;
    CPU_CLR(last, &server);
    CPU_SET(last, &generator);
    valid = true;
  }
};

const CpuSplit& cpu_split() {
  static const CpuSplit split;
  return split;
}

}  // namespace

void pin_server_cpus() {
  if (cpu_split().valid) {
    ::sched_setaffinity(0, sizeof(cpu_set_t), &cpu_split().server);
  }
}

void pin_generator_cpu() {
  if (cpu_split().valid) {
    ::sched_setaffinity(0, sizeof(cpu_set_t), &cpu_split().generator);
  }
}

void pin_next_cpu() {
  static int last = -1;
  if (!cpu_split().valid) return;
  const cpu_set_t& allowed = cpu_split().allowed;
  do {
    last = (last + 1) % CPU_SETSIZE;
  } while (!CPU_ISSET(last, &allowed));
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

void Run::offline_slice(Runtime& runtime, double budget_s,
                        std::vector<double>* times) {
  const std::int64_t t_end =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  std::size_t passes = 0;
  while (passes < 3 || now_ns() < t_end) {
    pin_next_cpu();
    const std::int64_t t0 = now_ns();
    const std::vector<int> preds = runtime.predict(offline_x_);
    times->push_back(seconds_since(t0));
    ++passes;
    ++result_.attempted;
    if (preds != offline_expected_) {
      ++result_.failed;
      wrong("Runtime::predict over the offline dataset changed its answers");
    }
  }
  pin_generator_cpu();
}

PhaseRun Run::serve_phase(Generator& gen, double rate, double seconds,
                          double abort_ms, Tracer* tracer) {
  PhaseOptions opts;
  opts.abort_after_ms = abort_ms;
  opts.tracer = tracer;
  opts.request_base = request_ids_;
  PhaseRun run = gen.run(rate, seconds, source(), opts);
  request_ids_ += run.log.schedule().count;
  account(run);
  // Let the server go idle so phases do not overlap.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return run;
}

void Run::account(const PhaseRun& run) {
  const PhaseSummary s = PhaseSummary::of(run.log);
  result_.attempted += s.attempted;
  result_.failed += s.failed;
  if (run.wrong > 0) {
    wrong(std::to_string(run.wrong) + " served answers differ from the oracle");
  }
}

void report_latency(const char* label, const PhaseSummary& s) {
  std::printf(
      "  %-10s sent %zu failed %zu | p50 %.4f ms (n=%zu) p90 %.4f ms "
      "(beyond=%zu) p99 %.4f ms (beyond=%zu%s) p999 %.4f ms (beyond=%zu%s) "
      "| max late %.3f ms, late growth %.3f ms\n",
      label, s.attempted, s.failed, s.p50.value, s.p50.n, s.p90.value,
      s.p90.beyond, s.p99.value, s.p99.beyond, s.p99.gated ? "" : ", ungated",
      s.p999.value, s.p999.beyond, s.p999.gated ? "" : ", ungated",
      s.max_late_ms, s.late_growth_ms);
}

// One round of the max_rps search: a binary search of the rungs above the
// best one so far (all of [kLadderLo, kLadderHi] in the first round) for
// the highest whose step meets the limit. A step that host noise fails then
// costs at most one round's improvement: with five independent searches one
// early false failure sent a whole round an octave or more below the
// others. *best keeps the passing step's completion rate (answers / (last
// answer - first due)); *failures why each rung last failed.
void Run::ladder(Generator& gen, double step_s, LadderOutcome* best,
                 std::vector<const char*>* failures) {
  ladder_search(std::max(kLadderLo, best->rung + 1), kLadderHi, [&](int rung) {
    const double rate = ladder_rate(rung);
    const PhaseRun run = serve_phase(
        gen, rate, std::min(step_s, kMaxStepRequests / rate), kLadderAbortMs);
    const PhaseSummary s = PhaseSummary::of(run.log);
    const char* failure = step_failure(s, kP90LimitMs);
    if (failure == nullptr && run.aborted) failure = "aborted";
    std::printf("  ladder rung %3d  %9.0f req/s  p90 %.3f ms  failed %zu  "
                "late growth %.3f ms -> %s%s\n",
                rung, rate, s.p90.value, s.failed, s.late_growth_ms,
                failure == nullptr ? "pass" : "fail: ",
                failure == nullptr ? "" : failure);
    (*failures)[rung - kLadderLo] = failure;
    if (failure == nullptr) {
      std::int64_t last = 0;
      for (std::size_t k = 0; k < run.log.schedule().count; ++k) {
        last = std::max(last, run.log.answered_at(k));
      }
      const double span_s =
          static_cast<double>(last - run.log.schedule().start_ns) / 1e9;
      best->rung = rung;
      best->rate = static_cast<double>(run.log.n_answered()) / span_s;
      best->samples = run.log.n_answered();
    }
    return failure == nullptr;
  });
}

// The timed run repeats its phases in kRounds rounds spread over the run
// (the latency phases in kLatencySlices slices per round) and reports each
// metric from the fast end of its rounds or slices (throughput from the
// fastest offline pass, max_rps from the highest passing ladder step,
// latencies as below):
// on a shared host another tenant can slow the machine for seconds at a
// time, and that only ever makes a measurement worse.
// Set-up time is the median over the set-ups made before the first round.
void Run::timed_run() {
  const double round_s = options_.seconds / kRounds;
  const double step_s = kShareLadderStep * options_.seconds;
  std::vector<Server> servers;  // servers.front() serves the load
  std::vector<double> setup_times, pass_times;
  pin_server_cpus();
  if (!setup_reps(&servers)) {
    retire(std::move(servers));
    return;
  }
  for (const Server& s : servers) setup_times.push_back(s.setup_s());
  // Only the first server stays up: the others' acceptors would wake the
  // server CPUs for nothing.
  retire(std::vector<Server>(std::make_move_iterator(servers.begin() + 1),
                             std::make_move_iterator(servers.end())));
  servers.resize(1);
  Server& serving = servers.front();
  pin_generator_cpu();
  Generator gen;
  std::vector<Percentile> lo50, lo90, hi50, hi90;  // one per slice
  LadderOutcome best;
  std::vector<const char*> failures(kLadderHi - kLadderLo + 1, nullptr);
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::printf("round %zu\n", round + 1);
    if (round == 0) {
      serving.runtime->predict(offline_x_);  // page in the splats
      std::string error;
      if (!gen.connect(serving.server->port(), kConnections, &error)) {
        wrong("connect: " + error);
        retire(std::move(servers));
        return;
      }
      serve_phase(gen, kHiRate, kShareWarmup * round_s, 1000.0);
    }
    std::vector<double> passes;
    offline_slice(*serving.runtime, kShareOffline * round_s, &passes);
    std::printf("  offline    %zu passes, median %.4g examples/s\n",
                passes.size(),
                static_cast<double>(kOfflineRows) / median(passes));
    pass_times.insert(pass_times.end(), passes.begin(), passes.end());

    for (std::size_t slice = 0; slice < kLatencySlices; ++slice) {
      const PhaseSummary lo = PhaseSummary::of(
          serve_phase(gen, kLoRate, kShareLo * round_s / kLatencySlices,
                      1000.0)
              .log);
      report_latency("lo", lo);
      lo50.push_back(lo.p50);
      lo90.push_back(lo.p90);
      const PhaseSummary hi = PhaseSummary::of(
          serve_phase(gen, kHiRate, kShareHi * round_s / kLatencySlices,
                      1000.0)
              .log);
      report_latency("hi", hi);
      hi50.push_back(hi.p50);
      hi90.push_back(hi.p90);
    }

    ladder(gen, step_s, &best, &failures);
  }
  gen.disconnect();

  add("setup_s", median(setup_times), "s", setup_times.size());
  add("examples_per_s",
      static_cast<double>(kOfflineRows) /
          *std::min_element(pass_times.begin(), pass_times.end()),
      "1/s", pass_times.size());
  // A slice's latency at the 10th percentile of the 25 slices (the 3rd
  // best): the host's fast state sets it as long as it held for 3 slices,
  // and no single lucky slice does. On serve_hot, where latency is mostly
  // vCPU wake-up, a slice's p90 at 40k req/s reads either about 26 us or
  // about 36 us for minutes at a time as the host schedules the vCPUs, and a
  // noisy minute lifts most slices several-fold; the median slice follows
  // both (its spread over ten runs reached 0.3-0.7). This pick held
  // serve_hot's to 0.10-0.18 in calm hours but not while the host stole
  // 5-15% of the vCPUs' time (0.26-0.39), so serve_hot is left out of
  // BENCHMARK.json; on the millisecond latencies of serve_miss and
  // serve_mixed it is the fast end that discards disturbed slices.
  auto fast_slice = [](std::vector<Percentile> slices) {
    std::sort(slices.begin(), slices.end(),
              [](const Percentile& a, const Percentile& b) {
                return a.value < b.value;
              });
    return slices[percentile_rank(slices.size(), kP10) - 1];
  };
  for (auto [name, slices] :
       {std::pair{"p50_ms_lo", &lo50}, std::pair{"p90_ms_lo", &lo90},
        std::pair{"p50_ms_hi", &hi50}, std::pair{"p90_ms_hi", &hi90}}) {
    const Percentile p = fast_slice(*slices);
    add(name, p.value, "ms", p.n);
  }
  if (best.rung < 0) {
    std::printf("max_rps: no ladder rung met the limit\n");
  } else if (best.rung == kLadderHi) {
    std::printf("max_rps: rung %d, the top of the ladder\n", best.rung);
  } else {
    // "generator backlog" here means the figure is the load generator's.
    std::printf("max_rps: rung %d of %d..%d; rung %d last failed by %s\n",
                best.rung, kLadderLo, kLadderHi, best.rung + 1,
                failures[best.rung + 1 - kLadderLo]);
  }
  add("max_rps", best.rate, "1/s", best.samples);
  const ServeStats stats = serving.server->stats();
  std::printf("server: %llu requests, %llu windows, cache hit rate %.4f\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.cache_hit_rate());
  retire(std::move(servers));
}

RunResult Run::execute() {
  std::printf("workload %s seed %llu: P=%zu, %zu input bits, %zu engine "
              "thread(s), %.0f%% of inputs from a zipf-0.99 pool of %zu, the "
              "rest new, backend %s\n",
              spec_.name, static_cast<unsigned long long>(options_.seed),
              kArity, kInputBits, kEngineThreads, spec_.pool_share * 100.0,
              kHotPool, poetbin::word_ops().name);
  if (!prepare_model()) {
    result_.correct = false;
  } else if (options_.trace) {
    traced_run();
  } else {
    timed_run();
  }
  std::remove(model_path_.c_str());
  return std::move(result_);
}

}  // namespace detail

using detail::find_spec;
using detail::Spec;

bool is_workload(const std::string& name) { return find_spec(name) != nullptr; }

RunResult run_workload(const RunOptions& options) {
  const Spec* spec = find_spec(options.workload);
  detail::Run run(*spec, options);
  return run.execute();
}

}  // namespace perfbench
