// The benchmark's workloads. Each one builds a random model with the S1
// preset's shape (P=6, 256 input bits), writes it as a packed file, and
// measures three journeys on it: the model file into a serving Runtime +
// NetServer (set-up), an offline Runtime::predict over a pre-packed
// dataset, and open-loop TCP requests through NetServer / MicroBatcher /
// PredictCache, served by one engine thread.
//
//   serve_miss   every request a never-seen input: the cache always misses.
//   serve_mixed  30% of requests zipf(0.99) over a pool of 1024 inputs,
//                which the cache answers once seen; the rest never-seen.
//   serve_hot    every request from the pool: the cache answers almost all.
//                Not in BENCHMARK.json: its tens-of-microsecond latencies
//                follow the host's vCPU scheduling (METRICS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string workdir;  // scratch space for the model file and span dump
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool is_workload(const std::string& name);

RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
