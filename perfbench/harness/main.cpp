// perfbench: the repository benchmark harness.
//
//   perfbench --workload <serve_miss|serve_hot> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one line per metric (name, value, unit, sample count), the trace
// accounting tables when --trace 1, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every answer was right, 1 on a wrong answer, 2 on a
// usage or set-up error (no JSON line then).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

void print_json(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
      have_workdir = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !perfbench::is_workload(options.workload)) {
    return usage("unknown or missing --workload");
  }
  if (!have_workdir) return usage("missing --workdir");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const perfbench::RunResult result = perfbench::run_workload(options);
  if (result.metrics.empty()) return 2;  // set-up failed: no result
  std::fflush(stderr);
  print_json(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
