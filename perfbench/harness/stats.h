// Sample statistics for the benchmark: nearest-rank percentiles that carry
// their sample count, and the rule for which percentiles may be gated.
//
// A percentile q of n samples is the sample at rank ceil(q * n) (1-based)
// of the sorted samples. The samples "beyond" it are the n - ceil(q * n)
// larger ones. A percentile is reported always, but gated (used in a
// pass/fail decision) only when at least kMinBeyond samples lie beyond it:
// p90 needs 100 samples, p99 1000, p999 10000.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// Percentiles are given in parts per million so rank arithmetic is exact
// integer arithmetic (0.9 * 100 must be exactly 90, never 90.0000001).
inline constexpr std::uint32_t kP10 = 100000;
inline constexpr std::uint32_t kP50 = 500000;
inline constexpr std::uint32_t kP90 = 900000;
inline constexpr std::uint32_t kP99 = 990000;
inline constexpr std::uint32_t kP999 = 999000;

// 1-based nearest rank of percentile `ppm` among n samples (0 when n == 0).
inline std::size_t percentile_rank(std::size_t n, std::uint32_t ppm) {
  if (n == 0) return 0;
  const std::size_t rank =
      (n * static_cast<std::size_t>(ppm) + 999999) / 1000000;
  return std::max<std::size_t>(rank, 1);
}

inline std::size_t samples_beyond(std::size_t n, std::uint32_t ppm) {
  return n - percentile_rank(n, ppm);
}

inline bool gateable(std::size_t n, std::uint32_t ppm) {
  return n > 0 && samples_beyond(n, ppm) >= kMinBeyond;
}

struct Percentile {
  double value = 0.0;
  std::size_t n = 0;        // samples the percentile was taken over
  std::size_t beyond = 0;   // samples strictly after its rank
  bool gated = false;       // beyond >= kMinBeyond
};

// `sorted` must be ascending.
inline Percentile percentile_sorted(const std::vector<double>& sorted,
                                    std::uint32_t ppm) {
  Percentile p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  const std::size_t rank = percentile_rank(p.n, ppm);
  p.value = sorted[rank - 1];
  p.beyond = p.n - rank;
  p.gated = p.beyond >= kMinBeyond;
  return p;
}

inline Percentile percentile(std::vector<double> samples, std::uint32_t ppm) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, ppm);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), kP50).value;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
