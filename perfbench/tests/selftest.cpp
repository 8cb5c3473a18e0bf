// Self-tests of the benchmark harness: the percentile and sample-count
// rule, due-time latency accounting against a fake clock, backlog detection
// and the reason a ladder step fails, the max-rate ladder search on a
// synthetic latency curve, span self-time arithmetic, and the input packing
// the oracle relies on. Exit status 0 when all pass.
//
//   cmake --build <build dir> --target perfbench_selftest
//   <build dir>/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "model_gen.h"
#include "openloop.h"
#include "stats.h"
#include "trace.h"
#include "util/bit_matrix.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using namespace perfbench;

constexpr std::int64_t kMs = 1000000;  // ns

void test_percentile_rule() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Percentile p50 = percentile(samples, kP50);
  const Percentile p90 = percentile(samples, kP90);
  EXPECT(near(p50.value, 50) && p50.n == 100 && p50.beyond == 50);
  // Exactly ten samples beyond p90 of 100: gateable.
  EXPECT(near(p90.value, 90) && p90.beyond == 10 && p90.gated);
  // 99 samples leave only nine beyond p90.
  samples.pop_back();
  const Percentile p90_99 = percentile(samples, kP90);
  EXPECT(p90_99.beyond == 9 && !p90_99.gated);
  EXPECT(gateable(1000, kP99) && !gateable(999, kP99));
  EXPECT(gateable(10000, kP999) && !gateable(9999, kP999));
  EXPECT(!percentile({}, kP50).gated && percentile({}, kP50).n == 0);
  // Order of the input does not matter; ranks are nearest-rank.
  EXPECT(near(percentile({5, 1, 4, 2, 3}, kP50).value, 3));
  EXPECT(percentile_rank(7, kP50) == 4 && percentile_rank(1, kP999) == 1);
}

// A fake clock drives the generator's bookkeeping: the generator stalls
// from 4.5 ms to 10 ms, then sends everything that fell due meanwhile.
void test_due_time_accounting() {
  const Schedule schedule = Schedule::at_rate(0, 1000.0, 0.02);  // 20 x 1 ms
  EXPECT(schedule.count == 20 && schedule.due(7) == 7 * kMs);
  Pacer pacer(schedule);
  PhaseLog log(schedule);
  std::int64_t clock = 0;  // the fake clock, ns
  const std::int64_t service = kMs / 10;
  auto wake = [&](std::int64_t t) {
    clock = t;
    std::size_t first = 0, last = 0;
    if (!pacer.take_due(clock, &first, &last)) return;
    for (std::size_t k = first; k < last; ++k) {
      log.sent(k, clock);
      log.answered(k, clock + service, /*ok=*/true);
    }
  };
  for (std::int64_t t = 0; t <= 4 * kMs; t += kMs) wake(t);
  wake(10 * kMs);  // the stall ends: requests 5..10 go out together
  EXPECT(pacer.sent() == 11);
  while (!pacer.done()) wake(pacer.next_due());
  const PhaseSummary s = PhaseSummary::of(log);
  EXPECT(s.attempted == 20 && s.failed == 0);
  // Request 5 was due at 5 ms and answered at 10.1 ms: 5.1 ms from due,
  // although only 0.1 ms passed between its send and its answer.
  EXPECT(log.answered_at(5) - schedule.due(5) == 5 * kMs + service);
  EXPECT(near(s.max_late_ms, 5.0));
  EXPECT(near(s.latency_ms.back(), 5.1));
  EXPECT(near(s.p50.value, 0.1));
  EXPECT(near(s.mean_ms, (20 * 0.1 + 5 + 4 + 3 + 2 + 1) / 20.0));

  // Unanswered and wrong answers fail and count as infinite latency.
  PhaseLog partial(schedule);
  for (std::size_t k = 0; k < 10; ++k) partial.sent(k, schedule.due(k));
  for (std::size_t k = 0; k < 8; ++k) {
    partial.answered(k, schedule.due(k) + service, /*ok=*/k != 3);
  }
  const PhaseSummary p = PhaseSummary::of(partial);
  EXPECT(p.attempted == 10 && p.failed == 3);
  EXPECT(std::isinf(p.latency_ms.back()));
  EXPECT(!step_passes(p, 2.0));
}

// A generator falling progressively behind is a backlog; a constant delay
// is not.
void test_backlog_detection() {
  const Schedule schedule = Schedule::at_rate(0, 10000.0, 0.1);  // 1000
  PhaseLog growing(schedule), constant(schedule);
  for (std::size_t k = 0; k < schedule.count; ++k) {
    const std::int64_t due = schedule.due(k);
    const auto drift = static_cast<std::int64_t>(k) * 2000;  // 2 us each
    growing.sent(k, due + drift);
    growing.answered(k, due + drift + 50000, true);
    constant.sent(k, due + 300000);
    constant.answered(k, due + 350000, true);
  }
  EXPECT(PhaseSummary::of(growing).backlogged);
  EXPECT(std::string(step_failure(PhaseSummary::of(growing), 2.0)) ==
         "generator backlog");
  EXPECT(!PhaseSummary::of(constant).backlogged);
  EXPECT(std::string(step_failure(PhaseSummary::of(constant), 0.1)) == "p90");
  EXPECT(step_passes(PhaseSummary::of(constant), 2.0));
}

// Synthetic M/M/1-like server: p90 = 0.4 ms / (1 - rate / 150k). The step at
// each rung is a real PhaseLog with that latency, so the search exercises
// the same pass rule as a live run.
bool synthetic_step(int rung, double capacity) {
  const double rate = ladder_rate(rung);
  const Schedule schedule = Schedule::at_rate(0, rate, 400.0 / rate);
  PhaseLog log(schedule);
  const double latency_ms =
      rate < capacity ? 0.4 / (1.0 - rate / capacity)
                      : std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < schedule.count; ++k) {
    log.sent(k, schedule.due(k));
    if (std::isfinite(latency_ms)) {
      log.answered(k, schedule.due(k) + static_cast<std::int64_t>(latency_ms * 1e6),
                   true);
    }
  }
  return step_passes(PhaseSummary::of(log), 2.0);
}

void test_ladder_search() {
  EXPECT(near(ladder_rate(kRungsPerOctave) / ladder_rate(0), 2.0));
  const double capacity = 150000.0;
  int expected = -1;
  const int lo = 104, hi = 231;  // 20.2k .. 790k req/s, 128 rungs
  for (int rung = lo; rung <= hi; ++rung) {
    if (synthetic_step(rung, capacity)) expected = rung;
  }
  // 0.4 / (1 - r / c) <= 2  <=>  r <= 0.8 c = 120k.
  EXPECT(expected >= 0 && ladder_rate(expected) <= 0.8 * capacity &&
         ladder_rate(expected + 1) > 0.8 * capacity);
  const LadderResult found =
      ladder_search(lo, hi, [&](int rung) { return synthetic_step(rung, capacity); });
  EXPECT(found.best_rung == expected);
  EXPECT(found.visited.size() <= 8);
  EXPECT(ladder_search(10, 20, [](int) { return false; }).best_rung == -1);
  EXPECT(ladder_search(10, 20, [](int) { return true; }).best_rung == 20);
}

void test_self_time() {
  std::vector<Span> spans;
  spans.push_back({0, 1, 0, 100, -1, 1});    // 0 root [0, 100]
  spans.push_back({1, 1, 10, 30, 0, 1});     // 1 child [10, 30]
  spans.push_back({2, 1, 20, 50, 0, 1});     // 2 child overlapping [20, 50]
  spans.push_back({3, 1, 90, 120, 0, 1});    // 3 child past the root's end
  spans.push_back({4, 1, 22, 26, 2, 1});     // 4 grandchild of 2
  spans.push_back({0, 2, 200, 260, -1, 4});  // 5 second root, no children
  const std::vector<std::int64_t> self = self_times(spans);
  // Children cover [10, 50] and [90, 100] of the root: 50 of its 100.
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30 - 4);  // minus its grandchild
  EXPECT(self[3] == 30);      // its own duration, unclipped
  EXPECT(self[4] == 4);
  EXPECT(self[5] == 60);
  const std::vector<StageTotal> totals = totals_by_name(spans, self);
  EXPECT(totals.size() == 5 && totals[0].name == 0);
  EXPECT(totals[0].spans == 2);
  EXPECT(near(totals[0].total_ns, 160) && near(totals[0].self_ns, 110));

  Tracer tracer;
  const std::uint32_t a = tracer.intern("a");
  EXPECT(tracer.intern("b") != a && tracer.intern("a") == a);
  const std::int32_t root = tracer.begin(a, 7);
  const std::int32_t child = tracer.begin(tracer.intern("b"), 7, root);
  tracer.end(child, 3);
  tracer.end(root);
  EXPECT(tracer.spans()[1].parent == root && tracer.spans()[1].count == 3);
  EXPECT(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
}

void test_packing() {
  std::uint64_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
  }
  std::uint64_t t[64];
  std::copy(block, block + 64, t);
  transpose64(t);
  bool ok = true;
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      ok = ok && (((block[i] >> j) & 1) == ((t[j] >> i) & 1));
    }
  }
  EXPECT(ok);

  const InputStream stream(42, 100);  // ragged width: 2 words, 36 tail bits
  const poetbin::BitMatrix packed = pack_rows(
      130, 100, [&](std::size_t r, std::uint64_t* words) { stream.fill(r, words); });
  bool same = packed.rows() == 130 && packed.cols() == 100;
  for (std::size_t r = 0; r < 130 && same; ++r) {
    same = packed.row(r) == stream.make(r);
  }
  EXPECT(same);
  std::set<std::uint64_t> firsts;
  std::uint64_t words[2];
  for (std::uint64_t i = 0; i < 10000; ++i) {
    stream.fill(i, words);
    firsts.insert(words[0]);
  }
  EXPECT(firsts.size() == 10000);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_due_time_accounting();
  test_backlog_detection();
  test_ladder_search();
  test_self_time();
  test_packing();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all passed\n");
  return 0;
}
