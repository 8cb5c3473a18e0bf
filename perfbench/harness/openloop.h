// Open-loop load accounting and the max-rate ladder search.
//
// An open-loop generator sends request k at its *due* time
// start + k * period, whether or not earlier requests were answered, so a
// stalled server (or a stalled generator) builds a queue instead of
// quietly receiving less load. Every latency here is timed from the due
// time, not from the moment the generator got round to sending: a stall
// that delays later sends is charged to those requests. How late the
// generator sent is recorded separately, and a step whose lateness grows
// from its first quarter to its last is marked backlogged.
//
// Everything in this header is pure bookkeeping over timestamps, so it is
// driven by the socket generator (generator.h) and by the self-tests with a
// fake clock alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats.h"

namespace perfbench {

// Request k of a phase is due at start_ns + round(k * period_ns).
struct Schedule {
  std::int64_t start_ns = 0;
  double period_ns = 0.0;
  std::size_t count = 0;

  static Schedule at_rate(std::int64_t start_ns, double rate_per_s,
                          double seconds);
  std::int64_t due(std::size_t k) const;
};

// Hands out the requests that are due. The generator calls take_due(now)
// whenever it wakes; every request it returns counts as sent at `now`.
class Pacer {
 public:
  explicit Pacer(const Schedule& schedule);

  // [*first, *last) are due at `now` and not yet sent; marks them sent.
  // Returns false when none are due.
  bool take_due(std::int64_t now, std::size_t* first, std::size_t* last);
  // Due time of the next unsent request (the generator sleeps until then).
  // Only meaningful while !done().
  std::int64_t next_due() const { return schedule_.due(next_); }
  bool done() const { return next_ >= limit_; }
  // Stops sending: requests from the next unsent one on are never attempted.
  void stop() { limit_ = next_; }
  std::size_t sent() const { return next_; }

 private:
  Schedule schedule_;
  std::size_t next_ = 0;
  std::size_t limit_ = 0;
};

// Per-request record of one phase.
class PhaseLog {
 public:
  explicit PhaseLog(const Schedule& schedule);

  const Schedule& schedule() const { return schedule_; }
  void sent(std::size_t k, std::int64_t now);
  // An answer arrived for request k; ok = right status and right class.
  void answered(std::size_t k, std::int64_t now, bool ok);

  std::size_t n_answered() const { return n_answered_; }
  std::int64_t sent_at(std::size_t k) const { return sent_ns_[k]; }
  std::int64_t answered_at(std::size_t k) const { return done_ns_[k]; }

 private:
  friend struct PhaseSummary;
  Schedule schedule_;
  std::vector<std::int64_t> sent_ns_;  // -1 = never sent
  std::vector<std::int64_t> done_ns_;  // -1 = never answered
  std::vector<std::uint8_t> ok_;
  std::size_t n_answered_ = 0;
};

// Lateness growth beyond this across a step marks it backlogged.
inline constexpr double kBacklogGrowthMs = 0.5;

struct PhaseSummary {
  std::size_t attempted = 0;  // requests sent
  std::size_t failed = 0;     // wrong answer, non-ok status, or unanswered
  // Latency from due time, ms, ascending. A failed request is +infinity:
  // it misses every latency limit.
  std::vector<double> latency_ms;
  Percentile p50, p90, p99, p999;
  double mean_ms = 0.0;        // over answered-ok requests
  double max_late_ms = 0.0;    // worst send lateness
  double late_growth_ms = 0.0; // median lateness, last quarter - first
  bool backlogged = false;

  static PhaseSummary of(const PhaseLog& log);
};

// A ladder step passes when its p90 is gateable and within the limit, no
// request failed, and the generator did not fall progressively behind.
bool step_passes(const PhaseSummary& step, double p90_limit_ms);
// Why a step failed, the generator's own backlog first (then the server was
// not the limit); nullptr when it passed.
const char* step_failure(const PhaseSummary& step, double p90_limit_ms);

// The fixed geometric rate ladder: rung r is kLadderBase * 2^(r / 24),
// rungs 2.9% apart.
inline constexpr double kLadderBase = 1000.0;
inline constexpr int kRungsPerOctave = 24;
double ladder_rate(int rung);

struct LadderResult {
  int best_rung = -1;  // highest passing rung; -1 when even `lo` fails
  std::vector<std::pair<int, bool>> visited;  // (rung, passed) in order
};

// Binary search for the highest rung in [lo, hi] whose step passes,
// assuming pass/fail is monotone in the rate.
LadderResult ladder_search(int lo, int hi,
                           const std::function<bool(int rung)>& passes);

}  // namespace perfbench
