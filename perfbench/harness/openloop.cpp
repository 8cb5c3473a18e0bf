#include "openloop.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Schedule Schedule::at_rate(std::int64_t start_ns, double rate_per_s,
                           double seconds) {
  Schedule s;
  s.start_ns = start_ns;
  s.period_ns = 1e9 / rate_per_s;
  s.count = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  return s;
}

std::int64_t Schedule::due(std::size_t k) const {
  return start_ns +
         std::llround(static_cast<double>(k) * period_ns);
}

Pacer::Pacer(const Schedule& schedule)
    : schedule_(schedule), limit_(schedule.count) {}

bool Pacer::take_due(std::int64_t now, std::size_t* first,
                     std::size_t* last) {
  std::size_t end = next_;
  while (end < limit_ && schedule_.due(end) <= now) ++end;
  if (end == next_) return false;
  *first = next_;
  *last = end;
  next_ = end;
  return true;
}

PhaseLog::PhaseLog(const Schedule& schedule)
    : schedule_(schedule),
      sent_ns_(schedule.count, -1),
      done_ns_(schedule.count, -1),
      ok_(schedule.count, 0) {}

void PhaseLog::sent(std::size_t k, std::int64_t now) {
  sent_ns_[k] = now;
}

void PhaseLog::answered(std::size_t k, std::int64_t now, bool ok) {
  if (done_ns_[k] < 0) ++n_answered_;
  done_ns_[k] = now;
  ok_[k] = ok ? 1 : 0;
}

PhaseSummary PhaseSummary::of(const PhaseLog& log) {
  PhaseSummary s;
  const Schedule& schedule = log.schedule_;
  std::vector<double> lateness;
  double ok_sum = 0.0;
  std::size_t ok_n = 0;
  for (std::size_t k = 0; k < schedule.count; ++k) {
    if (log.sent_ns_[k] < 0) continue;
    ++s.attempted;
    const std::int64_t due = schedule.due(k);
    const double late_ms = static_cast<double>(log.sent_ns_[k] - due) / 1e6;
    lateness.push_back(late_ms);
    s.max_late_ms = std::max(s.max_late_ms, late_ms);
    if (log.done_ns_[k] < 0 || log.ok_[k] == 0) {
      ++s.failed;
      s.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const double ms = static_cast<double>(log.done_ns_[k] - due) / 1e6;
    s.latency_ms.push_back(ms);
    ok_sum += ms;
    ++ok_n;
  }
  std::sort(s.latency_ms.begin(), s.latency_ms.end());
  s.p50 = percentile_sorted(s.latency_ms, kP50);
  s.p90 = percentile_sorted(s.latency_ms, kP90);
  s.p99 = percentile_sorted(s.latency_ms, kP99);
  s.p999 = percentile_sorted(s.latency_ms, kP999);
  s.mean_ms = ok_n > 0 ? ok_sum / static_cast<double>(ok_n) : 0.0;
  // Lateness is in due order already (requests are sent in order).
  const std::size_t quarter = lateness.size() / 4;
  if (quarter > 0) {
    const std::vector<double> head(lateness.begin(),
                                   lateness.begin() + quarter);
    const std::vector<double> tail(lateness.end() - quarter, lateness.end());
    s.late_growth_ms = median(tail) - median(head);
    s.backlogged = s.late_growth_ms > kBacklogGrowthMs;
  }
  return s;
}

bool step_passes(const PhaseSummary& step, double p90_limit_ms) {
  return step_failure(step, p90_limit_ms) == nullptr;
}

const char* step_failure(const PhaseSummary& step, double p90_limit_ms) {
  if (step.backlogged) return "generator backlog";
  if (step.attempted == 0 || step.failed > 0) return "failed requests";
  if (!step.p90.gated) return "too few samples";
  if (step.p90.value > p90_limit_ms) return "p90";
  return nullptr;
}

double ladder_rate(int rung) {
  return kLadderBase *
         std::exp2(static_cast<double>(rung) / kRungsPerOctave);
}

LadderResult ladder_search(int lo, int hi,
                           const std::function<bool(int rung)>& passes) {
  LadderResult result;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    const bool ok = passes(mid);
    result.visited.emplace_back(mid, ok);
    if (ok) {
      result.best_rung = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return result;
}

}  // namespace perfbench
