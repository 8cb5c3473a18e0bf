#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::begin(std::uint32_t name, std::uint64_t request,
                           std::int32_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = now_ns();
  return add(span);
}

void Tracer::end(std::int32_t span, std::uint64_t count) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  s.count = count;
}

std::int32_t Tracer::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,request,start_ns,end_ns,parent,count\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%lld,%lld,%d,%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = std::max<std::int64_t>(s.end_ns - s.start_ns, 0);
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = duration - covered;
  }
  return self;
}

std::vector<StageTotal> totals_by_name(const std::vector<Span>& spans,
                                       const std::vector<std::int64_t>& self) {
  std::vector<StageTotal> out;
  std::map<std::uint32_t, std::size_t> slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, inserted] = slot.try_emplace(s.name, out.size());
    if (inserted) {
      out.emplace_back();
      out.back().name = s.name;
    }
    StageTotal& t = out[it->second];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    ++t.spans;
    t.total_ns += duration;
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace perfbench
