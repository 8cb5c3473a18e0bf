// In-memory spans for the traced benchmark run.
//
// The harness records a span around each of its own calls into a layer of
// the library: name, start, end, the span that caused it, and the id of the
// request it belongs to (all spans of one request share it). A span may
// stand for `count` operations when it wraps a bulk loop (a replay of the
// whole frame stream through one codec call per frame), so per-operation
// times are span time / count.
//
// A span's self time is its duration minus the part of that interval its
// child spans cover (children are clipped to the parent, and overlapping
// children are counted once). Spans stay in memory and are written out
// once, when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span vector; -1 = root
  std::uint64_t count = 1;   // operations the span covers
};

std::int64_t now_ns();

class Tracer {
 public:
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  // Opens a span at now_ns(); close it with end().
  std::int32_t begin(std::uint32_t name, std::uint64_t request,
                     std::int32_t parent = -1);
  void end(std::int32_t span, std::uint64_t count = 1);
  // Records an already-timed span.
  std::int32_t add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  // One line per span: name,request,start_ns,end_ns,parent,count.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Self time of every span (same indexing as `spans`).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// Per-name totals over a set of spans.
struct StageTotal {
  std::uint32_t name = 0;
  std::size_t spans = 0;
  double total_ns = 0.0;      // sum of durations
  double self_ns = 0.0;       // sum of self times
};

// Totals for every name in first-seen order.
std::vector<StageTotal> totals_by_name(const std::vector<Span>& spans,
                                       const std::vector<std::int64_t>& self);

}  // namespace perfbench
