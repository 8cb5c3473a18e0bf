// The open-loop TCP load generator: one thread, a few connections to a
// NetServer, requests sent on a fixed schedule (openloop.h) and every
// answer checked against the class its input must get.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "openloop.h"
#include "trace.h"
#include "util/bitvector.h"

namespace perfbench {

// Supplies a phase's requests. prepare() runs before the phase starts (it
// may be slow: it computes the expected classes); encode() runs inside the
// timed loop and must be cheap.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual void prepare(std::size_t count) = 0;
  // Appends request k's frame to *out; returns the class it must get.
  virtual int encode(std::size_t k, std::vector<std::uint8_t>* out) = 0;
  // Request k's input (after prepare), for the in-process replays.
  virtual poetbin::BitVector input(std::size_t k) const = 0;
};

struct PhaseOptions {
  // Stop sending once the oldest unanswered request (or the next unsent
  // one) is this far past due: the step has failed its limit anyway, and a
  // deeper backlog would only lengthen the drain.
  double abort_after_ms = 1000.0;
  // Record per-request spans (root = due..answer, children = the client's
  // encode and decode work).
  Tracer* tracer = nullptr;
  // Added to request indices to form span request ids unique in the run.
  std::uint64_t request_base = 0;
};

struct PhaseRun {
  PhaseLog log;
  bool aborted = false;
  std::size_t wrong = 0;  // answered with kOk but the wrong class
};

// How long a phase waits for stragglers after its last send; anything
// still unanswered then counts as failed.
inline constexpr double kDrainMs = 5000.0;

class Generator {
 public:
  Generator() = default;
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(std::uint16_t port, std::size_t n_connections,
               std::string* error);
  void disconnect();

  PhaseRun run(double rate_per_s, double seconds, RequestSource& source,
               const PhaseOptions& options);

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    std::vector<std::uint8_t> rx;
    std::size_t rx_off = 0;
    std::deque<std::uint32_t> inflight;  // request indices, send order
    bool broken = false;
  };

  // Sends what the connection's buffer holds without blocking.
  void flush(Conn& conn);
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
