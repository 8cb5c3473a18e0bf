#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serve/protocol.h"

namespace perfbench {

namespace wire = poetbin::wire;

namespace {

int connect_loopback(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "socket() failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect() to the server failed";
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

Generator::~Generator() { disconnect(); }

bool Generator::connect(std::uint16_t port, std::size_t n_connections,
                        std::string* error) {
  disconnect();
  port_ = port;
  conns_.resize(n_connections);
  for (Conn& conn : conns_) {
    conn.fd = connect_loopback(port, error);
    if (conn.fd < 0) {
      disconnect();
      return false;
    }
  }
  return true;
}

void Generator::disconnect() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
}

void Generator::flush(Conn& conn) {
  while (conn.tx_off < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd, conn.tx.data() + conn.tx_off,
                             conn.tx.size() - conn.tx_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn.broken = true;
    return;
  }
  conn.tx.clear();
  conn.tx_off = 0;
}

PhaseRun Generator::run(double rate_per_s, double seconds,
                        RequestSource& source, const PhaseOptions& options) {
  Schedule schedule = Schedule::at_rate(0, rate_per_s, seconds);
  source.prepare(schedule.count);
  std::vector<std::int16_t> expected(schedule.count, -1);
  // Client codec intervals, recorded only when tracing.
  Tracer* tracer = options.tracer;
  std::vector<std::int64_t> enc_start, enc_end, dec_start, dec_end;
  if (tracer != nullptr) {
    enc_start.assign(schedule.count, 0);
    enc_end.assign(schedule.count, 0);
    dec_start.assign(schedule.count, 0);
    dec_end.assign(schedule.count, 0);
  }

  schedule.start_ns = now_ns() + 1000000;  // 1 ms lead to settle
  PhaseRun result{PhaseLog(schedule)};
  PhaseLog& log = result.log;
  Pacer pacer(schedule);
  const auto abort_ns = static_cast<std::int64_t>(options.abort_after_ms * 1e6);
  std::int64_t drain_deadline = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> pfds(conns_.size());
  std::uint8_t chunk[64 * 1024];

  for (;;) {
    std::int64_t now = now_ns();
    std::size_t first = 0, last = 0;
    if (pacer.take_due(now, &first, &last)) {
      for (std::size_t k = first; k < last; ++k) {
        Conn& conn = conns_[k % conns_.size()];
        if (tracer != nullptr) enc_start[k] = now_ns();
        expected[k] = static_cast<std::int16_t>(source.encode(k, &conn.tx));
        if (tracer != nullptr) enc_end[k] = now_ns();
        conn.inflight.push_back(static_cast<std::uint32_t>(k));
        log.sent(k, now);
        ++outstanding;
      }
      for (Conn& conn : conns_) {
        if (!conn.broken && conn.tx.size() > conn.tx_off) flush(conn);
      }
    }
    if (!pacer.done()) {
      std::int64_t oldest_due = pacer.next_due();
      for (const Conn& conn : conns_) {
        if (!conn.inflight.empty()) {
          oldest_due = std::min(oldest_due, schedule.due(conn.inflight.front()));
        }
      }
      if (now - oldest_due > abort_ns) {
        pacer.stop();
        result.aborted = true;
      }
    }
    bool any_broken = false;
    for (const Conn& conn : conns_) any_broken = any_broken || conn.broken;
    if (any_broken) pacer.stop();
    if (pacer.done()) {
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<std::int64_t>(kDrainMs * 1e6);
      }
      if (outstanding == 0 || now >= drain_deadline || any_broken) break;
    }

    // Busy-poll: a sleeping generator wakes tens of microseconds (in the
    // tail, milliseconds) after its deadline on a virtualised host, which
    // would charge the generator's own wakeups to the server.
    const timespec timeout{0, 0};
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].fd;
      pfds[c].events = POLLIN;
      if (conns_[c].tx.size() > conns_[c].tx_off) pfds[c].events |= POLLOUT;
      pfds[c].revents = 0;
    }
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if ((pfds[c].revents & POLLOUT) != 0) flush(conn);
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          conn.rx.insert(conn.rx.end(), chunk, chunk + got);
          if (static_cast<std::size_t>(got) < sizeof(chunk)) break;
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.broken = true;  // peer closed or error
        break;
      }
      for (;;) {
        wire::Response response;
        const std::int64_t d0 = now_ns();
        const wire::FrameResult r = wire::decode_response(
            conn.rx.data(), conn.rx.size(), &conn.rx_off, &response);
        if (r == wire::FrameResult::kNeedMore) break;
        if (r == wire::FrameResult::kReject || conn.inflight.empty()) {
          conn.broken = true;
          break;
        }
        const std::int64_t done = now_ns();
        const std::uint32_t k = conn.inflight.front();
        conn.inflight.pop_front();
        --outstanding;
        if (tracer != nullptr) {
          dec_start[k] = d0;
          dec_end[k] = done;
        }
        const bool ok = response.type == wire::MsgType::kPredict &&
                        response.status == wire::Status::kOk &&
                        response.prediction == expected[k];
        if (response.status == wire::Status::kOk && !ok) ++result.wrong;
        log.answered(k, done, ok);
      }
      if (conn.rx_off > 0 && conn.rx_off * 2 >= conn.rx.size()) {
        conn.rx.erase(conn.rx.begin(),
                      conn.rx.begin() + static_cast<std::ptrdiff_t>(conn.rx_off));
        conn.rx_off = 0;
      }
    }
  }

  // A broken or undrained connection may still carry answers for this
  // phase; reconnect so the next phase starts on clean streams.
  bool dirty = false;
  for (const Conn& conn : conns_) {
    dirty = dirty || conn.broken || !conn.inflight.empty() ||
            conn.tx.size() > conn.tx_off || conn.rx.size() > conn.rx_off;
  }
  if (dirty) {
    const std::size_t n = conns_.size();
    std::string error;
    connect(port_, n, &error);
  }

  if (tracer != nullptr) {
    const std::uint32_t root_name = tracer->intern("loadgen.request");
    const std::uint32_t enc_name = tracer->intern("loadgen.encode");
    const std::uint32_t dec_name = tracer->intern("loadgen.decode");
    for (std::size_t k = 0; k < schedule.count; ++k) {
      if (log.sent_at(k) < 0 || log.answered_at(k) < 0) continue;
      const std::uint64_t id = options.request_base + k;
      const std::int32_t root = tracer->add(
          {root_name, id, schedule.due(k), log.answered_at(k), -1, 1});
      tracer->add({enc_name, id, enc_start[k], enc_end[k], root, 1});
      tracer->add({dec_name, id, dec_start[k], dec_end[k], root, 1});
    }
  }
  return result;
}

}  // namespace perfbench
