#include "net/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "net/net_util.h"
#include "net/resp.h"
#include "net/ring_buffer.h"

namespace ditto::net {

namespace {

// Abort when the server makes no progress for this long (dead peer guard).
constexpr uint64_t kIdleTimeoutNs = 10'000'000'000ULL;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// What a command awaiting its reply was, so the reply handler knows how to
// account it and whether a nil triggers the miss re-insert.
struct PendingReply {
  sim::OpKind kind;
  bool reinsert;  // a miss re-insert (policy traffic, not a trace request)
  uint64_t key;
};

struct Conn {
  int fd = -1;
  RingBuffer in;
  RingBuffer out;
  size_t cursor = 0;  // next trace index of this connection's strided stream
  std::deque<PendingReply> pending;
  // Miss re-inserts to send before the cursor advances (RunTrace's
  // set_on_miss executes before the next trace op; at depth 1 the order is
  // identical, at higher depths the re-insert goes out at the next refill).
  std::deque<uint64_t> priority_set_keys;
  bool closed = false;
  uint32_t events = 0;  // epoll interest currently installed
};

// Blocking loopback connect, then switch to nonblocking for the event loop.
int ConnectTo(const std::string& host, uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + net::ErrnoMessage(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid host '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + net::ErrnoMessage(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

class Loadgen {
 public:
  Loadgen(const workload::Trace& trace, const LoadgenOptions& options)
      : trace_(trace), options_(options), values_(options.MaxValueBytes(), 'v') {}

  LoadgenResult Run();

 private:
  // Encodes `op` on `key` and queues the reply it awaits.
  void Enqueue(Conn* conn, const sim::CacheOp& op, uint64_t key, bool reinsert);
  // Tops the connection's pipeline up to `depth` in-flight commands.
  void Refill(Conn* conn);
  // Parses every complete reply, accounting it against the pending queue.
  bool DrainReplies(Conn* conn);
  bool FlushOutput(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(Conn* conn);
  bool ConnFinished(const Conn& conn) const {
    return conn.cursor >= trace_.size() && conn.pending.empty() &&
           conn.priority_set_keys.empty();
  }

  const workload::Trace& trace_;
  const LoadgenOptions& options_;
  std::string values_;  // the policy's value buffer
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  size_t live_ = 0;
  LoadgenResult result_;
  std::vector<RespReply> elems_;
};

void Loadgen::Enqueue(Conn* conn, const sim::CacheOp& op, uint64_t key, bool reinsert) {
  AppendCacheOp(&conn->out, op);
  conn->pending.push_back({op.kind, reinsert, key});
}

void Loadgen::Refill(Conn* conn) {
  const size_t depth = static_cast<size_t>(std::max(options_.depth, 1));
  const size_t stride = conns_.size();
  while (conn->pending.size() < depth) {
    workload::KeyBuf buf;
    if (!conn->priority_set_keys.empty()) {
      const uint64_t key = conn->priority_set_keys.front();
      conn->priority_set_keys.pop_front();
      Enqueue(conn, options_.MissSetOp(key, workload::FormatKey(key, &buf), values_), key,
              /*reinsert=*/true);
      continue;
    }
    if (conn->cursor >= trace_.size()) {
      break;
    }
    const workload::Request& req = trace_[conn->cursor];
    conn->cursor += stride;
    Enqueue(conn, options_.OpFor(req.op, req.key, workload::FormatKey(req.key, &buf), values_),
            req.key, /*reinsert=*/false);
  }
}

bool Loadgen::DrainReplies(Conn* conn) {
  while (true) {
    RespReply reply;
    elems_.clear();
    std::string error;
    const ParseStatus status = ParseReply(&conn->in, &reply, &elems_, &error);
    if (status == ParseStatus::kNeedMore) {
      return true;
    }
    if (status == ParseStatus::kError) {
      result_.error = "reply parse error: " + error;
      return false;
    }
    if (conn->pending.empty()) {
      result_.error = "unsolicited reply from server";
      return false;
    }
    const PendingReply pending = conn->pending.front();
    conn->pending.pop_front();

    const bool is_shed = reply.type == RespReply::Type::kError &&
                         reply.text.substr(0, 8) == "LOADSHED";
    const bool is_error = reply.type == RespReply::Type::kError && !is_shed;
    result_.shed += is_shed ? 1 : 0;
    result_.errors += is_error ? 1 : 0;

    // Trace requests count toward ops; the miss re-insert is policy
    // traffic, mirroring RunTrace (where a miss's Set is not an extra trace
    // op).
    if (!pending.reinsert) {
      result_.ops++;
    }
    if (is_shed || is_error) {
      continue;
    }
    switch (pending.kind) {
      case sim::OpKind::kGet: {
        const bool hit = reply.type == RespReply::Type::kBulk;
        result_.gets++;
        (hit ? result_.hits : result_.misses)++;
        if (options_.ReinsertsMiss(pending.kind, hit)) {
          conn->priority_set_keys.push_back(pending.key);
        }
        break;
      }
      case sim::OpKind::kSet:
        result_.sets++;
        break;
      case sim::OpKind::kDelete:
        result_.deletes++;
        break;
      case sim::OpKind::kExpire:
        result_.expires++;
        break;
      case sim::OpKind::kMultiGet:  // never issued: the policy sends one-key lookups as GET
        break;
    }
  }
}

bool Loadgen::FlushOutput(Conn* conn) {
  RingBuffer& out = conn->out;
  while (!out.empty()) {
    const ssize_t n = ::write(conn->fd, out.data(), out.size());
    if (n > 0) {
      out.Consume(static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;
    }
    result_.error = std::string("write: ") + net::ErrnoMessage(errno);
    return false;
  }
  return true;
}

void Loadgen::UpdateInterest(Conn* conn) {
  const uint32_t want = (conn->pending.empty() ? 0 : static_cast<uint32_t>(EPOLLIN)) |
                        (conn->out.empty() ? 0 : static_cast<uint32_t>(EPOLLOUT));
  if (want == conn->events) {
    return;
  }
  conn->events = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Loadgen::CloseConn(Conn* conn) {
  if (conn->closed) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->closed = true;
  --live_;
}

LoadgenResult Loadgen::Run() {
  const int num_conns = std::max(options_.connections, 1);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    result_.error = std::string("epoll_create1: ") + net::ErrnoMessage(errno);
    return result_;
  }
  for (int c = 0; c < num_conns; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ConnectTo(options_.host, options_.port, &result_.error);
    if (conn->fd < 0) {
      for (auto& open : conns_) {
        CloseConn(open.get());
      }
      ::close(epoll_fd_);
      return result_;
    }
    conn->cursor = static_cast<size_t>(c);
    epoll_event ev{};
    ev.events = 0;
    ev.data.ptr = conn.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conns_.push_back(std::move(conn));
  }
  live_ = conns_.size();

  for (auto& conn : conns_) {
    Refill(conn.get());
    if (!FlushOutput(conn.get())) {
      break;
    }
    if (ConnFinished(*conn)) {
      CloseConn(conn.get());  // empty stream (more connections than requests)
    } else {
      UpdateInterest(conn.get());
    }
  }

  epoll_event events[64];
  uint64_t last_progress_ns = NowNs();
  while (live_ > 0 && result_.error.empty()) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, 200);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      result_.error = std::string("epoll_wait: ") + net::ErrnoMessage(errno);
      break;
    }
    if (n == 0) {
      if (NowNs() - last_progress_ns > kIdleTimeoutNs) {
        result_.error = "server made no progress within idle timeout";
        break;
      }
      continue;
    }
    last_progress_ns = NowNs();
    for (int i = 0; i < n; ++i) {
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      if (conn->closed) {
        continue;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        result_.error = "server closed the connection mid-replay";
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        while (true) {
          char* dst = conn->in.Reserve(16 << 10);
          const ssize_t r = ::read(conn->fd, dst, 16 << 10);
          if (r > 0) {
            conn->in.Commit(static_cast<size_t>(r));
            if (r < (16 << 10)) {
              break;
            }
            continue;
          }
          if (r == 0) {
            result_.error = "server closed the connection mid-replay";
            CloseConn(conn);
          } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            result_.error = std::string("read: ") + net::ErrnoMessage(errno);
            CloseConn(conn);
          }
          break;
        }
        if (conn->closed) {
          continue;
        }
        if (!DrainReplies(conn)) {
          CloseConn(conn);
          continue;
        }
        Refill(conn);
      }
      if (!FlushOutput(conn)) {
        CloseConn(conn);
        continue;
      }
      if (ConnFinished(*conn)) {
        CloseConn(conn);
        continue;
      }
      UpdateInterest(conn);
    }
  }

  for (auto& conn : conns_) {
    CloseConn(conn.get());
  }
  ::close(epoll_fd_);

  result_.ok = result_.error.empty();
  return result_;
}

}  // namespace

LoadgenResult RunLoadgen(const workload::Trace& trace, const LoadgenOptions& options) {
  return Loadgen(trace, options).Run();
}

}  // namespace ditto::net
