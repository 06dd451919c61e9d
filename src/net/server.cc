#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/connection.h"
#include "net/net_util.h"

namespace ditto::net {

namespace {

constexpr size_t kReadChunk = 16 << 10;
// Per-connection unflushed-reply cap: past it, input is paused.
constexpr size_t kMaxPendingBytes = 1 << 20;

// Creates a nonblocking listener on host:port with SO_REUSEPORT (every
// reactor binds its own socket to the same port; the kernel load-balances
// accepts across them). Returns -1 with *error filled on failure.
int CreateListener(const std::string& host, uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + net::ErrnoMessage(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    *error = std::string("setsockopt(SO_REUSEPORT): ") + net::ErrnoMessage(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid listen host '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + net::ErrnoMessage(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 511) != 0) {
    *error = std::string("listen: ") + net::ErrnoMessage(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace

// One event-loop thread: its own SO_REUSEPORT acceptor, epoll instance, and
// CacheClient. Implements ConnectionHost for the connections it owns; every
// shared-counter touch goes through the server's atomics.
class Server::Reactor : public ConnectionHost {
 public:
  Reactor(Server* server, sim::CacheClient* client, int index)
      : server_(server), client_(client), index_(index) {}

  ~Reactor() override { CloseFds(); }

  bool Init(uint16_t port, std::string* error) {
    listen_fd_ = CreateListener(server_->options_.host, port, error);
    if (listen_fd_ < 0) {
      return false;
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      *error = std::string("epoll/eventfd: ") + net::ErrnoMessage(errno);
      CloseFds();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
    return true;
  }

  uint16_t bound_port() const { return BoundPort(listen_fd_); }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  void Shutdown() {
    running_.store(false, std::memory_order_release);
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // --- ConnectionHost -----------------------------------------------------
  bool AcquireOps(size_t n) override { return server_->AcquireOps(n); }
  void ReleaseOps(size_t n) override { server_->ReleaseOps(n); }
  sim::CacheClient* client() override { return client_; }
  const RespLimits& limits() override { return server_->options_.limits; }

  void OnCommands(uint64_t commands, uint64_t ops, uint64_t shed_ops) override {
    server_->commands_.fetch_add(commands, std::memory_order_relaxed);
    server_->ops_.fetch_add(ops, std::memory_order_relaxed);
    server_->shed_ops_.fetch_add(shed_ops, std::memory_order_relaxed);
  }

  void FormatInfo(std::string* out) override {
    const ServerStats s = server_->stats();
    const sim::ClientCounters c = client_->counters();
    char buf[768];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "# server\r\nreactors:%d\r\nport:%u\r\nlive_conns:%llu\r\naccepted:%llu\r\n"
        "rejected_conns:%llu\r\ncommands:%llu\r\nops:%llu\r\nshed_ops:%llu\r\n"
        "# reactor%d cache client\r\ngets:%llu\r\nhits:%llu\r\nmisses:%llu\r\n"
        "sets:%llu\r\ndeletes:%llu\r\nevictions:%llu\r\nexpired:%llu\r\n",
        server_->reactors(), server_->port(),
        static_cast<unsigned long long>(s.live_conns),
        static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.rejected_conns),
        static_cast<unsigned long long>(s.commands),
        static_cast<unsigned long long>(s.ops),
        static_cast<unsigned long long>(s.shed_ops), index_,
        static_cast<unsigned long long>(c.gets), static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses), static_cast<unsigned long long>(c.sets),
        static_cast<unsigned long long>(c.deletes),
        static_cast<unsigned long long>(c.evictions),
        static_cast<unsigned long long>(c.expired));
    out->assign(buf, static_cast<size_t>(n));
  }

 private:
  // Reactor-level per-connection state: the protocol machine plus the epoll
  // interest set currently installed for it.
  struct Entry {
    std::unique_ptr<Connection> conn;
    uint32_t events = EPOLLIN;
    bool paused = false;  // input paused: output ring over kMaxPendingBytes
  };

  void Loop() {
    epoll_event events[128];
    while (running_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events, 128, -1);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          uint64_t drain;
          [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
          continue;
        }
        if (fd == listen_fd_) {
          HandleAccept();
          continue;
        }
        const auto it = conns_.find(fd);
        if (it == conns_.end()) {
          continue;  // closed earlier in this batch
        }
        HandleConnEvent(&it->second, events[i].events);
      }
    }
    // Thread-exit cleanup: every connection closes here, on the thread that
    // owned it, before Shutdown()'s join returns.
    for (auto& [fd, entry] : conns_) {
      (void)entry;
      ::close(fd);
      server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
    }
    conns_.clear();
  }

  void HandleAccept() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN or transient error: the loop re-polls
      }
      // Connection cap: admit-or-reject is decided with one atomic bump so
      // racing reactors never over-admit.
      const uint64_t live = server_->live_conns_.fetch_add(1, std::memory_order_relaxed);
      if (live >= server_->options_.max_conns) {
        server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
        server_->rejected_conns_.fetch_add(1, std::memory_order_relaxed);
        static constexpr char kReject[] = "-ERR max connections reached\r\n";
        [[maybe_unused]] const ssize_t n = ::write(fd, kReject, sizeof(kReject) - 1);
        ::close(fd);
        continue;
      }
      server_->accepted_.fetch_add(1, std::memory_order_relaxed);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Entry entry;
      entry.conn = std::make_unique<Connection>(fd, this);
      epoll_event ev{};
      ev.events = entry.events;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
      conns_.emplace(fd, std::move(entry));
    }
  }

  void HandleConnEvent(Entry* entry, uint32_t revents) {
    Connection* conn = entry->conn.get();
    if ((revents & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConn(conn->fd());
      return;
    }
    if ((revents & EPOLLIN) != 0) {
      if (!ReadInput(conn)) {
        CloseConn(conn->fd());
        return;
      }
      conn->ProcessInput();
    }
    FlushOutput(conn);
    if (conn->closing() && conn->out().empty()) {
      CloseConn(conn->fd());
      return;
    }
    UpdateInterest(entry);
  }

  // Drains the socket into the connection's input ring. False = peer gone.
  static bool ReadInput(Connection* conn) {
    while (true) {
      char* dst = conn->in().Reserve(kReadChunk);
      const ssize_t n = ::read(conn->fd(), dst, kReadChunk);
      if (n > 0) {
        conn->in().Commit(static_cast<size_t>(n));
        if (static_cast<size_t>(n) < kReadChunk) {
          return true;  // drained
        }
        continue;
      }
      if (n == 0) {
        return false;  // orderly peer close
      }
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  void FlushOutput(Connection* conn) {
    RingBuffer& out = conn->out();
    while (!out.empty()) {
      const ssize_t n = ::write(conn->fd(), out.data(), out.size());
      if (n > 0) {
        out.Consume(static_cast<size_t>(n));
        continue;
      }
      return;  // EAGAIN (or a real error — EPOLLOUT/EPOLLERR will follow)
    }
  }

  // Installs the interest set the connection's buffers call for: EPOLLOUT
  // while replies are queued; EPOLLIN unless the output ring is over the
  // pending-byte cap (with half-cap hysteresis, so a slow reader flips the
  // input gate at most once per cap's worth of replies).
  void UpdateInterest(Entry* entry) {
    Connection* conn = entry->conn.get();
    const size_t pending = conn->out().size();
    if (entry->paused) {
      entry->paused = pending >= kMaxPendingBytes / 2;
    } else {
      entry->paused = pending >= kMaxPendingBytes;
    }
    uint32_t want = entry->paused || conn->closing() ? 0 : static_cast<uint32_t>(EPOLLIN);
    if (pending > 0) {
      want |= EPOLLOUT;
    }
    if (want != entry->events) {
      entry->events = want;
      epoll_event ev{};
      ev.events = want;
      ev.data.fd = conn->fd();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
    }
  }

  void CloseConn(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
    server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
  }

  void CloseFds() {
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  Server* server_;
  sim::CacheClient* client_;
  int index_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> running_{true};
  std::thread thread_;
  std::unordered_map<int, Entry> conns_;
};

Server::Server(std::vector<sim::CacheClient*> clients, const ServerOptions& options)
    : clients_(std::move(clients)), options_(options) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  if (started_) {
    *error = "server already started";
    return false;
  }
  if (clients_.empty()) {
    *error = "server needs at least one cache client (one per reactor)";
    return false;
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    auto reactor = std::make_unique<Reactor>(this, clients_[i], static_cast<int>(i));
    // Reactor 0 may bind an ephemeral port; every later reactor reuses the
    // port reactor 0 got.
    const uint16_t port = i == 0 ? options_.port : port_;
    if (!reactor->Init(port, error)) {
      reactors_.clear();
      return false;
    }
    if (i == 0) {
      port_ = reactor->bound_port();
    }
    reactors_.push_back(std::move(reactor));
  }
  for (auto& reactor : reactors_) {
    reactor->StartThread();
  }
  started_ = true;
  return true;
}

void Server::Stop() {
  if (!started_) {
    return;
  }
  for (auto& reactor : reactors_) {
    reactor->Shutdown();
  }
  reactors_.clear();
  // Reactor threads are joined: flushing the clients' buffered work is safe
  // and leaves their counters final for the caller to read.
  for (sim::CacheClient* client : clients_) {
    client->Finish();
  }
  started_ = false;
}

bool Server::AcquireOps(size_t n) {
  const uint64_t watermark = options_.shed_watermark;
  if (watermark == 0) {
    return true;
  }
  const uint64_t before = inflight_ops_.fetch_add(n, std::memory_order_relaxed);
  if (before + n > watermark) {
    inflight_ops_.fetch_sub(n, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Server::ReleaseOps(size_t n) {
  if (options_.shed_watermark == 0 || n == 0) {
    return;
  }
  inflight_ops_.fetch_sub(n, std::memory_order_relaxed);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_conns = rejected_conns_.load(std::memory_order_relaxed);
  s.live_conns = live_conns_.load(std::memory_order_relaxed);
  s.commands = commands_.load(std::memory_order_relaxed);
  s.ops = ops_.load(std::memory_order_relaxed);
  s.shed_ops = shed_ops_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ditto::net
