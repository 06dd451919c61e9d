// wire-ycsb-a: an in-process net::Server (2 reactors sharing one MemoryPool,
// validate_inserts on, as ditto_server deploys it) driven over loopback by a
// single-threaded RESP generator.
//
// The generator issues YCSB-A (50% GET / 50% SET, zipf 0.99, 232-byte
// values) on connections split evenly across the reactors; a GET miss is
// followed by a SET fill. Open loop, it sends at a fixed offered rate with
// Poisson arrivals and times each request from when it was due, so a stall
// shows in every request queued behind it. It runs on a fixed 50 us tick and
// sleeps between ticks (no busy-poll), so the run uses 3 threads: the
// generator and two reactors.
//
// A run measures a nominal-rate step (wire latency, per-layer cost), a
// closed-loop capacity phase (the server's CPU per op at a fixed pipelining
// depth), and a sweep of offered rates for the open-loop knee: the highest
// rate whose GET p99 meets the latency limit with no growing backlog and no
// failures. The gated figures are the closed-loop and in-reactor ones; see
// README.md.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rand.h"
#include "deployment.h"
#include "harness.h"
#include "host_probe.h"
#include "metrics.h"
#include "net/resp.h"
#include "net/server.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace perfbench {
namespace {

constexpr int kReactors = 2;
constexpr int kConnections = 2;  // one per reactor on every run
constexpr uint64_t kKeys = 200'000;
constexpr uint64_t kCapacity = kKeys / 4;
constexpr size_t kValueBytes = 232;
constexpr uint64_t kFillRequests = 400'000;  // in-process warm fill before serving
constexpr double kWarmupSeconds = 0.3;
constexpr int kSetups = 3;

// Requests/s: the busy regime, below the knee of a quiet host. Under heavy
// steal the knee can fall below it and the nominal step overloads. The
// open-loop loadgen.* figures then show it; the gated figures taken from this
// step (host time inside the reactors' cache calls, the hit rate) do not
// include the wait in the queue (see README.md).
constexpr double kNominalRate = 200'000.0;
constexpr double kNominalShare = 0.3;       // of --seconds
// The sweep climbs from the nominal rate in coarse steps until one misses,
// then in fine steps from the last pass.
constexpr double kCoarseGrowth = 1.4;
constexpr double kMaxRate = 4e6;
constexpr double kMinRate = 10'000.0;
constexpr double kFineGrowth = 1.1;
constexpr double kStepSeconds = 1.0;
constexpr int kAttempts = 2;
// The latency limit goodput is held to. Shared hosts stall for milliseconds
// (see host.max_stall_us), so a tighter limit would gate the host's stalls
// rather than the server; saturation still crosses it within a step.
constexpr double kGetP99LimitUs = 20000.0;
// A step is invalid when the generator's own send lag p99 exceeds half the
// latency limit: the generator, not the server, ran late.
constexpr double kLagLimitUs = 10000.0;
// A backlog "grows" when the mean outstanding count of a step's second half
// exceeds its first half's by this much offered load.
constexpr double kBacklogGrowthSeconds = 0.005;
constexpr size_t kAbortBacklog = 20'000;   // outstanding requests that end a step early
constexpr uint64_t kAbortAgeNs = 200'000'000;
constexpr uint64_t kTickNs = 50'000;  // generator tick
constexpr int kStallTimeoutMs = 10'000;  // no reply for this long: the server is gone
// Capacity phase: closed-loop rounds of kCapacityDepth requests per
// connection, for kCapacityShare of --seconds, in one-second segments.
constexpr int kCapacityDepth = 128;
constexpr double kCapacityShare = 0.3;
constexpr double kServedRatePercentile = 90.0;  // of per-round served rates
constexpr size_t kMaxSpans = 1'000'000;  // per recorder, in traced runs

// One request on the wire, from the generator's point of view.
struct Pending {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;     // 0 until all its bytes were written
  uint64_t end_offset = 0;  // output-stream offset just past the request
  uint64_t index = 0;       // trace index (a fill carries its GET's index)
  uint64_t key = 0;
  uint8_t op = kGetOp;
};

struct Conn {
  int fd = -1;
  int reactor = -1;
  ditto::net::RingBuffer out{64 << 10};
  ditto::net::RingBuffer in{64 << 10};
  uint64_t queued_bytes = 0;
  uint64_t written_bytes = 0;
  std::deque<Pending> pending;  // replies outstanding, in send order
  size_t first_unsent = 0;      // index into pending
};

// Generator-side figures of one offered-rate step.
struct StepStats {
  double offered = 0.0;
  double duration_s = 0.0;  // from the step's start to its last reply
  uint64_t issued = 0;      // requests sent, fills included
  uint64_t completed = 0;
  uint64_t gets = 0, hits = 0;
  uint64_t failed = 0;
  uint64_t writes = 0, written_requests = 0;
  size_t max_backlog = 0;
  double backlog_early = 0.0, backlog_late = 0.0;  // mean outstanding per half
  bool aborted = false;
  uint64_t gen_cpu_ns = 0;
  std::vector<uint32_t> get_ns, set_ns, lag_ns;
  std::vector<Span> spans;  // `wire` spans, when recorded

  double P(std::vector<uint32_t>* v, double p) const { return NearestRank(v, p) / 1000.0; }

  // Folds a following step at the same rate into this one.
  void Merge(StepStats&& next) {
    offered = next.offered;
    duration_s += next.duration_s;
    issued += next.issued;
    completed += next.completed;
    gets += next.gets;
    hits += next.hits;
    failed += next.failed;
    writes += next.writes;
    written_requests += next.written_requests;
    max_backlog = std::max(max_backlog, next.max_backlog);
    backlog_early = std::max(backlog_early, next.backlog_early);
    backlog_late = std::max(backlog_late, next.backlog_late);
    aborted |= next.aborted;
    gen_cpu_ns += next.gen_cpu_ns;
    for (auto [to, from] : {std::pair{&get_ns, &next.get_ns}, std::pair{&set_ns, &next.set_ns},
                            std::pair{&lag_ns, &next.lag_ns}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    const size_t room = kMaxSpans - std::min(kMaxSpans, spans.size());
    spans.insert(spans.end(), next.spans.begin(),
                 next.spans.begin() + static_cast<std::ptrdiff_t>(std::min(room, next.spans.size())));
  }

  bool BacklogGrew() const {
    return aborted || backlog_late - backlog_early > offered * kBacklogGrowthSeconds;
  }
};

// Reads one RESP reply from a blocking socket (setup only).
bool ReadOneReply(int fd, ditto::net::RingBuffer* in, ditto::net::RespReply* reply) {
  std::string error;
  while (true) {
    const ditto::net::ParseStatus st = ditto::net::ParseReply(in, reply, nullptr, &error);
    if (st == ditto::net::ParseStatus::kOk) {
      return true;
    }
    if (st == ditto::net::ParseStatus::kError) {
      return false;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 2000) <= 0) {
      return false;
    }
    char* dst = in->Reserve(16 << 10);
    const ssize_t n = ::read(fd, dst, 16 << 10);
    if (n <= 0) {
      return false;
    }
    in->Commit(static_cast<size_t>(n));
  }
}

// Opens a connection and asks INFO which reactor accepted it. Returns -1 on
// failure.
int ConnectAndIdentify(uint16_t port, int* reactor) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  static constexpr char kInfo[] = "*1\r\n$4\r\nINFO\r\n";
  ditto::net::RingBuffer in;
  ditto::net::RespReply reply;
  if (::write(fd, kInfo, sizeof(kInfo) - 1) != static_cast<ssize_t>(sizeof(kInfo) - 1) ||
      !ReadOneReply(fd, &in, &reply) || reply.type != ditto::net::RespReply::Type::kBulk) {
    ::close(fd);
    return -1;
  }
  const size_t at = reply.text.find("# reactor");
  if (at == std::string_view::npos || at + 9 >= reply.text.size()) {
    ::close(fd);
    return -1;
  }
  *reactor = reply.text[at + 9] - '0';
  return fd;
}

// The generator. Owns the connections; runs on the calling thread.
class Generator {
 public:
  Generator(uint64_t seed, Report* report)
      : ycsb_(YcsbConfig(), seed), arrivals_(ditto::Mix64(seed ^ 0x77697265ULL)),
        report_(report), value_(kValueBytes, 'v') {}

  ~Generator() {
    for (Conn& c : conns_) {
      ::close(c.fd);
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  static ditto::workload::YcsbConfig YcsbConfig() {
    ditto::workload::YcsbConfig config;
    config.workload = 'A';
    config.num_keys = kKeys;
    config.zipf_theta = 0.99;
    config.value_bytes = kValueBytes;
    return config;
  }

  // Connects kConnections connections split evenly across the reactors:
  // connections that land on a reactor that already has its share are
  // parked and closed at the end, so the split never depends on the kernel's
  // SO_REUSEPORT hash.
  bool Connect(uint16_t port) {
    std::vector<int> per_reactor(kReactors, 0);
    std::vector<int> parked;
    for (int attempt = 0; attempt < 256 && static_cast<int>(conns_.size()) < kConnections;
         ++attempt) {
      int reactor = -1;
      const int fd = ConnectAndIdentify(port, &reactor);
      if (fd < 0 || reactor < 0 || reactor >= kReactors) {
        if (fd >= 0) {
          ::close(fd);
        }
        continue;
      }
      if (per_reactor[reactor] >= kConnections / kReactors) {
        parked.push_back(fd);
        continue;
      }
      per_reactor[reactor]++;
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back();
      conns_.back().fd = fd;
      conns_.back().reactor = reactor;
    }
    for (const int fd : parked) {
      ::close(fd);
    }
    if (static_cast<int>(conns_.size()) != kConnections) {
      return false;
    }
    // Order connections so request i goes to reactor i % kReactors.
    std::stable_sort(conns_.begin(), conns_.end(),
                     [](const Conn& a, const Conn& b) { return a.reactor < b.reactor; });
    std::vector<Conn> ordered;
    for (int i = 0; i < kConnections / kReactors; ++i) {
      for (int r = 0; r < kReactors; ++r) {
        ordered.push_back(std::move(conns_[static_cast<size_t>(r * (kConnections / kReactors) + i)]));
      }
    }
    conns_ = std::move(ordered);
    return true;
  }

  // Runs one open-loop step: Poisson arrivals at `rate` for `seconds`, then
  // waits for every outstanding reply. The generator works on a fixed tick:
  // at each tick it takes the replies that arrived, sends every request that
  // came due since the last tick (one write per connection), and sleeps to
  // the next tick. A request therefore waits up to one tick to be sent and
  // its reply up to one tick to be seen; both waits count in its latency.
  void RunStep(double rate, double seconds, bool record, StepStats* st) {
    st->offered = rate;
    const uint64_t cpu0 = CpuNs();
    const uint64_t t0 = NowNs();
    const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t half = t0 + (end - t0) / 2;
    uint64_t next_due = t0 + Gap(rate);
    uint64_t next_tick = t0;
    uint64_t samples[2] = {0, 0};
    double backlog_sum[2] = {0.0, 0.0};
    bool issuing = true;
    uint64_t last_reply = t0;
    uint64_t last_progress = t0;
    while (true) {
      for (Conn& c : conns_) {
        if (ReadReplies(&c, record, st)) {
          last_reply = last_progress = NowNs();
        }
      }
      const uint64_t now = NowNs();
      if (issuing) {
        while (next_due <= now && next_due < end && outstanding_ <= kAbortBacklog) {
          Issue(next_due, st);
          next_due += Gap(rate);
        }
        issuing = next_due < end;
        const int h = now < half ? 0 : 1;
        backlog_sum[h] += static_cast<double>(outstanding_);
        samples[h]++;
      }
      for (Conn& c : conns_) {
        Flush(&c, st);
      }
      st->max_backlog = std::max(st->max_backlog, outstanding_);
      if (issuing && outstanding_ > 0 &&
          (outstanding_ > kAbortBacklog || OldestDue() + kAbortAgeNs < now)) {
        st->aborted = true;
        issuing = false;
      }
      if (outstanding_ > 0 && now - last_progress > kStallTimeoutMs * 1'000'000ULL) {
        Broken("no reply for " + std::to_string(kStallTimeoutMs / 1000) + " s");
      }
      if ((!issuing && outstanding_ == 0) || broken_) {
        break;
      }
      // Sleep to the next tick on the fixed grid; after an overrun, resume
      // at once (the overrun shows as generator lag).
      next_tick += kTickNs;
      if (next_tick > now) {
        const timespec ts{static_cast<time_t>(next_tick / 1'000'000'000ULL),
                          static_cast<long>(next_tick % 1'000'000'000ULL)};
        ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      } else {
        next_tick = now;
      }
    }
    st->duration_s = static_cast<double>(last_reply - t0) / 1e9;
    st->backlog_early = samples[0] ? backlog_sum[0] / static_cast<double>(samples[0]) : 0.0;
    st->backlog_late = samples[1] ? backlog_sum[1] / static_cast<double>(samples[1]) : 0.0;
    st->gen_cpu_ns = CpuNs() - cpu0;
  }

  // Runs closed-loop rounds for `seconds`: each round sends `depth`
  // requests on every connection, then waits until every reply (fills
  // included) is in. Each reactor thus reads the same batch every round,
  // however the host schedules the threads, so the server's CPU cost per op
  // measured here depends on the code rather than on timing. Appends each
  // round's served rate (requests, fills included, per wall microsecond) to
  // `round_mops`.
  void RunClosed(int depth, double seconds, StepStats* st, std::vector<double>* round_mops) {
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<pollfd> fds(conns_.size());
    while (NowNs() < end && !broken_) {
      const uint64_t now = NowNs();
      const uint64_t issued0 = st->issued;
      for (size_t i = 0; i < conns_.size() * static_cast<size_t>(depth); ++i) {
        Issue(now, st);
      }
      while (outstanding_ > 0 && !broken_) {
        for (size_t c = 0; c < conns_.size(); ++c) {
          Flush(&conns_[c], st);
          fds[c] = {conns_[c].fd, POLLIN, 0};
        }
        if (::poll(fds.data(), fds.size(), kStallTimeoutMs) <= 0) {
          Broken("no reply for " + std::to_string(kStallTimeoutMs / 1000) + " s");
          break;
        }
        for (size_t c = 0; c < conns_.size(); ++c) {
          if (fds[c].revents != 0) {
            ReadReplies(&conns_[c], false, st);
          }
        }
      }
      round_mops->push_back(Ratio(1e3 * static_cast<double>(st->issued - issued0),
                                  static_cast<double>(NowNs() - now)));
    }
  }

  bool broken() const { return broken_; }

 private:
  uint64_t Gap(double rate) {
    const double u = 1.0 - arrivals_.NextDouble();  // (0, 1]
    return static_cast<uint64_t>(-std::log(u) / rate * 1e9);
  }

  uint64_t OldestDue() const {
    uint64_t oldest = UINT64_MAX;
    for (const Conn& c : conns_) {
      if (!c.pending.empty()) {
        oldest = std::min(oldest, c.pending.front().due_ns);
      }
    }
    return oldest == UINT64_MAX ? 0 : oldest;
  }

  void Enqueue(Conn* c, const Pending& p, StepStats* st) {
    ditto::workload::KeyBuf buf;
    const std::string_view key = ditto::workload::FormatKey(p.key, &buf);
    const size_t before = c->out.size();
    if (p.op == kGetOp) {
      ditto::net::AppendCommand(&c->out, {"GET", key});
    } else {
      // The value names its key, so a GET can check it got its own key's value.
      std::memcpy(value_.data(), key.data(), key.size());
      ditto::net::AppendCommand(&c->out, {"SET", key, value_});
    }
    c->queued_bytes += c->out.size() - before;
    Pending q = p;
    q.end_offset = c->queued_bytes;
    c->pending.push_back(q);
    outstanding_++;
    st->issued++;
  }

  void Issue(uint64_t due, StepStats* st) {
    const ditto::workload::Request req = ycsb_.Next();
    Pending p;
    p.due_ns = due;
    p.index = index_++;
    p.key = req.key;
    p.op = req.op == ditto::workload::Op::kGet ? kGetOp : kSetOp;
    Enqueue(&conns_[p.index % conns_.size()], p, st);
  }

  void Flush(Conn* c, StepStats* st) {
    while (!c->out.empty()) {
      // A request counts as sent when the write carrying it began: over
      // loopback the server can run it before write() returns.
      const uint64_t start = NowNs();
      const ssize_t n = ::write(c->fd, c->out.data(), c->out.size());
      if (n <= 0) {
        break;  // socket buffer full: the rest goes at the next tick
      }
      c->out.Consume(static_cast<size_t>(n));
      c->written_bytes += static_cast<uint64_t>(n);
      st->writes++;
      while (c->first_unsent < c->pending.size() &&
             c->pending[c->first_unsent].end_offset <= c->written_bytes) {
        Pending& p = c->pending[c->first_unsent++];
        p.sent_ns = start;
        st->lag_ns.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(start > p.due_ns ? start - p.due_ns : 0, UINT32_MAX)));
        st->written_requests++;
      }
    }
  }

  // Drains the socket and retires every complete reply. Returns whether any
  // reply was retired.
  bool ReadReplies(Conn* c, bool record, StepStats* st) {
    if (c->first_unsent == 0) {
      return false;  // nothing on the wire awaits a reply
    }
    while (true) {
      char* dst = c->in.Reserve(64 << 10);
      const ssize_t n = ::read(c->fd, dst, 64 << 10);
      if (n > 0) {
        c->in.Commit(static_cast<size_t>(n));
        if (static_cast<size_t>(n) < (64 << 10)) {
          break;
        }
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        Broken("connection closed by the server");
      }
      break;
    }
    const uint64_t now = NowNs();
    ditto::net::RespReply reply;
    std::string error;
    bool retired = false;
    while (true) {
      const ditto::net::ParseStatus status = ditto::net::ParseReply(&c->in, &reply, nullptr, &error);
      if (status == ditto::net::ParseStatus::kNeedMore) {
        break;
      }
      if (status == ditto::net::ParseStatus::kError || c->first_unsent == 0) {
        Broken("malformed or unexpected reply: " + error);
        break;
      }
      const Pending p = c->pending.front();
      c->pending.pop_front();
      c->first_unsent--;
      outstanding_--;
      Retire(c, p, reply, now, record, st);
      retired = true;
    }
    return retired;
  }

  void Retire(Conn* c, const Pending& p, const ditto::net::RespReply& reply, uint64_t now,
              bool record, StepStats* st) {
    using Type = ditto::net::RespReply::Type;
    st->completed++;
    const auto latency = static_cast<uint32_t>(std::min<uint64_t>(now - p.due_ns, UINT32_MAX));
    if (record && st->spans.size() < kMaxSpans) {
      st->spans.push_back(Span{p.sent_ns, now, p.index, p.key,
                               static_cast<uint32_t>(c - conns_.data()), SpanName::kWire, p.op});
    }
    if (reply.type == Type::kError) {
      st->failed++;  // -LOADSHED, -ERR or -OOM
      return;
    }
    ditto::workload::KeyBuf buf;
    const std::string_view key = ditto::workload::FormatKey(p.key, &buf);
    if (p.op == kSetOp) {
      if (reply.type != Type::kSimple || reply.text != "OK") {
        Broken("SET " + std::string(key) + " got a reply other than +OK");
      }
      st->set_ns.push_back(latency);
      return;
    }
    st->gets++;
    st->get_ns.push_back(latency);
    if (reply.type == Type::kBulk) {
      // Every SET writes kValueBytes bytes that start with the key.
      if (reply.text.size() != kValueBytes || reply.text.substr(0, key.size()) != key) {
        Broken("GET " + std::string(key) + " returned a value it was never SET to");
      }
      st->hits++;
    } else if (reply.type == Type::kNil) {
      Pending fill;
      fill.due_ns = now;
      fill.index = p.index;
      fill.key = p.key;
      fill.op = kSetOp;
      Enqueue(c, fill, st);
    } else {
      Broken("GET " + std::string(key) + " got neither a bulk string nor nil");
    }
  }

  void Broken(const std::string& what) {
    if (!broken_) {
      report_->Fail("wire-ycsb-a: " + what);
    }
    broken_ = true;
  }

  ditto::workload::YcsbGenerator ycsb_;
  ditto::Rng arrivals_;
  Report* report_;
  std::string value_;
  std::vector<Conn> conns_;
  uint64_t index_ = 0;
  size_t outstanding_ = 0;
  bool broken_ = false;
};

// One served deployment: pool and clients, the server, and a connected,
// warmed-up generator. Members are declared so the generator closes its
// connections, then the server joins its reactors, before the pool goes.
struct WireSetup {
  std::atomic<int> phase{kSetupPhase};
  Recorder recorders[kReactors];
  std::unique_ptr<Deployment> d;
  std::unique_ptr<ditto::net::Server> server;
  std::unique_ptr<Generator> gen;
};

bool BuildSetup(const RunArgs& args, Report* report, WireSetup* w) {
  std::vector<Recorder*> recs;
  for (Recorder& r : w->recorders) {
    r.traced = args.traced;
    r.span_cap = kMaxSpans;
    recs.push_back(&r);
  }
  ditto::core::DittoConfig config;
  config.validate_inserts = true;  // reactors share the pool
  w->d = std::make_unique<Deployment>(PoolFor(kCapacity), config, kReactors, recs, &w->phase);

  // In-process warm fill, so serving starts from a cache in steady state.
  ditto::workload::YcsbGenerator fill(Generator::YcsbConfig(), ditto::Mix64(args.seed ^ 0x66696c6cULL));
  std::string value(kValueBytes, 'v');
  std::string got;
  ditto::workload::KeyBuf buf;
  for (uint64_t i = 0; i < kFillRequests; ++i) {
    const ditto::workload::Request req = fill.Next();
    const std::string_view key = ditto::workload::FormatKey(req.key, &buf);
    std::memcpy(value.data(), key.data(), key.size());
    ditto::sim::CacheClient* client = w->d->clients[i % kReactors];
    if (req.op != ditto::workload::Op::kGet || !client->Get(key, &got)) {
      client->Set(key, value);
    }
  }

  ditto::net::ServerOptions options;  // ditto_server's defaults, kernel-chosen port
  w->server = std::make_unique<ditto::net::Server>(w->d->clients, options);
  std::string error;
  if (!w->server->Start(&error)) {
    report->Fail("wire-ycsb-a: server did not start: " + error);
    return false;
  }
  w->gen = std::make_unique<Generator>(args.seed, report);
  if (!w->gen->Connect(w->server->port())) {
    report->Fail("wire-ycsb-a: could not split connections evenly across reactors");
    return false;
  }
  StepStats warm;
  w->gen->RunStep(kNominalRate, kWarmupSeconds, false, &warm);
  return !w->gen->broken();
}

// First snapshot at or after `phase`; the final one when none was taken.
const ClientSnapshot& SnapAt(const TracedClient& t, int phase, const ClientSnapshot& final_snap) {
  for (int p = phase; p < kMaxPhases; ++p) {
    if (t.phase_snapshot(p).valid) {
      return t.phase_snapshot(p);
    }
  }
  return final_snap;
}

// Mean wire self time: each `wire` span minus the `core.execute` span that
// served it (same key and op, starting inside the wire span).
double WireSelfUs(const std::vector<Span>& wire, const std::vector<Span>& core) {
  std::unordered_map<uint64_t, std::vector<const Span*>> by_key;
  for (const Span& s : core) {
    by_key[s.key].push_back(&s);
  }
  for (auto& [key, v] : by_key) {
    std::sort(v.begin(), v.end(),
              [](const Span* a, const Span* b) { return a->begin_ns < b->begin_ns; });
  }
  double total_ns = 0.0;
  for (const Span& w : wire) {
    std::vector<Interval> children;
    const auto it = by_key.find(w.key);
    if (it != by_key.end()) {
      const auto& v = it->second;
      auto c = std::lower_bound(v.begin(), v.end(), w.begin_ns,
                                [](const Span* s, uint64_t t) { return s->begin_ns < t; });
      for (; c != v.end() && (*c)->begin_ns <= w.end_ns; ++c) {
        if ((*c)->op == w.op) {
          children.push_back({(*c)->begin_ns, (*c)->end_ns});
          break;
        }
      }
    }
    total_ns += static_cast<double>(SelfTimeNs({w.begin_ns, w.end_ns}, &children));
  }
  return wire.empty() ? 0.0 : total_ns / static_cast<double>(wire.size()) / 1000.0;
}

void PrintStep(const char* what, StepStats* st, bool valid, bool passes) {
  std::printf("# %s rate=%.0f/s completed=%llu gets=%zu gen_cpu=%.0f%% per_write=%.2f "
              "get_p50=%.1fus get_p99=%.1fus lag_p99=%.1fus backlog=%zu/%.0f->%.0f failed=%llu "
              "%s%s\n",
              what, st->offered, static_cast<unsigned long long>(st->completed), st->get_ns.size(),
              100.0 * static_cast<double>(st->gen_cpu_ns) / (st->duration_s * 1e9),
              Ratio(st->written_requests, st->writes),
              st->P(&st->get_ns, 50), st->P(&st->get_ns, 99), st->P(&st->lag_ns, 99),
              st->max_backlog, st->backlog_early, st->backlog_late,
              static_cast<unsigned long long>(st->failed), valid ? "valid" : "INVALID(generator lag)",
              passes ? " pass" : " miss");
  std::fflush(stdout);
}

}  // namespace

void RunWire(const RunArgs& args, Report* report) {
  // The generator sleeps between ticks; keep its wakeups sharp.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const CpuTimes cpu_before = ReadCpuTimes();

  // Set up kSetups times (the median is setup_s); the last setup measures.
  std::vector<double> setup_s;
  std::unique_ptr<WireSetup> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const uint64_t t0 = NowNs();
    w = std::make_unique<WireSetup>();
    if (!BuildSetup(args, report, w.get())) {
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const StallProbe probe = ProbeStalls(0.3);
  const uint64_t begin = NowNs();
  Generator& gen = *w->gen;
  Deployment& d = *w->d;

  // Nominal step: wire latency and the per-layer cost of serving it, run as
  // one-second segments. The latency figures are medians over the segments,
  // so a host stall spoils one segment rather than the step.
  const ditto::net::ServerStats server0 = w->server->stats();
  const NodeSnapshot node0 = SnapNode(d.node());
  const uint64_t flushes0 = d.server->controller().updates_received();
  const uint64_t proc0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  w->phase.store(kMeasuredPhase, std::memory_order_release);
  StepStats nom;
  std::vector<double> get_p50s, set_p50s;
  bool nominal_backlog_grew = false;
  const int segments = std::max(1, static_cast<int>(args.seconds * kNominalShare));
  for (int i = 0; i < segments && !gen.broken(); ++i) {
    StepStats seg;
    gen.RunStep(kNominalRate, args.seconds * kNominalShare / segments, args.traced, &seg);
    get_p50s.push_back(seg.P(&seg.get_ns, 50));
    set_p50s.push_back(seg.P(&seg.set_ns, 50));
    nominal_backlog_grew |= seg.BacklogGrew();
    nom.Merge(std::move(seg));
  }
  const uint64_t proc1 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const NodeSnapshot node1 = SnapNode(d.node());
  const uint64_t flushes1 = d.server->controller().updates_received();
  w->phase.store(kMeasuredPhase + 1, std::memory_order_release);

  // Capacity: the server's CPU per op under a fixed pipelining depth; the
  // reactors could serve kReactors CPU-seconds of that per second. Beside
  // it, the closed loop's served rate: the 90th percentile of a segment's
  // per-round rates, per unstolen second. On a shared host the other tenants
  // stall many rounds (on a 4-vCPU VM with 2-13% steal, the median round
  // moved 0.34-0.51 Mops between runs, the 90th percentile 0.48-0.59), and
  // at 15-18% steal even the fast rounds ran ~18% slower; dividing by the
  // unstolen share of the segment (/proc/stat) took that back out. Both are
  // the slow quartile over one-second segments.
  uint64_t attempted = nom.issued, failed = nom.failed, invalid_steps = 0;
  std::vector<double> capacities, served_rates, round_mops;
  const int cap_segments = std::max(1, static_cast<int>(args.seconds * kCapacityShare));
  for (int i = 0; i < cap_segments && !gen.broken(); ++i) {
    const uint64_t ops0 = w->server->stats().ops;
    const uint64_t proc_cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const uint64_t gen_cpu0 = CpuNs();
    const CpuTimes host0 = ReadCpuTimes();
    StepStats cap;
    round_mops.clear();
    gen.RunClosed(kCapacityDepth, args.seconds * kCapacityShare / cap_segments, &cap, &round_mops);
    const double unstolen = 1.0 - StealPercent(host0, ReadCpuTimes()) / 100.0;
    served_rates.push_back(Ratio(NearestRank(&round_mops, kServedRatePercentile), unstolen));
    const double server_cpu_ns = static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - proc_cpu0) -
                                 static_cast<double>(CpuNs() - gen_cpu0);
    const uint64_t cap_ops = w->server->stats().ops - ops0;
    capacities.push_back(Ratio(kReactors * 1e9 * static_cast<double>(cap_ops), server_cpu_ns));
    attempted += cap.issued;
    failed += cap.failed;
  }
  const double capacity = SlowQuartile(capacities, true);
  const double served_mops = SlowQuartile(served_rates, true);
  std::printf("# capacity depth=%d segments=%d -> %.0f req/s per server CPU, %.4f Mops served\n",
              kCapacityDepth, cap_segments, capacity, served_mops);

  // Peak memory of the set-up, nominal step and capacity phase. The sweep's
  // overloaded steps grow the buffers by how far they overload, which the
  // host's load decides (peak RSS spread 14% over ten runs with it).
  const double peak_rss_mb = PeakRssMb();

  // Goodput sweep. The nominal step is its first point. A rate passes when
  // any of kAttempts trials passes: host stalls can only make a trial miss,
  // so a pass shows the server kept up.
  std::vector<RateStep> steps;
  auto as_step = [](StepStats* st, bool backlog_grew) {
    RateStep step;
    step.offered = st->offered;
    step.get_p99_us = st->P(&st->get_ns, 99);
    step.backlog_grew = backlog_grew;
    step.failed = st->failed;
    // A step the server could not keep up with is a miss however late the
    // generator ran: catching up on replies is what made it late.
    step.valid = st->aborted || st->P(&st->lag_ns, 99) <= kLagLimitUs;
    return step;
  };
  const RateStep nominal = as_step(&nom, nominal_backlog_grew);
  invalid_steps += nominal.valid ? 0 : 1;
  PrintStep("nominal", &nom, nominal.valid, nominal.Passes(kGetP99LimitUs));
  steps.push_back(nominal);
  const uint64_t deadline = begin + static_cast<uint64_t>(args.seconds * 1e9);
  auto time_left = [&] {
    return !gen.broken() && NowNs() + static_cast<uint64_t>(kStepSeconds * 1e9) < deadline;
  };
  // Runs one rate; returns whether it passed.
  auto measure = [&](double rate) {
    RateStep step;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      StepStats st;
      gen.RunStep(rate, kStepSeconds, false, &st);
      attempted += st.issued;
      failed += st.failed;
      step = as_step(&st, st.BacklogGrew());
      invalid_steps += step.valid ? 0 : 1;
      PrintStep("sweep", &st, step.valid, step.Passes(kGetP99LimitUs));
      if (step.valid && step.Passes(kGetP99LimitUs)) {
        break;
      }
    }
    steps.push_back(step);
    return step.valid && step.Passes(kGetP99LimitUs);
  };
  // Coarse: bracket the knee between a rate that passed and one that did
  // not, climbing from the nominal rate when it passed, halving otherwise.
  double pass_rate = 0.0, miss_rate = 0.0;
  if (nominal.valid && nominal.Passes(kGetP99LimitUs)) {
    pass_rate = kNominalRate;
    for (double rate = kNominalRate * kCoarseGrowth; rate <= kMaxRate && time_left();
         rate *= kCoarseGrowth) {
      if (!measure(rate)) {
        miss_rate = rate;
        break;
      }
      pass_rate = rate;
    }
  } else {
    miss_rate = kNominalRate;
    for (double rate = kNominalRate / 2; rate >= kMinRate && time_left(); rate /= 2) {
      if (measure(rate)) {
        pass_rate = rate;
        break;
      }
      miss_rate = rate;
    }
  }
  // Fine: climb from the pass toward the miss.
  if (pass_rate > 0.0 && miss_rate > 0.0) {
    for (double rate = pass_rate * kFineGrowth; rate < miss_rate && time_left();
         rate *= kFineGrowth) {
      if (!measure(rate)) {
        break;
      }
    }
  }
  double goodput = SelectGoodput(steps, kGetP99LimitUs);
  if (miss_rate == 0.0) {
    std::printf("# sweep ended before a rate missed the limit: goodput is a lower bound\n");
  }
  if (goodput < kMinRate) {
    // Censored: no rate down to the sweep's floor met the limit.
    std::printf("# no rate down to %.0f/s met the limit: goodput reported as that floor\n",
                kMinRate);
    goodput = kMinRate;
  }
  const bool knee_found = miss_rate > 0.0 && pass_rate > 0.0;
  const ditto::net::ServerStats server1 = w->server->stats();
  w->server->Stop();  // joins the reactors: their clients are readable below

  // Server-side figures of the nominal step, from each reactor's client.
  ClientSnapshot delta;
  uint64_t ops = 0, busiest = 0, core_wall_ns = 0;
  Recorder merged;
  for (int r = 0; r < kReactors; ++r) {
    TracedClient& t = *d.traced[static_cast<size_t>(r)];
    const ClientSnapshot final_snap = t.Snapshot();
    Deployment::Accumulate(&delta, SnapAt(t, kMeasuredPhase + 1, final_snap), +1);
    Deployment::Accumulate(&delta, SnapAt(t, kMeasuredPhase, final_snap), -1);
    const Recorder& rec = w->recorders[r];
    const uint64_t rops = rec.ops[kGetOp] + rec.ops[kSetOp] + rec.ops[kOtherOp];
    ops += rops;
    busiest = std::max(busiest, rops);
    core_wall_ns += rec.wall_ns[kGetOp] + rec.wall_ns[kSetOp] + rec.wall_ns[kOtherOp];
    merged.Merge(rec);
  }
  const double virt_elapsed_ns = std::max(
      {static_cast<double>(delta.busy_ns) / kReactors,
       static_cast<double>(node1.nic_horizon_ns - node0.nic_horizon_ns),
       static_cast<double>(node1.cpu_horizon_ns - node0.cpu_horizon_ns), 1.0});
  std::vector<uint32_t> all_ns = merged.virt_ns[kGetOp];
  all_ns.insert(all_ns.end(), merged.virt_ns[kSetOp].begin(), merged.virt_ns[kSetOp].end());
  const double server_cpu_ns = static_cast<double>(proc1 - proc0 - nom.gen_cpu_ns);

  for (const auto* v : {&nom.get_ns, &nom.set_ns, &nom.lag_ns}) {
    if (SamplesBeyond(v->size(), 99) < kMinSamplesBeyond) {
      report->Fail("wire-ycsb-a: too few samples at the nominal rate for a p99");
    }
  }
  report->AddAttempted(attempted);
  report->AddFailed(failed);
  // The end-to-end figures are the ones a shared host moves least: capacity
  // from CPU time, the closed loop's served rate, and host time inside the
  // reactors' cache calls. The open-loop wire latency and knee are loadgen.*.
  report->Set("goodput_qps", capacity);
  report->Set("get_p50_us", NearestRank(&merged.wall_samples[kGetOp], 50) / 1000.0);
  report->Set("set_p50_us", NearestRank(&merged.wall_samples[kSetOp], 50) / 1000.0);
  report->Set("replay_mops", served_mops);
  report->Set("virtual_mops", static_cast<double>(ops) / virt_elapsed_ns * 1e3);
  report->Set("virtual_p50_us", NearestRank(&all_ns, 50) / 1000.0);
  report->Set("virtual_p99_us", NearestRank(&all_ns, 99) / 1000.0);
  report->Set("hit_rate", Ratio(nom.hits, nom.gets));
  report->Set("error_rate", Ratio(failed, attempted));
  report->Set("setup_s", Median(setup_s));

  report->Set("loadgen.lag_p99_us", nom.P(&nom.lag_ns, 99));
  report->Set("loadgen.backlog", static_cast<double>(nom.max_backlog));
  report->Set("loadgen.get_p99_us", nom.P(&nom.get_ns, 99));
  report->Set("loadgen.set_p99_us", nom.P(&nom.set_ns, 99));
  report->Set("loadgen.invalid_steps", static_cast<double>(invalid_steps));
  report->Set("loadgen.sweep_steps", static_cast<double>(steps.size()));
  report->Set("loadgen.knee_found", knee_found ? 1.0 : 0.0);
  report->Set("loadgen.knee_qps", goodput);
  report->Set("loadgen.get_p50_us", Median(get_p50s));
  report->Set("loadgen.set_p50_us", Median(set_p50s));
  report->Set("net.server_cpu_us_per_op", Ratio(server_cpu_ns, ops) / 1000.0);
  report->Set("net.ops_per_batch", Ratio(nom.written_requests, nom.writes));
  report->Set("net.reactor_skew", Ratio(busiest, ops));
  std::printf("# reactor split: the busiest reactor served %.4f of the ops\n",
              Ratio(busiest, ops));
  report->Set("net.shed_ops", static_cast<double>(server1.shed_ops - server0.shed_ops));
  report->Set("net.rejected_conns",
              static_cast<double>(server1.rejected_conns - server0.rejected_conns));
  if (args.traced) {
    report->Set("net.self_cpu_us_per_op",
                Ratio(server_cpu_ns - core_wall_ns, ops) / 1000.0);
    report->Set("net.wire_self_us", WireSelfUs(nom.spans, merged.spans));
    report->Set("core.get_ns", Ratio(merged.wall_ns[kGetOp],
                                     merged.calls[kGetOp]));
    report->Set("core.set_ns", Ratio(merged.wall_ns[kSetOp],
                                     merged.calls[kSetOp]));
    std::vector<Span> spans = std::move(nom.spans);
    spans.insert(spans.end(), merged.spans.begin(), merged.spans.end());
    WriteSpans(args.spans_path, std::move(spans));
  }
  const ditto::core::DittoStats& s = delta.stats;
  report->Set("core.evictions_per_set", Ratio(s.evictions, s.sets));
  report->Set("core.regrets", static_cast<double>(s.regrets));
  report->Set("core.adaptive_flushes", static_cast<double>(flushes1 - flushes0));
  report->Set("core.weight_lru", d.server->controller().weights()[0]);
  report->Set("core.cas_failures", static_cast<double>(s.cas_failures));
  report->Set("core.insert_retries", static_cast<double>(s.insert_retries));
  report->Set("core.dup_resolved", static_cast<double>(s.dup_resolved));
  report->Set("core.set_retries", static_cast<double>(s.set_retries));
  report->Set("rdma.reads_per_op", Ratio(delta.reads, ops));
  report->Set("rdma.writes_per_op", Ratio(delta.writes, ops));
  report->Set("rdma.atomics_per_op", Ratio(delta.atomics, ops));
  report->Set("rdma.rpcs_per_op", Ratio(delta.rpcs, ops));
  report->Set("rdma.nic_msgs_per_op",
              Ratio(node1.messages - node0.messages, ops));
  report->Set("rdma.doorbells_per_op",
              Ratio(node1.doorbells - node0.doorbells, ops));
  report->Set("rdma.nic_bytes_per_op", Ratio(node1.bytes - node0.bytes, ops));
  report->Set("rdma.nic_util",
              static_cast<double>(node1.nic_horizon_ns - node0.nic_horizon_ns) / virt_elapsed_ns);
  report->Set("rdma.cpu_util",
              static_cast<double>(node1.cpu_horizon_ns - node0.cpu_horizon_ns) / virt_elapsed_ns);
  report->Set("rdma.cpu_rpcs", static_cast<double>(node1.cpu_ops - node0.cpu_ops));
  report->Set("dm.cached_objects", static_cast<double>(d.pool->cached_objects()));
  report->Set("dm.fill", Ratio(static_cast<double>(d.pool->cached_objects()),
                               d.pool->capacity_objects()));
  report->Set("dm.segments_allocated", static_cast<double>(d.pool->segments_allocated()));
  report->Set("peak_rss_mb", peak_rss_mb);
  RecordHostNoise(probe, cpu_before, report);
}

}  // namespace perfbench
