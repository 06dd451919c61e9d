// wallprof: a wall-clock sampling profiler loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/libwallprof.so WALLPROF_OUT=prof.%p ./build/sharded_engine
//   python3 scripts/wallprof/wallprof.py prof.<pid>
//
// Every thread the program spawns gets a CLOCK_MONOTONIC POSIX timer that
// sends SIGPROF to that thread alone (SIGEV_THREAD_ID) every 100 us of wall
// time, whether the thread is running, blocked in a syscall or waiting on a lock. The handler
// records the interrupted PC, the thread id, a CLOCK_MONOTONIC timestamp and
// the frame-pointer chain into one preallocated buffer. When the process
// exits, the samples and the executable mappings are written to
// WALLPROF_OUT (`%p` expands to the pid; default
// wallprof.%p.out), which wallprof.py symbolizes.
//
// Unlike gprof, samples that land in libc or in the kernel are kept: a
// thread inside write(2) is sampled at the syscall instruction.
//
// The main thread is sampled only with WALLPROF_MAIN=1: each tick interrupts
// a blocked poll() or epoll_wait() with EINTR, which some callers treat as a
// failure. Forked children that do not exec are not sampled.
//
// Caller frames are exact only in code built with -fno-omit-frame-pointer.
// Elsewhere the chain stops early or skips frames; it is bounds-checked
// against the interrupted thread's stack, so it never faults.
//
// Samples go to a 256 MiB buffer, committed only as it fills (about 40 s of
// 8 threads with 8-frame chains); samples past it are counted as dropped.

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr long kIntervalNs = 100'000;
constexpr size_t kBufferBytes = size_t{256} << 20;
constexpr uint32_t kMaxFrames = 48;

// What the sampled thread was doing.
enum SampleState : uint16_t {
  kUser = 0,     // running user code
  kSyscall = 1,  // a syscall that ran to completion as the tick arrived
  kBlocked = 2,  // a syscall that was sleeping and the tick interrupted
};

// One sample: this header, then `frames` PCs (the interrupted PC first, then
// return addresses, innermost first).
struct SampleHeader {
  uint64_t ns;
  int32_t tid;
  uint16_t frames;
  uint16_t state;
};
static_assert(sizeof(SampleHeader) == 16);

bool g_enabled = false;
std::atomic<bool> g_stopped{false};
// Plain storage: exit() runs static destructors before the destructor below.
char g_out_path[4096];
uint8_t* g_buffer = nullptr;
std::atomic<size_t> g_used{0};
std::atomic<uint64_t> g_dropped{0};

// Per-thread state; initial-exec TLS so the signal handler never allocates.
__attribute__((tls_model("initial-exec"))) thread_local uintptr_t t_stack_lo = 0;
__attribute__((tls_model("initial-exec"))) thread_local uintptr_t t_stack_hi = 0;

#if defined(__x86_64__)
// Classifies x86-64 samples (AArch64 ones are all kUser). A tick that finds the thread in a syscall is delivered as the syscall
// returns, so the PC follows the two-byte `syscall` instruction. A sleeping
// syscall is cut short: it returns -EINTR, or the kernel rewinds the PC onto
// the instruction to restart it.
SampleState StateAt(uint64_t pc, long long rax) {
  const auto* code = reinterpret_cast<const uint8_t*>(pc);
  const uint64_t in_page = pc & 0xfff;
  if (in_page >= 2 && code[-2] == 0x0f && code[-1] == 0x05) {
    return rax == -EINTR ? kBlocked : kSyscall;
  }
  if (in_page <= 0xffe && code[0] == 0x0f && code[1] == 0x05) {
    return kBlocked;
  }
  return kUser;
}
#endif

void OnTick(int /*signo*/, siginfo_t* /*info*/, void* context) {
  if (g_stopped.load(std::memory_order_relaxed)) {
    return;
  }
  const int saved_errno = errno;
  const auto* uc = static_cast<const ucontext_t*>(context);
  uint64_t pcs[kMaxFrames];
  uint32_t n = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
  SampleState state = kUser;
#if defined(__x86_64__)
  pcs[n++] = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  state = StateAt(pcs[0], uc->uc_mcontext.gregs[REG_RAX]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pcs[n++] = uc->uc_mcontext.pc;
  fp = uc->uc_mcontext.regs[29];
  sp = uc->uc_mcontext.sp;
#else
#error "wallprof reads x86-64 or AArch64 signal contexts"
#endif
  // Frames live between the interrupted stack pointer and the stack top;
  // everything in that range is mapped.
  const uintptr_t lo = sp > t_stack_lo ? sp : t_stack_lo;
  const uintptr_t hi = t_stack_hi;
  while (n < kMaxFrames && fp >= lo && fp % sizeof(uintptr_t) == 0 &&
         fp + 2 * sizeof(uintptr_t) <= hi) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    if (frame[1] == 0) {
      break;
    }
    pcs[n++] = frame[1];
    if (frame[0] <= fp) {
      break;
    }
    fp = frame[0];
  }
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  const size_t bytes = sizeof(SampleHeader) + n * sizeof(uint64_t);
  const size_t offset = g_used.fetch_add(bytes, std::memory_order_relaxed);
  if (offset + bytes > kBufferBytes) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    const SampleHeader header{static_cast<uint64_t>(now.tv_sec) * 1'000'000'000u +
                                  static_cast<uint64_t>(now.tv_nsec),
                              static_cast<int32_t>(gettid()), static_cast<uint16_t>(n),
                              state};
    std::memcpy(g_buffer + offset, &header, sizeof(header));
    std::memcpy(g_buffer + offset + sizeof(header), pcs, n * sizeof(uint64_t));
  }
  errno = saved_errno;
}

// Starts sampling the calling thread with a new *timer; false if none could
// be armed.
bool ArmThisThread(timer_t* timer) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack = nullptr;
    size_t stack_bytes = 0;
    if (pthread_attr_getstack(&attr, &stack, &stack_bytes) == 0) {
      t_stack_lo = reinterpret_cast<uintptr_t>(stack);
      t_stack_hi = t_stack_lo + stack_bytes;
    }
    pthread_attr_destroy(&attr);
  }
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &event, timer) != 0) {
    return false;
  }
  itimerspec spec{};
  spec.it_interval.tv_sec = kIntervalNs / 1'000'000'000;
  spec.it_interval.tv_nsec = kIntervalNs % 1'000'000'000;
  spec.it_value = spec.it_interval;
  if (timer_settime(*timer, 0, &spec, nullptr) != 0) {
    timer_delete(*timer);
    return false;
  }
  return true;
}

// Samples a spawned thread until its start routine returns or it exits
// (pthread_exit unwinds through the trampoline's frame).
class ThreadSampler {
 public:
  ThreadSampler() : armed_(ArmThisThread(&timer_)) {}
  ~ThreadSampler() {
    if (armed_) {
      timer_delete(timer_);
    }
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

 private:
  timer_t timer_{};
  bool armed_;
};

struct StartArgs {
  void* (*routine)(void*);
  void* arg;
};

void* Trampoline(void* raw) {
  const StartArgs start = *static_cast<StartArgs*>(raw);
  std::free(raw);
  ThreadSampler sampler;
  return start.routine(start.arg);
}

using PthreadCreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);

PthreadCreateFn RealPthreadCreate() {
  static const auto real = reinterpret_cast<PthreadCreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  return real;
}

// Executable mappings, for wallprof.py to turn PCs into file addresses.
void WriteMappings(FILE* out) {
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return;
  }
  char line[4096];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    unsigned long long start = 0;
    unsigned long long end = 0;
    unsigned long long offset = 0;
    char perms[8] = {0};
    int path_at = 0;
    if (std::sscanf(line, "%llx-%llx %7s %llx %*s %*s %n", &start, &end, perms, &offset,
                    &path_at) < 4 ||
        perms[2] != 'x') {
      continue;
    }
    line[std::strcspn(line, "\n")] = '\0';
    std::fprintf(out, "map %llx %llx %llx %s\n", start, end, offset, line + path_at);
  }
  std::fclose(maps);
}

void SetOutputPath() {
  const char* pattern = std::getenv("WALLPROF_OUT");
  std::string path = pattern != nullptr && *pattern != '\0' ? pattern : "wallprof.%p.out";
  const size_t at = path.find("%p");
  if (at != std::string::npos) {
    path.replace(at, 2, std::to_string(getpid()));
  }
  std::snprintf(g_out_path, sizeof(g_out_path), "%s", path.c_str());
}

void StopInForkedChild() { g_stopped.store(true); }

__attribute__((constructor)) void Start() {
  void* buffer = mmap(nullptr, kBufferBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    std::fprintf(stderr, "wallprof: cannot map a %zu-byte sample buffer\n", kBufferBytes);
    return;
  }
  g_buffer = static_cast<uint8_t*>(buffer);
  SetOutputPath();
  struct sigaction action {};
  action.sa_sigaction = OnTick;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  pthread_atfork(nullptr, nullptr, StopInForkedChild);
  g_enabled = true;
  const char* main_thread = std::getenv("WALLPROF_MAIN");
  if (main_thread != nullptr && std::strcmp(main_thread, "1") == 0) {
    static timer_t main_timer;
    ArmThisThread(&main_timer);
  }
}

__attribute__((destructor)) void Finish() {
  if (!g_enabled || g_stopped.exchange(true)) {
    return;
  }
  // Let handlers that passed the stop check finish their copy.
  usleep(2000);
  FILE* out = std::fopen(g_out_path, "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "wallprof: cannot write %s\n", g_out_path);
    return;
  }
  const size_t used = std::min(g_used.load(), kBufferBytes);
  std::fprintf(out, "wallprof 1\n");
  std::fprintf(out, "dropped %llu\n", static_cast<unsigned long long>(g_dropped.load()));
  WriteMappings(out);
  std::fprintf(out, "data %zu\n", used);
  std::fwrite(g_buffer, 1, used, out);
  std::fclose(out);
  std::fprintf(stderr, "wallprof: wrote %s\n", g_out_path);
}

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*routine)(void*), void* arg) {
  if (!g_enabled || g_stopped.load(std::memory_order_relaxed)) {
    return RealPthreadCreate()(thread, attr, routine, arg);
  }
  auto* start = static_cast<StartArgs*>(std::malloc(sizeof(StartArgs)));
  if (start == nullptr) {
    return EAGAIN;
  }
  *start = StartArgs{routine, arg};
  const int rc = RealPthreadCreate()(thread, attr, Trampoline, start);
  if (rc != 0) {
    std::free(start);
  }
  return rc;
}
