// CPU-time sampling profiler: a SIGPROF handler that records the
// interrupted program counter and the return addresses on the
// frame-pointer chain above it. setitimer(ITIMER_PROF) arms it when
// NEZHA_CPU_PROFILE names an output file; without that variable the
// process runs unprofiled. ITIMER_PROF counts the process's own CPU time,
// user and system, and ticks at the kernel's timer rate, so sampling needs
// no perf and no kernel setting, and time spent in libc is charged to libc
// and, through the frame chain, to its callers.
//
// The handler never allocates: each sample is a fixed-size record in a
// static buffer, claimed with one atomic increment. At exit every sample
// is written, one line each, followed by the process's executable
// mappings, as
//
//   interval_us N
//   sample T_NS PC RET RET ...
//   map START END PATH
//
// where T_NS is the wall time since the profiler started (before main).
// tools/cpu_profile.sh symbolizes the addresses and splits set-up from the
// measured window at the repetition's setup_s. Build the profiled binary
// with -fno-omit-frame-pointer. A leaf in code built without frame
// pointers (libc) loses its immediate caller; the chain above it stays.
// Link this object into one binary built for profiling and into nothing
// else.
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace {

constexpr int kDepth = 48;                   // frames kept per sample
constexpr std::size_t kSamples = 1 << 16;    // about a minute of CPU
constexpr long kIntervalUs = 1000;           // the kernel rounds it up

struct Sample {
  std::int64_t t_ns;
  std::uint32_t depth;
  std::uintptr_t frames[kDepth];
};

Sample g_samples[kSamples];
std::atomic<std::size_t> g_next{0};
std::int64_t g_start_ns = 0;
// The main thread's stack: the frame walk reads only inside it.
std::uintptr_t g_stack_lo = 0;
std::uintptr_t g_stack_hi = 0;

std::int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kSamples) return;
  const auto& regs = static_cast<const ucontext_t*>(context)->uc_mcontext;
  Sample& s = g_samples[i];
  s.t_ns = now_ns() - g_start_ns;
  s.frames[0] = static_cast<std::uintptr_t>(regs.gregs[REG_RIP]);
  std::uint32_t depth = 1;
  // Each frame is [saved frame pointer, return address]; frames lie above
  // the stack pointer and grow toward the stack's top.
  const auto sp = static_cast<std::uintptr_t>(regs.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(regs.gregs[REG_RBP]);
  if (sp >= g_stack_lo && sp < g_stack_hi) {
    while (depth < kDepth && fp >= sp && fp + 16 <= g_stack_hi &&
           fp % 8 == 0) {
      const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
      if (frame[1] == 0) break;
      s.frames[depth++] = frame[1];
      if (frame[0] <= fp) break;
      fp = frame[0];
    }
  }
  s.depth = depth;
}

// Arms the timer at start-up and writes the samples when the process
// exits normally.
struct Profiler {
  const char* path = std::getenv("NEZHA_CPU_PROFILE");

  Profiler() {
    if (path == nullptr) return;
    g_start_ns = now_ns();
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* lo = nullptr;
      std::size_t size = 0;
      pthread_attr_getstack(&attr, &lo, &size);
      g_stack_lo = reinterpret_cast<std::uintptr_t>(lo);
      g_stack_hi = g_stack_lo + size;
      pthread_attr_destroy(&attr);
    }
    struct sigaction sa = {};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    const itimerval every{{0, kIntervalUs}, {0, kIntervalUs}};
    setitimer(ITIMER_PROF, &every, nullptr);
  }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  ~Profiler() {
    if (path == nullptr) return;
    const itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) return;
    const std::size_t taken = g_next.load();
    const std::size_t n = taken < kSamples ? taken : kSamples;
    std::fprintf(out, "interval_us %ld\n", kIntervalUs);
    if (taken > n) std::fprintf(out, "dropped %zu\n", taken - n);
    for (std::size_t i = 0; i < n; ++i) {
      const Sample& s = g_samples[i];
      std::fprintf(out, "sample %lld", static_cast<long long>(s.t_ns));
      for (std::uint32_t f = 0; f < s.depth; ++f) {
        std::fprintf(out, " 0x%lx", static_cast<unsigned long>(s.frames[f]));
      }
      std::fprintf(out, "\n");
    }
    // Executable mappings, so addresses in shared libraries can be named
    // by library.
    if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
      char line[4096];
      while (std::fgets(line, sizeof(line), maps) != nullptr) {
        unsigned long lo = 0;
        unsigned long hi = 0;
        char perms[8] = {};
        char file[4000] = {};
        if (std::sscanf(line, "%lx-%lx %7s %*s %*s %*s %3999s", &lo, &hi,
                        perms, file) == 4 &&
            perms[2] == 'x') {
          std::fprintf(out, "map 0x%lx 0x%lx %s\n", lo, hi, file);
        }
      }
      std::fclose(maps);
    }
    std::fclose(out);
  }
};
Profiler g_profiler;

}  // namespace
