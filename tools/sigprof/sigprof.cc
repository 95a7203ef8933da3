// SIGPROF stack sampler, loaded into an unmodified binary with LD_PRELOAD.
//
//   export ICE_SIGPROF_OUT=prof.txt
//   LD_PRELOAD=build/tools/sigprof/libice_sigprof.so ./build/examples/icesim_cli ...
//   python3 tools/sigprof/report.py prof.txt
//
// An ITIMER_PROF timer asks for kHz samples per second of CPU time used by
// the whole process (the kernel delivers at most one per tick, ~250 Hz on
// common configs), and the handler records the interrupted thread's call
// stack with backtrace(). At exit the library writes the executable
// mappings of /proc/self/maps and one line of hex return addresses per
// sample; report.py symbolizes them with addr2line. Without ICE_SIGPROF_OUT
// the library does nothing. Samples beyond kMaxSamples are counted as
// dropped. Linux x86-64 and aarch64 only: the handler reads the interrupted
// PC from the signal context.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

// Prime, so sampling does not beat with the simulator's periodic work.
constexpr long kHz = 997;
constexpr int kMaxFrames = 64;
// Per sample: a frame count, then up to kMaxFrames addresses.
constexpr size_t kStride = kMaxFrames + 1;
constexpr size_t kMaxSamples = size_t{1} << 18;

uintptr_t* g_samples = nullptr;
std::atomic<size_t> g_next{0};
char g_out[4096];

uintptr_t InterruptedPc(void* context) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sigprof supports x86-64 and aarch64 only"
#endif
}

void OnSigprof(int, siginfo_t*, void* context) {
  int saved_errno = errno;
  size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    uintptr_t* slot = g_samples + i * kStride;
    void* frames[kMaxFrames + 4];
    int n = backtrace(frames, kMaxFrames + 4);
    // Drop the handler's own frames: the stack starts at the interrupted
    // PC, which the unwinder reports exactly (callers are return addresses).
    uintptr_t pc = InterruptedPc(context);
    int first = 0;
    while (first < n && reinterpret_cast<uintptr_t>(frames[first]) != pc) {
      ++first;
    }
    int count = 0;
    if (first == n) {
      slot[1] = pc;  // The unwinder lost the signal frame: keep the PC alone.
      count = 1;
    } else {
      for (int f = first; f < n && count < kMaxFrames; ++f) {
        slot[1 + count++] = reinterpret_cast<uintptr_t>(frames[f]);
      }
    }
    slot[0] = static_cast<uintptr_t>(count);
  }
  errno = saved_errno;
}

void SetTimer(long hz) {
  itimerval timer{};
  if (hz > 0) {
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
  }
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void Start() {
  const char* out = getenv("ICE_SIGPROF_OUT");
  if (out == nullptr || *out == '\0' || strlen(out) >= sizeof(g_out)) {
    return;
  }
  strcpy(g_out, out);
  // Reserved address space; only the pages samples land on become resident.
  void* buf = mmap(nullptr, kMaxSamples * kStride * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    fprintf(stderr, "sigprof: cannot reserve the sample buffer\n");
    return;
  }
  g_samples = static_cast<uintptr_t*>(buf);
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  SetTimer(kHz);
}

__attribute__((destructor)) void Stop() {
  if (g_samples == nullptr) {
    return;
  }
  SetTimer(0);
  size_t taken = g_next.load();
  size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  FILE* out = fopen(g_out, "w");
  if (out == nullptr) {
    fprintf(stderr, "sigprof: cannot write %s\n", g_out);
    return;
  }
  fprintf(out, "# ice-sigprof v1 hz=%ld samples=%zu dropped=%zu\n", kHz, kept, taken - kept);
  if (FILE* maps = fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != nullptr) {
      char perms[8] = {};
      if (sscanf(line, "%*s %7s", perms) == 1 && strchr(perms, 'x') != nullptr) {
        fprintf(out, "map %s", line);
      }
    }
    fclose(maps);
  }
  for (size_t i = 0; i < kept; ++i) {
    const uintptr_t* slot = g_samples + i * kStride;
    fputs("s", out);
    for (uintptr_t f = 0; f < slot[0]; ++f) {
      fprintf(out, " %lx", static_cast<unsigned long>(slot[1 + f]));
    }
    fputs("\n", out);
  }
  fclose(out);
}

}  // namespace
