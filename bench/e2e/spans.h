// Span recording for the traced replay of the end-to-end benchmark.
//
// Spans are opened by the benchmark around its own calls into the
// simulator's public API (Experiment construction, caching, snapshots,
// scenarios, usage traces, fleet folds, reports); nothing inside the
// simulator is instrumented. Each span carries the StatsRegistry, clock and
// scheduler deltas of the experiment it ran on, so counts repeat exactly from
// run to run. Engine ticker time is split out by replacing the engine's two
// tickers with forwarding wrappers that add their host time to the innermost
// open span, so a span's self time separates event dispatch from ticks.
// Spans stay in memory and are exported once, as Chrome trace_event JSON.
#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/sim/engine.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Simulation work done during a span: deltas of the experiment's simulated
// clock, engine tick counters, scheduler CPU accounting and every
// StatsRegistry counter.
struct SimDelta {
  uint64_t sim_us = 0;
  uint64_t ticks = 0;
  uint64_t ticks_skipped = 0;
  uint64_t busy_us = 0;
  uint64_t capacity_us = 0;
  std::map<std::string, uint64_t> stats;

  void Add(const SimDelta& other);
  uint64_t stat(const char* name) const;
};

// The engine-side readings a SimDelta is the difference of.
struct SimMark {
  uint64_t now = 0;
  uint64_t ticks = 0;
  uint64_t ticks_skipped = 0;
  uint64_t busy_us = 0;
  uint64_t capacity_us = 0;
  std::map<std::string, uint64_t> stats;

  static SimMark Of(ice::Experiment& exp);
  SimDelta To(const SimMark& later) const;
};

enum TickerSlot { kTickScheduler = 0, kTickLmk = 1, kTickerSlots = 2 };

struct Span {
  std::string name;
  int parent = -1;
  int64_t unit = -1;  // Workload unit (cell, device, run or chunk); -1 = none.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Ticker host time that ran while this was the innermost open span.
  int64_t tick_ns[kTickerSlots] = {0, 0};
  uint64_t bytes = 0;  // Snapshot size, for save spans.
  bool has_sim = false;
  SimDelta sim;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  int Open(const char* name, int64_t unit);
  void Close(int id);
  Span& at(int id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }
  void AddTickTime(TickerSlot slot, int64_t ns);

  // Self time per layer: a span's duration minus its children's and minus
  // the ticker time charged to it. Span names are the layers; ticker time
  // appears as "tick_scheduler" and "tick_lmk".
  std::map<std::string, int64_t> SelfTimes() const;

  // Chrome trace_event JSON ("X" events, microsecond timestamps); each
  // event's args carry its span id, parent id and unit id.
  std::string ChromeTraceJson() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span. A null recorder makes it a no-op, so the untraced and traced
// runs share one code path.
class Scope {
 public:
  // With `exp`, the span records the SimDelta of `exp` across its lifetime.
  Scope(Recorder* rec, const char* name, int64_t unit, ice::Experiment* exp = nullptr);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // For a span that constructs the experiment it measures: counts the
  // experiment's whole history (from an all-zero mark) at close.
  void CountFromZero(ice::Experiment& exp);
  void set_bytes(uint64_t bytes);

 private:
  Recorder* rec_;
  int id_ = -1;
  ice::Experiment* exp_ = nullptr;
  std::optional<SimMark> mark_;
};

// Swaps an experiment's engine tickers — the Scheduler, then the Lmk, in
// their registration order — for timing wrappers that forward every call.
// Must outlive the experiment's last engine step; the experiment may be
// destroyed first (its tickers' destructors only unregister themselves).
class TickerTap {
 public:
  TickerTap(Recorder& rec, ice::Experiment& exp);

  TickerTap(const TickerTap&) = delete;
  TickerTap& operator=(const TickerTap&) = delete;

 private:
  class Forward : public ice::Ticker {
   public:
    Forward(Recorder& rec, ice::Ticker& inner, TickerSlot slot)
        : rec_(rec), inner_(inner), slot_(slot) {}
    void Tick(ice::SimTime now) override;
    ice::SimTime NextWorkAt(ice::SimTime now) override { return inner_.NextWorkAt(now); }
    void OnTicksSkipped(ice::SimTime first_skipped, uint64_t count) override {
      inner_.OnTicksSkipped(first_skipped, count);
    }

   private:
    Recorder& rec_;
    ice::Ticker& inner_;
    TickerSlot slot_;
  };

  Forward scheduler_;
  Forward lmk_;
};

}  // namespace e2e

#endif  // BENCH_E2E_SPANS_H_
