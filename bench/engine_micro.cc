// Engine hot-path microbenchmarks: the pooled-node EventQueue against the
// std::function binary-heap + tombstone-set implementation it replaced,
// EventFn against std::function, and the engine's idle tick-skipping.
//
// The legacy queue is reproduced in-file (verbatim semantics: (when, seq)
// order, tombstone cancel) so the comparison stays runnable after the old
// code is gone. Each Schedule/Cancel/RunDue pattern below mirrors a real
// simulator workload: timer churn is the Task::SleepFor/Wake pattern where
// most timers are cancelled before they fire.
//
// Set ICE_BENCH_ITERS to pin the iteration count (CI smoke runs do, so the
// artifact is comparable across machines in shape even when not in time).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/engine.h"
#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"

namespace ice {
namespace {

// ---------------------------------------------------------------------------
// The first EventQueue (std::priority_queue + tombstone set).
// ---------------------------------------------------------------------------

class LegacyEventQueue {
 public:
  EventId Schedule(SimTime when, std::function<void()> fn) {
    EventId id = next_id_++;
    heap_.push(Event{when, next_seq_++, id, std::move(fn)});
    ++live_count_;
    return id;
  }

  bool Cancel(EventId id) {
    if (id == kInvalidEventId || id >= next_id_) {
      return false;
    }
    auto [it, inserted] = cancelled_.insert(id);
    if (inserted && live_count_ > 0) {
      --live_count_;
      return true;
    }
    return false;
  }

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  void RunDue(SimTime now) {
    for (;;) {
      SkipCancelledHead();
      if (heap_.empty() || heap_.top().when > now) {
        return;
      }
      std::function<void()> fn = std::move(heap_.top().fn);
      heap_.pop();
      --live_count_;
      fn();
    }
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    EventId id;
    mutable std::function<void()> fn;

    bool operator<(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  void SkipCancelledHead() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) {
        return;
      }
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Event> heap_;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  size_t live_count_ = 0;
  std::unordered_set<EventId> cancelled_;
};

void ApplyIters(benchmark::internal::Benchmark* b) {
  if (const char* iters = std::getenv("ICE_BENCH_ITERS")) {
    long long n = std::strtoll(iters, nullptr, 10);
    if (n > 0) {
      b->Iterations(n);
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule + fire: a batch of near-future events per tick, all of which fire,
// over a standing set of range(0) pending timers. The standing set is the
// engine state (task sleep timers, MDT heartbeats, in-flight I/O
// completions): measured runs keep at most 48 events pending and about 32 on
// average at a Schedule in the densest workload, hence the 32 argument.
// Every push into either heap sifts through log(pending) levels; the legacy
// queue moves a std::function per swap, EventQueue a 24-byte entry.
//
// The callback captures a completion context (two pointers + a tag, 24
// bytes) like the engine's real bio-completion and vsync callbacks do. That
// overflows std::function's 16-byte inline buffer, so the legacy queue pays
// one heap allocation per scheduled event; it fits EventFn's 48-byte buffer.
// ---------------------------------------------------------------------------

constexpr int kBatch = 64;

struct FireCtx {
  uint64_t fired = 0;
  uint64_t last_tag = 0;
};

template <class Queue>
void ScheduleFire(benchmark::State& state) {
  const uint32_t standing = static_cast<uint32_t>(state.range(0));
  Queue q;
  Rng rng(1);
  SimTime now = 0;
  FireCtx ctx;
  FireCtx* a = &ctx;
  FireCtx* b = &ctx;
  for (uint32_t i = 0; i < standing; ++i) {
    // Far future relative to the fired batches below.
    q.Schedule(1'000'000'000 + static_cast<SimTime>(i) * 1000,
               [a, b, i] { a->fired += b->last_tag + i; });
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      uint64_t tag = rng.Below(1000);
      q.Schedule(now + 1 + tag, [a, b, tag] {
        ++a->fired;
        b->last_tag = tag;
      });
    }
    now += 1024;
    q.RunDue(now);
  }
  benchmark::DoNotOptimize(ctx.fired);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_LegacyScheduleFire(benchmark::State& state) { ScheduleFire<LegacyEventQueue>(state); }
void BM_EventQueueScheduleFire(benchmark::State& state) { ScheduleFire<EventQueue>(state); }
BENCHMARK(BM_LegacyScheduleFire)
    ->Arg(0)
    ->Arg(32)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1048576)
    ->Apply(ApplyIters);
BENCHMARK(BM_EventQueueScheduleFire)
    ->Arg(0)
    ->Arg(32)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1048576)
    ->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Schedule + cancel: every event is cancelled before its time. The legacy
// queue pays the tombstone set plus a heap pop per cancelled event once the
// clock passes it; EventQueue pays the pop of each dead husk. Measured runs
// cancel at most 109 events each, so this pattern guards no hot path.
// ---------------------------------------------------------------------------

template <class Queue>
void ScheduleCancel(benchmark::State& state) {
  Queue q;
  Rng rng(2);
  SimTime now = 0;
  uint64_t sink = 0;
  EventId ids[kBatch];
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = q.Schedule(now + 1 + rng.Below(1000), [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; ++i) {
      q.Cancel(ids[i]);
    }
    now += 2048;
    q.RunDue(now);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_LegacyScheduleCancel(benchmark::State& state) { ScheduleCancel<LegacyEventQueue>(state); }
void BM_EventQueueScheduleCancel(benchmark::State& state) { ScheduleCancel<EventQueue>(state); }
BENCHMARK(BM_LegacyScheduleCancel)->Apply(ApplyIters);
BENCHMARK(BM_EventQueueScheduleCancel)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Timer churn: a steady pool of pending timers where each step replaces one
// (cancel + reschedule) and time advances every 64 steps — the rearm pattern
// of SleepFor under frequent Wake(). Both heaps' costs grow with the live
// set, and EventQueue's also with the husks that cancels leave behind.
// ---------------------------------------------------------------------------

template <class Queue>
void TimerChurn(benchmark::State& state) {
  const uint32_t live = static_cast<uint32_t>(state.range(0));
  Queue q;
  Rng rng(3);
  SimTime now = 0;
  uint64_t sink = 0;
  std::vector<EventId> ids(live);
  for (uint32_t i = 0; i < live; ++i) {
    ids[i] = q.Schedule(now + 1 + rng.Below(500'000), [&sink] { ++sink; });
  }
  int step = 0;
  for (auto _ : state) {
    uint32_t j = rng.Below(live);
    q.Cancel(ids[j]);  // May already have fired; both queues reject that.
    ids[j] = q.Schedule(now + 1 + rng.Below(500'000), [&sink] { ++sink; });
    if (++step % 64 == 0) {
      now += 1000;
      q.RunDue(now);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

void BM_LegacyTimerChurn(benchmark::State& state) { TimerChurn<LegacyEventQueue>(state); }
void BM_EventQueueTimerChurn(benchmark::State& state) { TimerChurn<EventQueue>(state); }
BENCHMARK(BM_LegacyTimerChurn)->Arg(1024)->Arg(16384)->Apply(ApplyIters);
BENCHMARK(BM_EventQueueTimerChurn)->Arg(1024)->Arg(16384)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Callable wrappers: EventFn (48-byte inline storage, move-only) against
// std::function for the capture sizes the simulator actually schedules.
// ---------------------------------------------------------------------------

void BM_StdFunctionRoundTrip(benchmark::State& state) {
  uint64_t sink = 0;
  void* a = &sink;
  void* b = &state;
  for (auto _ : state) {
    std::function<void()> fn = [a, b, &sink] {
      benchmark::DoNotOptimize(a);
      benchmark::DoNotOptimize(b);
      ++sink;
    };
    std::function<void()> moved = std::move(fn);
    moved();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StdFunctionRoundTrip)->Apply(ApplyIters);

void BM_EventFnRoundTrip(benchmark::State& state) {
  uint64_t sink = 0;
  void* a = &sink;
  void* b = &state;
  for (auto _ : state) {
    EventFn fn = [a, b, &sink] {
      benchmark::DoNotOptimize(a);
      benchmark::DoNotOptimize(b);
      ++sink;
    };
    EventFn moved = std::move(fn);
    moved();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventFnRoundTrip)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Idle tick-skipping: 10 simulated seconds with one event per 100 ms. With
// quiescence reporting the engine jumps between events; the "NoSkip" variant
// pins a default ticker (NextWorkAt = now) so every one of the 10,000 ticks
// executes, which was the old engine's only mode.
// ---------------------------------------------------------------------------

class AlwaysBusyTicker : public Ticker {
 public:
  void Tick(SimTime) override { ++ticks; }
  uint64_t ticks = 0;
};

template <bool kSkip>
void EngineRun(benchmark::State& state) {
  uint64_t fired = 0;
  for (auto _ : state) {
    Engine engine(1);
    AlwaysBusyTicker busy;
    if (!kSkip) {
      engine.AddTicker(&busy);
    }
    for (int i = 1; i <= 100; ++i) {
      engine.ScheduleAt(static_cast<SimTime>(i) * Ms(100), [&fired] { ++fired; });
    }
    engine.RunFor(Sec(10));
    if (!kSkip) {
      engine.RemoveTicker(&busy);
    }
  }
  benchmark::DoNotOptimize(fired);
  // Simulated ticks covered per wall second.
  state.SetItemsProcessed(state.iterations() * 10'000);
}

void BM_EngineIdle10sNoSkip(benchmark::State& state) { EngineRun<false>(state); }
void BM_EngineIdle10sSkip(benchmark::State& state) { EngineRun<true>(state); }
BENCHMARK(BM_EngineIdle10sNoSkip)->Apply(ApplyIters);
BENCHMARK(BM_EngineIdle10sSkip)->Apply(ApplyIters);

}  // namespace
}  // namespace ice

BENCHMARK_MAIN();
