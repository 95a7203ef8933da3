// The simulation engine: a hybrid of a 1 ms tick loop (CPU scheduling quanta)
// and a µs-resolution discrete-event queue (timers, I/O completions, vsync).
//
// Per iteration the engine (1) fires every event due at or before the current
// time, then (2) calls each registered Ticker once. Tickers model components
// that do work every scheduling quantum — chiefly the CPU scheduler. The
// engine also owns the experiment-wide Rng and StatsRegistry so determinism
// and accounting have a single root.
//
// The clock moves only in whole ticks. An event fires at the first tick
// boundary at or after its µs deadline, and the events due at one boundary
// fire in (deadline, seq) order. Every I/O latency is therefore a whole
// number of ticks.
//
// When every Ticker reports quiescence via NextWorkAt() and no event is due,
// the engine jumps time forward in whole ticks instead of spinning 1 ms at a
// time ("idle tick-skipping"). Skipped ticks are observationally identical to
// executed ones: the clock is the only tick record (ticks_elapsed() is
// now / kTick), so counts derived from it include them, and tickers with
// per-tick work that idle ticks still owe apply it in OnTicksSkipped().
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/units.h"
#include "src/sim/event_queue.h"

namespace ice {

class SnapshotArchive;
class Tracer;

// Sentinel NextWorkAt() result: this ticker has no self-initiated work at any
// future time (it only reacts to events or other components).
inline constexpr SimTime kTickerIdle = UINT64_MAX;

class Ticker {
 public:
  virtual ~Ticker() = default;
  // Called once per engine tick with the current simulated time.
  virtual void Tick(SimTime now) = 0;

  // Earliest time at or after `now` at which this ticker has work to do, or
  // kTickerIdle if none. The engine may skip Tick() calls strictly before the
  // reported time, so implementations must never under-report: returning T
  // asserts that every Tick(t) with t < T would have been a no-op (stats
  // updates excepted if batch-applied via OnTicksSkipped). The conservative
  // default — "work every tick" — disables skipping for this ticker.
  virtual SimTime NextWorkAt(SimTime now) { return now; }

  // Notification that the engine skipped `count` ticks that would have
  // occurred at times first, first + kTick, ... Tickers whose idle ticks
  // still do something (the scheduler closes each second a skip ends) apply
  // the batch equivalent here so skipped and executed runs are identical.
  virtual void OnTicksSkipped(SimTime first_skipped, uint64_t count) {
    (void)first_skipped;
    (void)count;
  }
};

class Engine {
 public:
  // Scheduling quantum; all Tickers advance in steps of this duration.
  static constexpr SimDuration kTick = kMillisecond;

  explicit Engine(uint64_t seed = 1);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }
  // Ticks run or skipped so far: the clock starts at 0 and moves in whole
  // ticks.
  uint64_t ticks_elapsed() const { return now_ / kTick; }

  Rng& rng() { return rng_; }
  // Config-independent auxiliary stream for boot-time and environment noise
  // (service jitter, storage latency, contention). Keeping these draws off
  // the seeded stream means experiment construction consumes zero draws from
  // rng(): a device's seed feeds only its usage trace, so a post-boot
  // snapshot plus a reseed of rng() reproduces a cold boot exactly (the fleet
  // warm-boot template contract).
  Rng& noise_rng() { return noise_rng_; }
  StatsRegistry& stats() { return stats_; }

  // Optional trace sink (owned by the experiment). Null — the default —
  // means tracing is off; ICE_TRACE call sites pay one branch and nothing
  // else. The tracer must never influence simulation behavior: a traced run
  // and an untraced run of the same seed are identical.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  EventId ScheduleAt(SimTime when, EventFn fn);
  EventId ScheduleAfter(SimDuration delay, EventFn fn);
  bool Cancel(EventId id);

  // ---- Snapshot/restore -----------------------------------------------------
  // The (deadline, seq) of a still-pending event; nullopt once it fired or
  // was cancelled.
  std::optional<std::pair<SimTime, uint64_t>> PendingEvent(EventId id) const {
    return events_.Pending(id);
  }
  // Live events in the queue. Snapshot sanity: every one of these must be
  // owned (and re-armed on restore) by some component's serialization.
  size_t pending_events() const { return events_.size(); }

  // Components re-arm their own timers: this transfers the pending event
  // `id` as (deadline, seq), and restoring arms `fn` at that deadline under
  // the saved sequence number — the original firing order, without the
  // queue ever serializing callables. The new handle goes to `id`, which
  // must be kInvalidEventId until then. Restoring throws for a deadline
  // before the clock, a seq of 0 or at or above the restored next_seq, and
  // a (deadline, seq) pair another pending event already holds.
  void TransferEvent(SnapshotArchive& ar, EventId& id, EventFn fn);
  // Same for an event that may be absent (`id` == kInvalidEventId): a
  // presence flag precedes the (deadline, seq) pair.
  void TransferOptionalEvent(SnapshotArchive& ar, EventId& id, EventFn fn);

  // Clock, tick counters, event-sequence cursor, RNGs, and stats registry.
  // The tick count is written as now / kTick; restoring throws for a clock
  // off the tick grid or a tick count that disagrees with it. Restoring
  // requires the event queue to be empty (timers are re-armed by their
  // owners afterwards, under sequence numbers below the restored one).
  void Transfer(SnapshotArchive& ar);

  // Recycling support: drop every pending event (keeping the queue's node
  // pool) and rewind the clock so a subsequent restore can overlay a
  // snapshot onto this live engine. Registered tickers are kept — the
  // components that own them persist across a recycle.
  void ResetForRecycle();

  // Tickers are called in registration order. Adding or removing one
  // during a tick aborts: the tick loop iterates the list.
  void AddTicker(Ticker* ticker);
  void RemoveTicker(Ticker* ticker);

  // Advances simulation until `now() >= until`.
  void RunUntil(SimTime until);
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  // Number of idle ticks elided by tick-skipping so far (each still counted
  // in ticks_elapsed()). Exposed for tests and benchmarks.
  uint64_t ticks_skipped() const { return ticks_skipped_; }

 private:
  void RunOneTick();
  // After a tick at now_, jump now_ forward to the next tick with work
  // (bounded by `until`) if every ticker and the event queue are quiescent.
  void MaybeSkipIdleTicks(SimTime until);

  SimTime now_ = 0;
  uint64_t ticks_skipped_ = 0;
  Tracer* tracer_ = nullptr;
  Rng rng_;
  Rng noise_rng_;
  StatsRegistry stats_;
  EventQueue events_;
  std::vector<Ticker*> tickers_;
  bool in_tick_ = false;
};

}  // namespace ice

#endif  // SRC_SIM_ENGINE_H_
