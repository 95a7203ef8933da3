#include "src/sim/engine.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

namespace {
// Seed of the noise stream. A fixed constant, deliberately not derived from
// the experiment seed: every boot draws the same environment noise, so the
// seeded stream stays untouched until the workload starts consuming it.
constexpr uint64_t kNoiseStreamSeed = 0x1cebeefc0ffee123ULL;
}  // namespace

Engine::Engine(uint64_t seed) : rng_(seed), noise_rng_(kNoiseStreamSeed) {}

EventId Engine::ScheduleAt(SimTime when, EventFn fn) {
  ICE_CHECK_GE(when, now_) << "scheduling into the past";
  return events_.Schedule(when, std::move(fn));
}

EventId Engine::ScheduleAfter(SimDuration delay, EventFn fn) {
  return events_.Schedule(now_ + delay, std::move(fn));
}

bool Engine::Cancel(EventId id) { return events_.Cancel(id); }

void Engine::TransferEvent(SnapshotArchive& ar, EventId& id, EventFn fn) {
  SimTime when = 0;
  uint64_t seq = 0;
  if (!ar.loading()) {
    auto pending = events_.Pending(id);
    ICE_CHECK(pending.has_value()) << "snapshot of a stale event handle";
    std::tie(when, seq) = *pending;
  }
  ar.U64(when);
  ar.U64(seq);
  if (ar.loading()) {
    ICE_CHECK_EQ(id, kInvalidEventId) << "re-arming over a live event";
    // The queue orders events totally only while (deadline, seq) pairs are
    // unique, and Schedule hands out next_seq onwards.
    std::string why;
    if (when < now_) {
      why = "precedes the restored clock " + std::to_string(now_);
    } else if (seq == 0 || seq >= events_.next_seq()) {
      why = "has a seq outside [1, " + std::to_string(events_.next_seq()) + ")";
    } else if (events_.Holds(when, seq)) {
      why = "is already pending";
    }
    if (!why.empty()) {
      SnapshotArchive::Fail("event (" + std::to_string(when) + ", " + std::to_string(seq) +
                            ") " + why);
    }
    id = events_.ScheduleWithSeq(when, seq, std::move(fn));
  }
}

void Engine::TransferOptionalEvent(SnapshotArchive& ar, EventId& id, EventFn fn) {
  if (ar.loading()) {
    ICE_CHECK_EQ(id, kInvalidEventId) << "re-arming over a live event";
  }
  bool armed = id != kInvalidEventId;
  ar.Bool(armed);
  if (armed) {
    TransferEvent(ar, id, std::move(fn));
  }
}

void Engine::Transfer(SnapshotArchive& ar) {
  if (ar.loading()) {
    ICE_CHECK(events_.empty()) << "engine restore with timers still scheduled";
  }
  ar.U64(now_);
  if (ar.loading() && now_ % kTick != 0) {
    SnapshotArchive::Fail("clock " + std::to_string(now_) + " is off the tick grid");
  }
  ar.Expect<uint64_t>(ticks_elapsed(), "tick count");
  ar.U64(ticks_skipped_);
  uint64_t next_seq = events_.next_seq();
  ar.U64(next_seq);
  if (ar.loading()) {
    events_.set_next_seq(next_seq);
  }
  rng_.Transfer(ar);
  noise_rng_.Transfer(ar);
  stats_.Transfer(ar);
}

void Engine::ResetForRecycle() {
  events_.Clear();
  now_ = 0;
  ticks_skipped_ = 0;
}

void Engine::AddTicker(Ticker* ticker) {
  ICE_CHECK(ticker != nullptr);
  ICE_CHECK(!in_tick_) << "ticker added during a tick";
  tickers_.push_back(ticker);
}

void Engine::RemoveTicker(Ticker* ticker) {
  ICE_CHECK(!in_tick_) << "ticker removed during a tick";
  auto it = std::find(tickers_.begin(), tickers_.end(), ticker);
  if (it != tickers_.end()) {
    tickers_.erase(it);
  }
}

void Engine::RunOneTick() {
  events_.RunDue(now_);

  in_tick_ = true;
  for (Ticker* t : tickers_) {
    t->Tick(now_);
  }
  in_tick_ = false;

  now_ += kTick;
}

void Engine::MaybeSkipIdleTicks(SimTime until) {
  // Rounds `t` up to the next tick boundary (ticks land at now_ + k * kTick).
  // Callers guard t != kTickerIdle so the arithmetic cannot overflow.
  auto ceil_to_tick = [this](SimTime t) -> SimTime {
    if (t <= now_) {
      return now_;
    }
    return now_ + ((t - now_ + kTick - 1) / kTick) * kTick;
  };

  SimTime target = ceil_to_tick(until);
  for (Ticker* t : tickers_) {
    SimTime w = t->NextWorkAt(now_);
    if (w == kTickerIdle) {
      continue;
    }
    SimTime tick_of_w = ceil_to_tick(w);
    if (tick_of_w < target) {
      target = tick_of_w;
    }
    if (target == now_) {
      return;  // Some ticker has work right now; nothing to skip.
    }
  }
  if (!events_.empty()) {
    SimTime tick_of_ev = ceil_to_tick(events_.NextTime());
    if (tick_of_ev < target) {
      target = tick_of_ev;
    }
  }
  if (target <= now_) {
    return;
  }

  const uint64_t skipped = (target - now_) / kTick;
  for (Ticker* t : tickers_) {
    t->OnTicksSkipped(now_, skipped);
  }
  now_ = target;
  ticks_skipped_ += skipped;
}

void Engine::RunUntil(SimTime until) {
  while (now_ < until) {
    RunOneTick();
    if (now_ < until) {
      MaybeSkipIdleTicks(until);
    }
  }
  // Deliver events that land exactly on the boundary.
  events_.RunDue(now_);
}

}  // namespace ice
