#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/base/rng.h"

namespace ice {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  q.RunDue(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(10, [&] { order.push_back(2); });
  q.Schedule(10, [&] { order.push_back(3); });
  q.RunDue(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, OnlyDueEventsRun) {
  EventQueue q;
  int ran = 0;
  q.Schedule(10, [&] { ++ran; });
  q.Schedule(20, [&] { ++ran; });
  q.RunDue(15);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.NextTime(), 20u);
}

TEST(EventQueue, EventsScheduledDuringDispatchRun) {
  EventQueue q;
  int ran = 0;
  q.Schedule(10, [&] {
    q.Schedule(10, [&] { ++ran; });  // Same-time chain.
  });
  q.RunDue(10);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  EventId id = q.Schedule(10, [&] { ++ran; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  q.RunDue(100);
  EXPECT_EQ(ran, 0);
}

TEST(EventQueue, DoubleCancelFails) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(9999));
}

// Regression: the old tombstone-set implementation let Cancel on an
// already-fired id insert a permanent tombstone, wrongly decrement the live
// count, and return true. The generation-tagged ids detect it exactly.
TEST(EventQueue, CancelAfterFireFailsWithoutCorruption) {
  EventQueue q;
  int ran = 0;
  EventId fired = q.Schedule(10, [&] { ++ran; });
  q.Schedule(50, [&] { ++ran; });
  q.RunDue(20);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.Cancel(fired));  // Already fired: cancel must fail...
  EXPECT_EQ(q.size(), 1u);        // ...and must not decrement live count.
  EXPECT_FALSE(q.empty());
  q.RunDue(100);
  EXPECT_EQ(ran, 2);  // The still-live event is unaffected.
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireOnEmptyQueueKeepsEmptyConsistent) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  q.RunDue(10);
  ASSERT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // A fresh event still schedules and fires normally afterwards.
  int ran = 0;
  q.Schedule(20, [&] { ++ran; });
  EXPECT_EQ(q.size(), 1u);
  q.RunDue(20);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, StaleIdAfterNodeReuseFails) {
  EventQueue q;
  EventId first = q.Schedule(10, [] {});
  q.RunDue(10);  // Fires; its pool node returns to the free list.
  int ran = 0;
  q.Schedule(30, [&] { ++ran; });  // Reuses the node under a new generation.
  EXPECT_FALSE(q.Cancel(first));   // Stale handle must not hit the new event.
  EXPECT_EQ(q.size(), 1u);
  q.RunDue(30);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 20u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.RunDue(100);
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// EventQueue vs. reference model
//
// The property test drives the queue and a brute-force (when, seq) model
// through identical randomized schedule/cancel/advance scripts, with whens
// from within one tick out to hours ahead, and asserts the firing sequences
// are exactly equal: not "sorted output" but the identical total order,
// including FIFO tie-breaks and events spawned during dispatch.
// ---------------------------------------------------------------------------

// Brute-force reference with the exact semantics of the original
// priority_queue EventQueue: fire in (when, seq) order, FIFO ties, events
// scheduled during dispatch at times <= now join the current batch.
class RefModel {
 public:
  int Schedule(SimTime when, int label) {
    evs_.push_back({when, next_seq_++, label, State::kPending});
    return static_cast<int>(evs_.size() - 1);
  }

  bool Cancel(int idx) {
    if (evs_[idx].state != State::kPending) {
      return false;
    }
    evs_[idx].state = State::kCancelled;
    return true;
  }

  size_t size() const {
    size_t n = 0;
    for (const Ev& e : evs_) {
      n += e.state == State::kPending ? 1 : 0;
    }
    return n;
  }

  SimTime NextTime() const {
    SimTime best = UINT64_MAX;
    for (const Ev& e : evs_) {
      if (e.state == State::kPending && e.when < best) {
        best = e.when;
      }
    }
    return best;
  }

  // `on_fire(label)` may call Schedule (spawned events with when <= now join
  // this batch, exactly like the queue's dispatch).
  void RunDue(SimTime now, const std::function<void(int)>& on_fire) {
    for (;;) {
      int best = -1;
      for (size_t i = 0; i < evs_.size(); ++i) {
        const Ev& e = evs_[i];
        if (e.state != State::kPending || e.when > now) {
          continue;
        }
        if (best < 0 || e.when < evs_[best].when ||
            (e.when == evs_[best].when && e.seq < evs_[best].seq)) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) {
        return;
      }
      evs_[best].state = State::kFired;
      on_fire(evs_[best].label);
    }
  }

 private:
  enum class State { kPending, kFired, kCancelled };
  struct Ev {
    SimTime when;
    uint64_t seq;
    int label;
    State state;
  };
  std::vector<Ev> evs_;
  uint64_t next_seq_ = 1;
};

class EventQueueProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventQueueProperty, FiringOrderMatchesReferenceModel) {
  Rng rng(GetParam());
  EventQueue queue;
  RefModel model;

  SimTime now = 0;
  int next_label = 0;
  std::vector<int> queue_fired;
  std::vector<int> model_fired;

  // label -> (child delay, child label) for events that spawn on fire.
  std::map<int, std::pair<SimDuration, int>> spawns;
  // Parallel cancellable handles (top-level events only).
  std::vector<std::pair<EventId, int>> handles;

  // Delay scales from within one tick to ~11 simulated hours: ~2 ms, ~70 ms,
  // ~4 s, ~4.5 min, ~4.7 h, and beyond.
  auto random_delay = [&rng]() -> SimDuration {
    switch (rng.Below(6)) {
      case 0:
        return rng.Below(2048);
      case 1:
        return rng.Below(70'000);
      case 2:
        return rng.Below(4'200'000);
      case 3:
        return static_cast<SimDuration>(rng.Range(0, 270'000'000));
      case 4:
        return static_cast<SimDuration>(rng.Range(0, 17'000'000'000));
      default:
        return static_cast<SimDuration>(rng.Range(17'000'000'000, 40'000'000'000));
    }
  };

  // Each side schedules its own events (including spawn-on-fire children,
  // recursively) from the shared `spawns` script, so order divergence — the
  // thing under test — is the only way the two firing logs can differ.
  std::function<EventId(SimTime, int)> queue_schedule = [&](SimTime when, int label) {
    return queue.Schedule(when, [&, label] {
      queue_fired.push_back(label);
      auto it = spawns.find(label);
      if (it != spawns.end()) {
        queue_schedule(/*when=*/it->second.first, it->second.second);
      }
    });
  };
  std::function<void(int)> model_on_fire = [&](int label) {
    model_fired.push_back(label);
    auto it = spawns.find(label);
    if (it != spawns.end()) {
      model.Schedule(it->second.first, it->second.second);
    }
  };
  auto schedule_both = [&](SimTime when, int label) {
    EventId id = queue_schedule(when, label);
    int idx = model.Schedule(when, label);
    handles.emplace_back(id, idx);
  };

  for (int step = 0; step < 4000; ++step) {
    uint32_t dice = rng.Below(100);
    if (dice < 55) {
      int label = next_label++;
      SimTime when = now + random_delay();
      if (rng.Chance(0.2)) {
        // Spawn-on-fire child. Delay 0 lands at the parent's `when`, which is
        // <= dispatch-now: it must join the in-flight batch.
        SimDuration child_delay = rng.Chance(0.4) ? 0 : random_delay();
        int child_label = next_label++;
        spawns[label] = {when + child_delay, child_label};
      }
      schedule_both(when, label);
    } else if (dice < 70 && !handles.empty()) {
      auto [id, idx] = handles[rng.Below(static_cast<uint32_t>(handles.size()))];
      EXPECT_EQ(queue.Cancel(id), model.Cancel(idx));
    } else {
      // Advance: mostly 1 ms ticks, sometimes jumps of up to 70 ms, 4 s,
      // 4.5 min or 5.6 h.
      SimDuration step_us;
      switch (rng.Below(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          step_us = 1000;
          break;
        case 4:
          step_us = rng.Below(70'000);
          break;
        case 5:
          step_us = rng.Below(4'200'000);
          break;
        case 6:
          step_us = static_cast<SimDuration>(rng.Range(0, 270'000'000));
          break;
        default:
          step_us = static_cast<SimDuration>(rng.Range(0, 20'000'000'000));
          break;
      }
      now += step_us;
      queue.RunDue(now);
      model.RunDue(now, model_on_fire);
      ASSERT_EQ(queue_fired, model_fired) << "divergence at step " << step;
    }

    ASSERT_EQ(queue.size(), model.size()) << "size divergence at step " << step;
    if (!queue.empty() && rng.Chance(0.25)) {
      ASSERT_EQ(queue.NextTime(), model.NextTime()) << "NextTime divergence at step " << step;
    }
  }

  // Drain everything left and compare the tail. The horizon covers the worst
  // case: a max-delay event whose on-fire spawn is itself max-delay (40,000 s
  // twice over).
  now += 100'000'000'000ull;
  queue.RunDue(now);
  model.RunDue(now, model_on_fire);
  EXPECT_EQ(queue_fired, model_fired);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(model.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 7, 42, 1234, 987654321));

// Directed regression: events scheduled in reverse time order, and far ones
// hours ahead, fire in (when, seq) order at the right ticks.
TEST(EventQueue, ReversedAndFarEventsFireInWhenSeqOrder) {
  EventQueue queue;
  std::vector<int> order;
  // Decreasing times: insertion order is the reverse of firing order.
  queue.Schedule(130'000, [&] { order.push_back(3); });
  queue.Schedule(128'000, [&] { order.push_back(2); });
  queue.Schedule(127'000, [&] { order.push_back(1); });
  // Far future: 5 s and ~8 h ahead.
  queue.Schedule(5'000'000, [&] { order.push_back(4); });
  queue.Schedule(30'000'000'000ull, [&] { order.push_back(5); });
  for (SimTime t = 0; t <= 200'000; t += 1000) {
    queue.RunDue(t);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  queue.RunDue(5'000'000);
  EXPECT_EQ(order.size(), 4u);
  queue.RunDue(30'000'000'000ull);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, NodePoolIsReusedAfterFire) {
  EventQueue queue;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) {
      queue.Schedule(static_cast<SimTime>(round * 1000 + i), [&] { ++fired; });
    }
    queue.RunDue(static_cast<SimTime>(round * 1000 + 999));
  }
  EXPECT_EQ(fired, 800);
  // Steady state reuses freed nodes instead of growing the pool per event.
  EXPECT_LE(queue.allocated_nodes(), 16u);
}

}  // namespace
}  // namespace ice
