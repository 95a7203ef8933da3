#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"

namespace ice {
namespace {

class CountingTicker : public Ticker {
 public:
  void Tick(SimTime now) override {
    ++ticks;
    last = now;
  }
  int ticks = 0;
  SimTime last = 0;
};

TEST(Engine, TimeAdvancesByTicks) {
  Engine engine(1);
  engine.RunFor(Ms(10));
  EXPECT_EQ(engine.now(), Ms(10));
  EXPECT_EQ(engine.ticks_elapsed(), 10u);
}

TEST(Engine, TickersCalledOncePerTick) {
  Engine engine(1);
  CountingTicker t;
  engine.AddTicker(&t);
  engine.RunFor(Ms(5));
  EXPECT_EQ(t.ticks, 5);
  engine.RemoveTicker(&t);
  engine.RunFor(Ms(5));
  EXPECT_EQ(t.ticks, 5);
}

TEST(Engine, EventsFireAtTheNextTickBoundary) {
  Engine engine(1);
  SimTime fired = 0;
  engine.ScheduleAt(Us(2500), [&] { fired = engine.now(); });
  engine.RunFor(Ms(5));
  // Events run at the first tick boundary at/after their time.
  EXPECT_EQ(fired, Us(3000));
}

TEST(Engine, ScheduleAfterUsesNow) {
  Engine engine(1);
  engine.RunFor(Ms(3));
  bool fired = false;
  engine.ScheduleAfter(Ms(2), [&] { fired = true; });
  engine.RunFor(Ms(1));
  EXPECT_FALSE(fired);
  engine.RunFor(Ms(2));
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelWorks) {
  Engine engine(1);
  bool fired = false;
  EventId id = engine.ScheduleAfter(Ms(1), [&] { fired = true; });
  EXPECT_TRUE(engine.Cancel(id));
  engine.RunFor(Ms(5));
  EXPECT_FALSE(fired);
}

// The tick loop iterates the ticker list, so editing it from inside a tick
// aborts instead of being deferred.
TEST(EngineDeathTest, TickerEditDuringTickAborts) {
  class Editor : public Ticker {
   public:
    Editor(Engine& e, bool add) : engine_(e), add_(add) {}
    void Tick(SimTime) override {
      if (add_) {
        engine_.AddTicker(&other_);
      } else {
        engine_.RemoveTicker(this);
      }
    }
    Engine& engine_;
    bool add_;
    CountingTicker other_;
  };
  for (bool add : {true, false}) {
    EXPECT_DEATH(
        {
          Engine engine(1);
          Editor editor(engine, add);
          engine.AddTicker(&editor);
          engine.RunFor(Ms(1));
        },
        add ? "ticker added during a tick" : "ticker removed during a tick");
  }
}

// ---------------------------------------------------------------------------
// Idle tick-skipping
// ---------------------------------------------------------------------------

// A ticker that only has work every `period`: NextWorkAt reports the next
// multiple, and the test checks Tick is called exactly at those times while
// the engine's tick count still advances as if every tick ran.
class PeriodicTicker : public Ticker {
 public:
  explicit PeriodicTicker(SimDuration period) : period_(period) {}
  void Tick(SimTime now) override {
    ++ticks;
    if (now >= next_work_) {
      work_times.push_back(now);
      next_work_ = now + period_;
    }
  }
  SimTime NextWorkAt(SimTime now) override { return next_work_ > now ? next_work_ : now; }
  void OnTicksSkipped(SimTime, uint64_t count) override { skipped += count; }

  SimDuration period_;
  SimTime next_work_ = 0;
  int ticks = 0;
  uint64_t skipped = 0;
  std::vector<SimTime> work_times;
};

TEST(Engine, IdleTicksAreSkippedWithNoTickersOrEvents) {
  Engine engine(1);
  engine.RunFor(Sec(10));
  EXPECT_EQ(engine.now(), Sec(10));
  EXPECT_EQ(engine.ticks_elapsed(), 10'000u);  // Skipped ticks still counted.
  EXPECT_GT(engine.ticks_skipped(), 9'000u);
}

TEST(Engine, DefaultTickerDisablesSkipping) {
  Engine engine(1);
  CountingTicker t;  // Default NextWorkAt: work every tick.
  engine.AddTicker(&t);
  engine.RunFor(Ms(50));
  EXPECT_EQ(t.ticks, 50);
  EXPECT_EQ(engine.ticks_skipped(), 0u);
  engine.RemoveTicker(&t);
}

TEST(Engine, QuiescentTickerIsSkippedButBatchNotified) {
  Engine engine(1);
  PeriodicTicker t(Ms(100));
  engine.AddTicker(&t);
  engine.RunFor(Sec(1));
  // Executed ticks + skipped ticks account for every tick exactly once.
  EXPECT_EQ(static_cast<uint64_t>(t.ticks) + t.skipped, 1'000u);
  EXPECT_GT(t.skipped, 900u);  // The 100 ms gaps were skipped, not spun.
  ASSERT_EQ(t.work_times.size(), 10u);
  for (size_t i = 0; i < t.work_times.size(); ++i) {
    EXPECT_EQ(t.work_times[i], i * Ms(100));  // Work happened exactly on time.
  }
  engine.RemoveTicker(&t);
}

TEST(Engine, EventsBoundTheSkip) {
  Engine engine(1);
  std::vector<SimTime> fired;
  engine.ScheduleAt(Us(2500), [&] { fired.push_back(engine.now()); });
  engine.ScheduleAt(Sec(2), [&] { fired.push_back(engine.now()); });
  engine.RunFor(Sec(5));
  // Same boundary-rounding semantics as the non-skipping engine.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Ms(3));
  EXPECT_EQ(fired[1], Sec(2));
  EXPECT_EQ(engine.ticks_elapsed(), 5'000u);
  EXPECT_GT(engine.ticks_skipped(), 0u);
}

TEST(Engine, SkippingPreservesTickPhaseAndRunUntilBoundary) {
  // Skip targets must stay on the engine's tick grid even for unaligned
  // event times and RunUntil boundaries.
  Engine engine(1);
  SimTime fired = 0;
  engine.ScheduleAt(Us(1'234'567), [&] { fired = engine.now(); });
  engine.RunUntil(Us(3'500'500));
  EXPECT_EQ(fired, Us(1'235'000));           // ceil to the 1 ms grid.
  EXPECT_EQ(engine.now(), Us(3'501'000));    // Same final time as unskipped.
  EXPECT_EQ(engine.ticks_elapsed(), 3'501u);
}

TEST(Engine, StatsAndRngAccessible) {
  Engine engine(99);
  engine.stats().Increment("test.counter");
  EXPECT_EQ(engine.stats().Get("test.counter"), 1u);
  (void)engine.rng().Next();
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Engine engine(seed);
    std::vector<uint32_t> vals;
    for (int i = 0; i < 10; ++i) {
      vals.push_back(engine.rng().Next());
    }
    return vals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// ---- Restoring pending events ----------------------------------------------

// Labels 1 and 2 at 5 ms (scheduled in that order) and 3 at 4 ms, pending
// at 2 ms. Saves the engine, then the events in the order 3, 2, 1: only the
// saved seqs keep 1 before 2.
std::vector<uint8_t> SaveWithThreeEvents(Engine& engine, std::vector<int>& fired) {
  EventId ids[3];
  for (int label : {1, 2, 3}) {
    ids[label - 1] = engine.ScheduleAt(label == 3 ? Ms(4) : Ms(5),
                                       [&fired, label] { fired.push_back(label); });
  }
  engine.RunFor(Ms(2));
  BinaryWriter w;
  SnapshotArchive save(w);
  engine.Transfer(save);
  for (int i : {2, 1, 0}) {
    engine.TransferEvent(save, ids[i], [] {});
  }
  return w.Finish();
}

TEST(EngineRestore, PendingEventsFireInTheUninterruptedOrder) {
  Engine uninterrupted(1);
  std::vector<int> want;
  std::vector<uint8_t> bytes = SaveWithThreeEvents(uninterrupted, want);
  // A new event at the shared deadline fires after both restored ones.
  uninterrupted.ScheduleAt(Ms(5), [&want] { want.push_back(4); });
  uninterrupted.RunFor(Ms(8));
  ASSERT_EQ(want, (std::vector<int>{3, 1, 2, 4}));

  Engine restored(1);
  std::vector<int> got;
  BinaryReader r(bytes);
  SnapshotArchive load(r);
  restored.Transfer(load);
  for (int label : {3, 2, 1}) {
    EventId id = kInvalidEventId;
    restored.TransferEvent(load, id, [&got, label] { got.push_back(label); });
    EXPECT_EQ(restored.PendingEvent(id).value().first, label == 3 ? Ms(4) : Ms(5));
  }
  EXPECT_EQ(restored.pending_events(), 3u);
  restored.ScheduleAt(Ms(5), [&got] { got.push_back(4); });
  restored.RunFor(Ms(8));
  EXPECT_EQ(got, want);
  EXPECT_EQ(restored.now(), uninterrupted.now());
}

// An engine at 2 ms whose next seq is 4, followed by `events` as
// TransferEvent writes them; restoring re-arms each in turn.
void ExpectEventsRejected(const std::vector<std::pair<SimTime, uint64_t>>& events) {
  Engine engine(1);
  for (int i = 0; i < 3; ++i) {
    engine.ScheduleAt(Ms(5), [] {});
  }
  engine.RunFor(Ms(2));
  BinaryWriter w;
  SnapshotArchive save(w);
  engine.Transfer(save);
  for (auto [when, seq] : events) {
    save.U64(when);
    save.U64(seq);
  }
  std::vector<uint8_t> bytes = w.Finish();

  Engine restored(1);
  BinaryReader r(bytes);
  SnapshotArchive load(r);
  restored.Transfer(load);
  try {
    for (size_t i = 0; i < events.size(); ++i) {
      EventId id = kInvalidEventId;
      restored.TransferEvent(load, id, [] {});
    }
    ADD_FAILURE() << "bad events were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
  }
}

TEST(EngineRestore, DeadlineBeforeTheClockIsRejected) {
  ExpectEventsRejected({{Ms(1), 1}});
}

// Seq 0 is never handed out: the counter starts at 1.
TEST(EngineRestore, SeqZeroIsRejected) { ExpectEventsRejected({{Ms(5), 0}}); }

// A seq at or above the restored counter would be handed out again by the
// next Schedule.
TEST(EngineRestore, SeqAtOrAboveNextSeqIsRejected) {
  ExpectEventsRejected({{Ms(5), 4}});
  ExpectEventsRejected({{Ms(5), 1}, {Ms(6), 1u << 20}});
}

// The queue orders two events with the same (deadline, seq) arbitrarily.
TEST(EngineRestore, DuplicateDeadlineAndSeqIsRejected) {
  ExpectEventsRejected({{Ms(5), 2}, {Ms(4), 3}, {Ms(5), 2}});
}

}  // namespace
}  // namespace ice
