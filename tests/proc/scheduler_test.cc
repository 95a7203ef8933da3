#include "src/proc/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/proc/behavior.h"
#include "src/proc/process.h"
#include "src/proc/task.h"

namespace ice {
namespace {

struct SpinBehavior : Behavior {
  void Run(TaskContext& ctx) override {
    while (ctx.Compute(Us(100))) {
    }
  }
};

// Overruns its budget by a fixed amount once (a non-preemptive section).
struct OverrunOnceBehavior : Behavior {
  void Run(TaskContext& ctx) override {
    if (!done) {
      done = true;
      ctx.Compute(Ms(5));  // 5x the quantum.
      return;
    }
    ctx.SleepUntilWoken();
  }
  bool done = false;
};

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : mm_(engine_, MemConfig{}, nullptr), sched_(engine_, mm_, 2) {}

  Engine engine_{1};
  MemoryManager mm_;
  Scheduler sched_;
};

TEST_F(SchedulerTest, CapacityTracksCoresAndTime) {
  engine_.RunFor(Ms(10));
  EXPECT_EQ(sched_.capacity_us(), 2u * Ms(10));
  EXPECT_EQ(sched_.busy_us(), 0u);
  EXPECT_DOUBLE_EQ(sched_.utilization(), 0.0);
}

TEST_F(SchedulerTest, SingleSpinnerSaturatesOneCore) {
  sched_.CreateTask("spin", nullptr, 0, std::make_unique<SpinBehavior>());
  engine_.RunFor(Ms(100));
  EXPECT_NEAR(sched_.utilization(), 0.5, 0.02);
}

TEST_F(SchedulerTest, MoreSpinnersThanCoresShareFairly) {
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(
        sched_.CreateTask("spin" + std::to_string(i), nullptr, 0,
                          std::make_unique<SpinBehavior>()));
  }
  engine_.RunFor(Ms(400));
  EXPECT_NEAR(sched_.utilization(), 1.0, 0.01);
  // Each of 4 tasks gets ~half a core.
  for (Task* t : tasks) {
    EXPECT_NEAR(static_cast<double>(t->cpu_time_us()), Ms(200), Ms(24));
  }
}

TEST_F(SchedulerTest, WeightsBiasCpuShares) {
  Task* heavy = sched_.CreateTask("heavy", nullptr, -5, std::make_unique<SpinBehavior>());
  Task* light1 = sched_.CreateTask("l1", nullptr, 5, std::make_unique<SpinBehavior>());
  Task* light2 = sched_.CreateTask("l2", nullptr, 5, std::make_unique<SpinBehavior>());
  Task* light3 = sched_.CreateTask("l3", nullptr, 5, std::make_unique<SpinBehavior>());
  engine_.RunFor(Ms(500));
  // weight(-5)=3121 vs weight(5)=335: the heavy task runs every quantum
  // (saturating a core) while the three light tasks share the other core.
  EXPECT_GT(heavy->cpu_time_us(), Ms(480));
  EXPECT_GT(heavy->cpu_time_us(), light1->cpu_time_us() * 5 / 2);
  EXPECT_GT(heavy->cpu_time_us(), light2->cpu_time_us() * 5 / 2);
  EXPECT_GT(heavy->cpu_time_us(), light3->cpu_time_us() * 5 / 2);
}

TEST_F(SchedulerTest, OverrunCreatesDebtAndOccupiesCore) {
  auto behavior = std::make_unique<OverrunOnceBehavior>();
  Task* t = sched_.CreateTask("overrun", nullptr, 0, std::move(behavior));
  engine_.RunFor(Ms(2));
  // The 5 ms section was charged fully at the first quantum.
  EXPECT_EQ(t->cpu_time_us(), Ms(5));
  EXPECT_GT(t->debt_us(), 0u);
  engine_.RunFor(Ms(10));
  EXPECT_EQ(t->debt_us(), 0u);
  // The core was busy repaying the debt: total busy ≈ 5 ms.
  EXPECT_NEAR(static_cast<double>(sched_.busy_us()), Ms(5), Ms(1));
}

TEST_F(SchedulerTest, PerSecondUtilizationSampled) {
  sched_.CreateTask("spin", nullptr, 0, std::make_unique<SpinBehavior>());
  engine_.RunFor(Sec(3));
  ASSERT_GE(sched_.utilization_per_second().size(), 3u);
  for (double u : sched_.utilization_per_second()) {
    EXPECT_NEAR(u, 0.5, 0.02);
  }
}

TEST_F(SchedulerTest, WokenTaskGetsFairnessFloor) {
  struct NapThenSpin : Behavior {
    void Run(TaskContext& ctx) override {
      if (!napped) {
        napped = true;
        ctx.SleepFor(Ms(200));
        return;
      }
      while (ctx.Compute(Us(100))) {
      }
    }
    bool napped = false;
  };
  sched_.CreateTask("spin1", nullptr, 0, std::make_unique<SpinBehavior>());
  sched_.CreateTask("spin2", nullptr, 0, std::make_unique<SpinBehavior>());
  Task* sleeper = sched_.CreateTask("sleeper", nullptr, 0, std::make_unique<NapThenSpin>());
  engine_.RunFor(Ms(500));
  // The sleeper must not monopolize the CPU after waking despite its low
  // vruntime accrued while asleep.
  EXPECT_LT(sleeper->cpu_time_us(), Ms(400));
  EXPECT_GT(sleeper->cpu_time_us(), Ms(100));
}

// Computes `burst`, then sleeps `nap`: idle most of the time.
struct NapBehavior : Behavior {
  NapBehavior(SimDuration burst_us, SimDuration nap_us) : burst(burst_us), nap(nap_us) {}
  void Run(TaskContext& ctx) override {
    ctx.Compute(burst);
    ctx.SleepFor(nap);
  }
  SimDuration burst;
  SimDuration nap;
};

// A ticker with work every tick, so no tick of its engine is skipped.
struct EveryTick : Ticker {
  void Tick(SimTime) override {}
};

// CPU capacity is read off the clock and idle ticks only close seconds, so
// a run that skips most ticks samples exactly what one that runs them all
// does.
TEST(SchedulerSkipping, SkippedSecondsSampleAsIfEveryTickRan) {
  struct Device {
    explicit Device(bool every_tick) {
      if (every_tick) {
        engine.AddTicker(&forcer);
      }
      sched.CreateTask("a", nullptr, 0, std::make_unique<NapBehavior>(Us(700), Ms(2300)));
      sched.CreateTask("b", nullptr, 5, std::make_unique<NapBehavior>(Us(2500), Ms(3700)));
      engine.RunFor(Sec(10) + Ms(500));
    }
    ~Device() { engine.RemoveTicker(&forcer); }

    Engine engine{1};
    MemoryManager mm{engine, MemConfig{}, nullptr};
    Scheduler sched{engine, mm, 2};
    EveryTick forcer;
  };
  Device skipping(/*every_tick=*/false);
  Device ticking(/*every_tick=*/true);

  EXPECT_EQ(ticking.engine.ticks_skipped(), 0u);
  // Over 9.9 of the 10.5 s are skipped, so at least three whole seconds are
  // closed by skips alone.
  EXPECT_GT(skipping.engine.ticks_skipped(), 9'900u);
  EXPECT_EQ(skipping.engine.ticks_elapsed(), ticking.engine.ticks_elapsed());

  const std::vector<double>& samples = skipping.sched.utilization_per_second();
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples, ticking.sched.utilization_per_second());
  EXPECT_GT(std::count(samples.begin(), samples.end(), 0.0), 2);
  EXPECT_GT(std::count_if(samples.begin(), samples.end(), [](double u) { return u > 0.0; }), 2);
  EXPECT_EQ(skipping.sched.busy_us(), ticking.sched.busy_us());
  EXPECT_GT(skipping.sched.busy_us(), 0u);
  EXPECT_EQ(skipping.sched.capacity_us(), ticking.sched.capacity_us());
  EXPECT_EQ(skipping.sched.capacity_us(), 2 * (Sec(10) + Ms(500)));
}

TEST_F(SchedulerTest, CreateTaskAttachesToProcess) {
  AddressSpaceLayout layout;
  layout.native_pages = 10;
  Process process(42, nullptr, "proc", layout);
  Task* t = sched_.CreateTask("t", &process, 0, std::make_unique<SpinBehavior>());
  ASSERT_EQ(process.tasks().size(), 1u);
  EXPECT_EQ(process.tasks()[0], t);
  EXPECT_EQ(t->process(), &process);
  EXPECT_FALSE(t->is_kernel());
}

}  // namespace
}  // namespace ice
