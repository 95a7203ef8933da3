#include "src/proc/behavior.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

MemConfig TinyConfig() {
  MemConfig config;
  config.total_pages = 4000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.reclaim_contention_mean = 0;
  return config;
}

AddressSpaceLayout Layout(PageCount n) {
  AddressSpaceLayout layout;
  layout.native_pages = n / 2;
  layout.file_pages = n / 2;
  return layout;
}

class BehaviorTest : public ::testing::Test {
 protected:
  BehaviorTest()
      : storage_(engine_, Ufs21Profile()),
        mm_(engine_, TinyConfig(), &storage_),
        sched_(engine_, mm_, 4) {}

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
  Scheduler sched_;
};

TEST_F(BehaviorTest, WorkQueueCompletesItemsInOrder) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  std::vector<int> completed;
  for (int i = 0; i < 3; ++i) {
    WorkItem item;
    item.compute_us = Ms(2);
    item.on_complete = [&completed, i] { completed.push_back(i); };
    q->Push(std::move(item));
  }
  engine_.RunFor(Ms(20));
  EXPECT_EQ(completed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q->completed(), 3u);
  EXPECT_EQ(q->pending(), 0u);
}

TEST_F(BehaviorTest, WorkQueueComputeTakesProportionalTime) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  SimTime done_at = 0;
  WorkItem item;
  item.compute_us = Ms(10);
  item.on_complete = [&] { done_at = engine_.now(); };
  q->Push(std::move(item));
  engine_.RunFor(Ms(30));
  EXPECT_GE(done_at, Ms(9));
  EXPECT_LE(done_at, Ms(13));
}

TEST_F(BehaviorTest, WorkQueueWakesSleepingTaskOnPush) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);
  engine_.RunFor(Ms(3));
  ASSERT_EQ(t->state(), TaskState::kSleeping);

  bool done = false;
  WorkItem item;
  item.compute_us = Us(100);
  item.on_complete = [&] { done = true; };
  q->Push(std::move(item));
  EXPECT_EQ(t->state(), TaskState::kRunnable);
  engine_.RunFor(Ms(3));
  EXPECT_TRUE(done);
}

TEST_F(BehaviorTest, WorkQueueTouchesFaultAndBlock) {
  AddressSpace space(1, 1, "a", Layout(200));
  mm_.Register(space);
  // Fault in + evict a file page so the touch must block on flash.
  uint32_t file_vpn = space.file_begin();
  mm_.Access(space, file_vpn, false, nullptr);
  mm_.ReclaimAllOf(space);
  ASSERT_EQ(space.page(file_vpn).state(), PageState::kOnFlash);

  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  bool done = false;
  WorkItem item;
  item.space = &space;
  item.touch_vpns = {file_vpn};
  item.compute_us = Us(50);
  item.on_complete = [&] { done = true; };
  q->Push(std::move(item));

  engine_.RunFor(Ms(2));
  // The task must have blocked on the flash read at least briefly.
  engine_.RunFor(Ms(50));
  EXPECT_TRUE(done);
  EXPECT_EQ(space.page(file_vpn).state(), PageState::kPresent);
  mm_.Release(space);
}

TEST_F(BehaviorTest, KswapdSleepsUntilWokenAndReclaims) {
  Task* kswapd = sched_.CreateTask("kswapd0", nullptr, 0, std::make_unique<KswapdBehavior>());
  mm_.set_kswapd_waker([kswapd] { kswapd->Wake(); });
  engine_.RunFor(Ms(5));
  EXPECT_EQ(kswapd->state(), TaskState::kSleeping);

  AddressSpace space(1, 1, "a", Layout(3800));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 3720; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  // free is now 80 <= low: kswapd woken by the mm.
  EXPECT_EQ(kswapd->state(), TaskState::kRunnable);
  engine_.RunFor(Sec(1));
  EXPECT_GE(mm_.free_pages(), static_cast<int64_t>(mm_.watermarks().high));
  EXPECT_EQ(kswapd->state(), TaskState::kSleeping);
  EXPECT_GT(kswapd->cpu_time_us(), 0u);
  mm_.Release(space);
}

TEST_F(BehaviorTest, PeriodicLoadApproximatesDutyCycle) {
  PeriodicLoadBehavior::Params params;
  params.period = Ms(10);
  params.compute_us = Ms(3);
  params.jitter = 0.0;
  Task* t = sched_.CreateTask("periodic", nullptr, 0,
                              std::make_unique<PeriodicLoadBehavior>(params));
  engine_.RunFor(Sec(2));
  double duty = static_cast<double>(t->cpu_time_us()) / Sec(2);
  EXPECT_NEAR(duty, 0.3, 0.05);
}

// Restores a PeriodicLoadBehavior's progress from a stream holding these
// field values, in its Transfer order.
void RestoreLoadProgress(PeriodicLoadBehavior& behavior, SimDuration remaining_compute,
                         uint32_t remaining_touches, bool started) {
  BinaryWriter w;
  w.U64(remaining_compute);
  w.U32(remaining_touches);
  w.Bool(started);
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive load(r);
  behavior.Transfer(load);
}

// A touchless service handed a touch countdown would reach
// ICE_CHECK(params_.space != nullptr) on its next run; restore must reject
// it, and any countdown above the configured burst, instead.
TEST(PeriodicLoadRestore, RejectsCountdownAboveItsBurst) {
  PeriodicLoadBehavior::Params params;
  params.compute_us = Us(500);
  params.touches = 0;
  PeriodicLoadBehavior service(params);
  EXPECT_THROW(RestoreLoadProgress(service, 0, 3, true), std::runtime_error);
  EXPECT_THROW(RestoreLoadProgress(service, Us(501), 0, true), std::runtime_error);
  EXPECT_NO_THROW(RestoreLoadProgress(service, Us(500), 0, true));
  EXPECT_NO_THROW(RestoreLoadProgress(service, Us(200), 0, true));
}

TEST(PeriodicLoadRestore, RejectsLeftoversBeforeStart) {
  PeriodicLoadBehavior::Params params;
  params.compute_us = Us(500);
  params.touches = 4;
  PeriodicLoadBehavior load(params);
  EXPECT_THROW(RestoreLoadProgress(load, Us(100), 0, false), std::runtime_error);
  EXPECT_THROW(RestoreLoadProgress(load, 0, 2, false), std::runtime_error);
  EXPECT_NO_THROW(RestoreLoadProgress(load, 0, 0, false));
  EXPECT_NO_THROW(RestoreLoadProgress(load, Us(100), 2, true));
}

TEST_F(BehaviorTest, ContextReportsBudget) {
  struct Probe : Behavior {
    void Run(TaskContext& ctx) override {
      budget = ctx.budget();
      ctx.Compute(Us(10));
      used_after = ctx.used();
      ctx.SleepUntilWoken();
    }
    SimDuration budget = 0;
    SimDuration used_after = 0;
  };
  auto behavior = std::make_unique<Probe>();
  Probe* probe = behavior.get();
  sched_.CreateTask("probe", nullptr, 0, std::move(behavior));
  engine_.RunFor(Ms(2));
  EXPECT_EQ(probe->budget, Engine::kTick);
  EXPECT_EQ(probe->used_after, Us(10));
}

}  // namespace
}  // namespace ice
