#include "src/workload/bg_activity.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/harness/experiment.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

TEST(BgActivity, AttachesTasksPerCatalogParams) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");  // main_thread_active, gc, service.
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  size_t tasks = 0;
  for (Process* p : app->processes()) {
    tasks += p->tasks().size();
  }
  // ui + render + gc + main-bg + svc-worker.
  EXPECT_EQ(tasks, 5u);
}

TEST(BgActivity, InactiveMainThreadAppsHaveFewerTasks) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Netflix");  // main_thread_active = false.
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  size_t tasks = 0;
  for (Process* p : app->processes()) {
    tasks += p->tasks().size();
  }
  // ui + render + gc + svc-worker (no main-bg).
  EXPECT_EQ(tasks, 4u);
}

TEST(BgActivity, DisableGcRemovesGcTask) {
  ExperimentConfig config;
  config.seed = 3;
  config.disable_gc = true;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  App* app = exp.am().FindApp(uid);
  bool has_gc = false;
  for (Process* p : app->processes()) {
    for (Task* t : p->tasks()) {
      if (t->name().find("HeapTaskDaemon") != std::string::npos) {
        has_gc = true;
      }
    }
  }
  EXPECT_FALSE(has_gc);
}

TEST(BgActivity, BackgroundAppKeepsTouchingMemory) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  uint64_t faults_before = exp.engine().stats().Get(stat::kPageFaults);
  exp.engine().RunFor(Sec(30));
  // GC sweeps + sync touches cause activity (first-touch growth at minimum).
  EXPECT_GT(exp.engine().stats().Get(stat::kPageFaults), faults_before);
  App* app = exp.am().FindApp(uid);
  EXPECT_GT(app->cpu_time_us, 0u);
}

TEST(BgActivity, FrozenAppStopsTouching) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  exp.engine().RunFor(Sec(5));
  App* app = exp.am().FindApp(uid);
  exp.freezer().FreezeApp(*app);
  uint64_t cpu_before = app->cpu_time_us;
  exp.engine().RunFor(Sec(30));
  EXPECT_EQ(app->cpu_time_us, cpu_before);
}

TEST(PeriodicTouchBehavior, TouchesSampleBothRegions) {
  Engine engine(3);
  BlockDevice storage(engine, Ufs21Profile());
  MemConfig config;
  config.total_pages = 4000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  MemoryManager mm(engine, config, &storage);
  Scheduler sched(engine, mm, 4);
  AddressSpaceLayout layout;
  layout.native_pages = 1000;
  layout.file_pages = 1000;
  AddressSpace space(1, 1, "app", layout);
  mm.Register(space);

  // A native-heap prefix and a file window, nowhere near either region's
  // edge, so a stray touch past [begin, end) shows up as a present page.
  PeriodicTouchBehavior::Params params;
  params.regions[0] = {&space, 100, 300, 0.55};
  params.regions[1] = {&space, 1200, 1500, 0.45};
  params.region_count = 2;
  params.zipf_s = 0.7;
  params.touches_per_burst = 100;
  params.cpu_per_burst = Ms(1);
  params.period = Ms(100);
  sched.CreateTask("bg", nullptr, 0, std::make_unique<PeriodicTouchBehavior>(params));
  engine.RunFor(Sec(2));

  PageCount in_region[2] = {0, 0};
  for (const PageInfo& p : space.pages()) {
    if (p.state() == PageState::kUntouched) {
      continue;
    }
    int r = 0;
    while (r < 2 && (p.vpn < params.regions[r].begin || p.vpn >= params.regions[r].end)) {
      ++r;
    }
    ASSERT_LT(r, 2) << "vpn " << p.vpn << " lies outside both regions";
    in_region[r] += p.state() == PageState::kPresent ? 1 : 0;
  }
  EXPECT_GT(in_region[0], 0u);
  EXPECT_GT(in_region[1], 0u);
  mm.Release(space);
}

// Restores a PeriodicTouchBehavior's burst progress from a stream holding
// these field values, in its Transfer order.
void RestoreTouchProgress(PeriodicTouchBehavior& behavior, bool started,
                          uint32_t remaining_touches, SimDuration remaining_cpu,
                          bool burst_open) {
  BinaryWriter w;
  w.Bool(started);
  w.U32(remaining_touches);
  w.U64(remaining_cpu);
  w.Bool(burst_open);
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive load(r);
  behavior.Transfer(load);
}

class PeriodicTouchRestore : public ::testing::Test {
 protected:
  PeriodicTouchRestore() : space_(1, 1, "app", Layout()), behavior_(Burst(&space_)) {}

  static AddressSpaceLayout Layout() {
    AddressSpaceLayout layout;
    layout.native_pages = 200;
    return layout;
  }
  static PeriodicTouchBehavior::Params Burst(AddressSpace* space) {
    PeriodicTouchBehavior::Params params;
    params.regions[0] = {space, 0, 200, 1.0};
    params.touches_per_burst = 100;
    params.cpu_per_burst = Ms(1);
    return params;
  }

  AddressSpace space_;
  PeriodicTouchBehavior behavior_;
};

TEST_F(PeriodicTouchRestore, RejectsCountdownAboveItsBurst) {
  EXPECT_THROW(RestoreTouchProgress(behavior_, true, 101, 0, true), std::runtime_error);
  EXPECT_THROW(RestoreTouchProgress(behavior_, true, 0, Ms(1) + 1, true), std::runtime_error);
  EXPECT_NO_THROW(RestoreTouchProgress(behavior_, true, 100, Ms(1), true));
}

TEST_F(PeriodicTouchRestore, RejectsBurstBeforeStart) {
  EXPECT_THROW(RestoreTouchProgress(behavior_, false, 5, 0, true), std::runtime_error);
  EXPECT_THROW(RestoreTouchProgress(behavior_, false, 0, Us(10), false), std::runtime_error);
  EXPECT_THROW(RestoreTouchProgress(behavior_, false, 0, 0, true), std::runtime_error);
  EXPECT_NO_THROW(RestoreTouchProgress(behavior_, false, 0, 0, false));
}

TEST_F(PeriodicTouchRestore, RejectsLeftoversAfterBurstClosed) {
  EXPECT_THROW(RestoreTouchProgress(behavior_, true, 5, 0, false), std::runtime_error);
  EXPECT_THROW(RestoreTouchProgress(behavior_, true, 0, Us(10), false), std::runtime_error);
  EXPECT_NO_THROW(RestoreTouchProgress(behavior_, true, 0, 0, false));
  // The touches are done but the burst's CPU is not: still open.
  EXPECT_NO_THROW(RestoreTouchProgress(behavior_, true, 0, Us(10), true));
}

}  // namespace
}  // namespace ice
