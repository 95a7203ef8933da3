#include "src/proc/freezer.h"

#include <gtest/gtest.h>

#include "src/proc/behavior.h"
#include "src/proc/process.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"

namespace ice {
namespace {

struct SpinBehavior : Behavior {
  void Run(TaskContext& ctx) override {
    while (ctx.Compute(Us(100))) {
    }
  }
};

class FreezerTest : public ::testing::Test {
 protected:
  FreezerTest()
      : mm_(engine_, MemConfig{}, nullptr),
        sched_(engine_, mm_, 4),
        freezer_(engine_),
        app_(10001, "com.test"),
        main_proc_(100, &app_, "main", Layout()),
        svc_proc_(101, &app_, "svc", Layout()) {
    app_.AddProcess(&main_proc_);
    app_.AddProcess(&svc_proc_);
    t1_ = sched_.CreateTask("t1", &main_proc_, 0, std::make_unique<SpinBehavior>());
    t2_ = sched_.CreateTask("t2", &main_proc_, 0, std::make_unique<SpinBehavior>());
    t3_ = sched_.CreateTask("t3", &svc_proc_, 0, std::make_unique<SpinBehavior>());
  }

  static AddressSpaceLayout Layout() {
    AddressSpaceLayout layout;
    layout.native_pages = 16;
    return layout;
  }

  Engine engine_{1};
  MemoryManager mm_;
  Scheduler sched_;
  Freezer freezer_;
  App app_;
  Process main_proc_;
  Process svc_proc_;
  Task* t1_;
  Task* t2_;
  Task* t3_;
};

TEST_F(FreezerTest, FreezesEveryTaskOfEveryProcess) {
  freezer_.FreezeApp(app_);
  EXPECT_TRUE(app_.frozen());
  EXPECT_TRUE(t1_->frozen());
  EXPECT_TRUE(t2_->frozen());
  EXPECT_TRUE(t3_->frozen());
  EXPECT_EQ(engine_.stats().Get(stat::kFreezes), 1u);
}

TEST_F(FreezerTest, FrozenAppConsumesNoCpu) {
  engine_.RunFor(Ms(5));
  uint64_t cpu_before = app_.cpu_time_us;
  EXPECT_GT(cpu_before, 0u);
  freezer_.FreezeApp(app_);
  engine_.RunFor(Ms(20));
  EXPECT_EQ(app_.cpu_time_us, cpu_before);
}

TEST_F(FreezerTest, ThawRestoresExecution) {
  freezer_.FreezeApp(app_);
  freezer_.ThawApp(app_);
  EXPECT_FALSE(app_.frozen());
  EXPECT_EQ(engine_.stats().Get(stat::kThaws), 1u);
  engine_.RunFor(Ms(5));
  EXPECT_GT(app_.cpu_time_us, 0u);
}

TEST_F(FreezerTest, FreezeIsIdempotent) {
  freezer_.FreezeApp(app_);
  freezer_.FreezeApp(app_);
  EXPECT_EQ(engine_.stats().Get(stat::kFreezes), 1u);
  freezer_.ThawApp(app_);
  freezer_.ThawApp(app_);
  EXPECT_EQ(engine_.stats().Get(stat::kThaws), 1u);
}

TEST_F(FreezerTest, RefreezeAfterThawCounts) {
  freezer_.FreezeApp(app_);
  freezer_.ThawApp(app_);
  freezer_.FreezeApp(app_);
  EXPECT_EQ(engine_.stats().Get(stat::kFreezes), 2u);
  EXPECT_TRUE(app_.frozen());
}

}  // namespace
}  // namespace ice
