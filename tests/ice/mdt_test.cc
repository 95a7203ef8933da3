// MDT: Eq. 1 freezing intensity and the freeze/thaw heartbeat.
#include "src/ice/mdt.h"

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/ice/daemon.h"

namespace ice {
namespace {

TEST(MdtEquation, RIncreasesWithPressure) {
  // Build a small system and squeeze memory to watch R grow (Eq. 1:
  // R = delta * 2^ceil(Hwm / Sam)).
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  Experiment exp(config);
  IceDaemon* daemon = static_cast<IceDaemon*>(&exp.scheme());
  Mdt& mdt = daemon->mdt();

  double r_idle = mdt.CurrentR();
  // Fill memory with cached apps.
  exp.CacheBackgroundApps(8);
  double r_pressured = mdt.CurrentR();
  EXPECT_GE(r_pressured, r_idle);
  EXPECT_GE(r_idle, daemon->config().delta * 2);  // Exponent >= 1.
}

TEST(MdtEquation, FreezeDurationClamped) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  config.ice.min_freeze = Sec(2);
  config.ice.max_freeze = Sec(30);
  Experiment exp(config);
  IceDaemon* daemon = static_cast<IceDaemon*>(&exp.scheme());
  SimDuration ef = daemon->mdt().CurrentFreezeDuration();
  EXPECT_GE(ef, Sec(2));
  EXPECT_LE(ef, Sec(30));
}

TEST(MdtHeartbeat, FrozenAppsThawPeriodicallyAndRefreeze) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  config.ice.max_freeze = Sec(16);  // Keep the test fast.
  Experiment exp(config);
  IceDaemon* daemon = static_cast<IceDaemon*>(&exp.scheme());

  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  App* app = exp.am().FindApp(uid);
  exp.mm().ReclaimAllOf(exp.am().main_process(uid)->space());
  exp.engine().RunFor(Sec(30));
  ASSERT_TRUE(app->frozen()) << "RPF should have frozen the refaulting app";
  ASSERT_TRUE(daemon->mdt().managing(uid));

  // Over a few epochs the app must be thawed (gets a chance to run) and
  // frozen again.
  uint64_t thaws_before = exp.engine().stats().Get(stat::kThaws);
  exp.engine().RunFor(Sec(60));
  EXPECT_GT(exp.engine().stats().Get(stat::kThaws), thaws_before);
  EXPECT_GT(daemon->mdt().epochs(), 1u);
  // App ran during thaw periods:
  EXPECT_GT(app->cpu_time_us, 0u);
}

TEST(MdtHeartbeat, ForegroundLaunchUnmanages) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  Experiment exp(config);
  IceDaemon* daemon = static_cast<IceDaemon*>(&exp.scheme());

  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  App* app = exp.am().FindApp(uid);
  exp.mm().ReclaimAllOf(exp.am().main_process(uid)->space());
  exp.engine().RunFor(Sec(30));
  ASSERT_TRUE(daemon->mdt().managing(uid));

  // Thaw-on-launch: switching the app to FG thaws it and stops managing it.
  exp.am().Launch(uid);
  EXPECT_FALSE(app->frozen());
  EXPECT_FALSE(daemon->mdt().managing(uid));
  exp.AwaitInteractive(uid);
  // It stays thawed while foreground.
  exp.engine().RunFor(Sec(30));
  EXPECT_FALSE(app->frozen());
}

TEST(MdtHeartbeat, DeathUnmanages) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  Experiment exp(config);
  IceDaemon* daemon = static_cast<IceDaemon*>(&exp.scheme());

  Uid uid = exp.UidOf("Twitter");
  exp.am().Launch(uid);
  exp.AwaitInteractive(uid);
  exp.am().MoveForegroundToBackground();
  App* app = exp.am().FindApp(uid);
  exp.mm().ReclaimAllOf(exp.am().main_process(uid)->space());
  exp.engine().RunFor(Sec(30));
  ASSERT_TRUE(daemon->mdt().managing(uid));
  exp.am().KillApp(*app);
  EXPECT_FALSE(daemon->mdt().managing(uid));
  EXPECT_EQ(daemon->mapping_table().Find(uid), nullptr);
}

// Regression for the unclamped double->int64 cast: an extreme delta makes
// R * E_t overflow int64 range, which is UB when cast before clamping. The
// clamp must happen in double space, landing exactly on max_freeze.
TEST(MdtEquation, ExtremeDeltaClampsToMaxFreezeWithoutOverflow) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  config.ice.delta = 1e18;
  config.ice.min_freeze = Sec(1);
  config.ice.max_freeze = Sec(64);
  Experiment exp(config);
  Mdt& mdt = static_cast<IceDaemon*>(&exp.scheme())->mdt();
  EXPECT_EQ(mdt.CurrentFreezeDuration(), Sec(64));
  // Still exact under memory pressure (bigger exponent).
  exp.CacheBackgroundApps(8);
  EXPECT_EQ(mdt.CurrentFreezeDuration(), Sec(64));
}

TEST(MdtEquation, ZeroDeltaClampsToMinFreeze) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  config.ice.delta = 0.0;
  config.ice.min_freeze = Sec(2);
  Experiment exp(config);
  Mdt& mdt = static_cast<IceDaemon*>(&exp.scheme())->mdt();
  EXPECT_EQ(mdt.CurrentR(), 0.0);
  EXPECT_EQ(mdt.CurrentFreezeDuration(), Sec(2));
}

TEST(MdtEquation, DeltaScalesR) {
  ExperimentConfig a;
  a.seed = 3;
  a.scheme = "ice";
  a.ice.delta = 2.0;
  Experiment exp_a(a);
  double r_small = static_cast<IceDaemon*>(&exp_a.scheme())->mdt().CurrentR();

  ExperimentConfig b;
  b.seed = 3;
  b.scheme = "ice";
  b.ice.delta = 8.0;
  Experiment exp_b(b);
  double r_big = static_cast<IceDaemon*>(&exp_b.scheme())->mdt().CurrentR();
  EXPECT_NEAR(r_big / r_small, 4.0, 0.01);
}

}  // namespace
}  // namespace ice
