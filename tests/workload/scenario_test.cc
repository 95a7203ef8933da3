#include "src/workload/scenario.h"

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "tests/mem/vpn_runs.h"

namespace ice {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest() {
    ExperimentConfig config;
    config.seed = 3;
    exp_ = std::make_unique<Experiment>(config);
  }

  std::unique_ptr<Experiment> exp_;
};

TEST_F(ScenarioTest, NamesAndLabels) {
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kVideoCall), "S-A");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kShortVideo), "S-B");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kScrolling), "S-C");
  EXPECT_STREQ(ScenarioLabel(ScenarioKind::kGame), "S-D");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kVideoCall), "WhatsApp");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kShortVideo), "TikTok");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kScrolling), "Facebook");
  EXPECT_STREQ(ScenarioPackage(ScenarioKind::kGame), "PUBGMobile");
}

TEST_F(ScenarioTest, ProducesFramesWithWork) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  auto frame = scenario.NextFrame(exp_->engine().now());
  ASSERT_TRUE(frame.has_value());
  EXPECT_GT(frame->compute_us, Ms(1));
  EXPECT_GT(ExpandRuns(frame->runs).size(), 100u);
  EXPECT_EQ(frame->space, exp_->am().main_space(uid));
}

TEST_F(ScenarioTest, TouchesStayInBounds) {
  Uid uid = exp_->UidOf("PUBGMobile");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kGame, Rng(7));
  AddressSpace* space = exp_->am().main_space(uid);
  for (int i = 0; i < 300; ++i) {
    auto frame = scenario.NextFrame(exp_->engine().now() + i * kVsyncPeriod);
    ASSERT_TRUE(frame.has_value());
    for (uint32_t vpn : ExpandRuns(frame->runs)) {
      ASSERT_LT(vpn, space->total_pages());
    }
  }
}

TEST_F(ScenarioTest, GameRoundsAllocateInWaves) {
  Uid uid = exp_->UidOf("PUBGMobile");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kGame, Rng(7));
  ScenarioParams params = ParamsFor(ScenarioKind::kGame);
  ASSERT_GT(params.round_period, 0u);
  // Count vpns per frame across a simulated round boundary.
  SimTime t0 = exp_->engine().now();
  size_t baseline = ExpandRuns(scenario.NextFrame(t0)->runs).size();
  size_t at_round =
      ExpandRuns(scenario.NextFrame(t0 + params.round_period + kVsyncPeriod)->runs).size();
  EXPECT_GT(at_round, baseline + 300);
}

TEST_F(ScenarioTest, ShortVideoBurstsAddColdPages) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  ScenarioParams params = ParamsFor(ScenarioKind::kShortVideo);
  SimTime t0 = exp_->engine().now();
  size_t normal = ExpandRuns(scenario.NextFrame(t0)->runs).size();
  size_t burst =
      ExpandRuns(scenario.NextFrame(t0 + params.burst_period + kVsyncPeriod)->runs).size();
  EXPECT_GT(burst, normal);
}

TEST_F(ScenarioTest, DeadAppYieldsNoFrames) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  App* app = exp_->am().FindApp(uid);
  exp_->am().KillApp(*app);
  EXPECT_FALSE(scenario.NextFrame(exp_->engine().now()).has_value());
}

TEST_F(ScenarioTest, RelaunchKeepsHotSpansValid) {
  Uid uid = exp_->UidOf("TikTok");
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  Scenario scenario(exp_->am(), uid, ScenarioKind::kShortVideo, Rng(7));
  ASSERT_TRUE(scenario.NextFrame(exp_->engine().now()).has_value());

  exp_->am().KillApp(*exp_->am().FindApp(uid));
  exp_->am().Launch(uid);
  exp_->AwaitInteractive(uid);
  ASSERT_TRUE(exp_->am().interactive(uid));
  // Let the rest of the cold launch (the post-interactive tail) populate the
  // launched prefixes of the new space.
  while (exp_->am().main_thread(uid)->pending() > 0) {
    exp_->engine().RunFor(Ms(50));
  }

  AddressSpace* space = exp_->am().main_space(uid);
  const uint32_t hot_touches = ParamsFor(ScenarioKind::kShortVideo).frame_touches;
  for (int i = 1; i <= 200; ++i) {
    auto frame = scenario.NextFrame(exp_->engine().now() + i * kVsyncPeriod);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->space, space);
    const std::vector<uint32_t> vpns = ExpandRuns(frame->runs);
    for (size_t t = 0; t < vpns.size(); ++t) {
      uint32_t vpn = vpns[t];
      ASSERT_LT(vpn, space->total_pages());
      // The hot touches lead the frame; each must revisit a page the
      // relaunch populated, never one beyond the launched prefixes.
      if (t < hot_touches) {
        ASSERT_NE(space->page(vpn).state(), PageState::kUntouched)
            << "frame " << i << " hot vpn " << vpn << " outside the launched prefixes";
      }
    }
  }
}

TEST_F(ScenarioTest, AllScenariosHaveDistinctParams) {
  ScenarioParams a = ParamsFor(ScenarioKind::kVideoCall);
  ScenarioParams d = ParamsFor(ScenarioKind::kGame);
  EXPECT_NE(a.frame_touches, d.frame_touches);
  EXPECT_EQ(d.round_alloc_pages, BytesToPages(110 * kMiB));  // §6.2.1: 100 MB+.
  EXPECT_EQ(a.round_period, 0u);
}

}  // namespace
}  // namespace ice
