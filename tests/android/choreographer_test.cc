#include "src/android/choreographer.h"

#include <gtest/gtest.h>

#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

AppDescriptor SmallApp() {
  AppDescriptor d;
  d.package = "app";
  d.java_pages = 400;
  d.native_pages = 600;
  d.file_pages = 800;
  d.service_pages = 50;
  d.cold_launch_cpu = Ms(30);
  return d;
}

// Produces frames of a fixed CPU cost.
class FixedFrameSource : public FrameSource {
 public:
  explicit FixedFrameSource(SimDuration cost) : cost_(cost) {}
  std::optional<FrameWork> NextFrame(SimTime) override {
    ++frames_asked;
    FrameWork w;
    w.compute_us = cost_;
    return w;
  }
  int frames_asked = 0;

 private:
  SimDuration cost_;
};

class ChoreographerTest : public ::testing::Test {
 protected:
  ChoreographerTest()
      : storage_(engine_, Ufs21Profile()),
        mm_(engine_, MemConfig{}, &storage_),
        sched_(engine_, mm_, 4),
        freezer_(engine_),
        am_(engine_, sched_, mm_, freezer_),
        chor_(am_) {
    app_ = am_.Install(SmallApp());
    am_.Launch(app_->uid());
    engine_.RunFor(Sec(2));
  }

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
  Scheduler sched_;
  Freezer freezer_;
  ActivityManager am_;
  Choreographer chor_;
  App* app_;
};

TEST_F(ChoreographerTest, FastFramesReach60Fps) {
  FixedFrameSource source(Ms(5));
  chor_.SetSource(&source);
  chor_.Start();
  SimTime begin = engine_.now();
  engine_.RunFor(Sec(5));
  double fps = chor_.stats().AverageFps(begin, engine_.now());
  EXPECT_NEAR(fps, 60.0, 3.0);
  EXPECT_LT(chor_.stats().Ria(), 0.05);
  EXPECT_EQ(chor_.stats().frames_dropped(), 0u);
}

TEST_F(ChoreographerTest, SlowFramesDropVsyncs) {
  FixedFrameSource source(Ms(40));  // Spans ~2.4 vsyncs.
  chor_.SetSource(&source);
  chor_.Start();
  SimTime begin = engine_.now();
  engine_.RunFor(Sec(5));
  double fps = chor_.stats().AverageFps(begin, engine_.now());
  EXPECT_LT(fps, 30.0);
  EXPECT_GT(fps, 14.0);
  EXPECT_GT(chor_.stats().frames_dropped(), 50u);
  EXPECT_GT(chor_.stats().Ria(), 0.9);
}

TEST_F(ChoreographerTest, NoSourceNoFrames) {
  chor_.Start();
  engine_.RunFor(Sec(1));
  EXPECT_EQ(chor_.stats().frames_completed(), 0u);
}

TEST_F(ChoreographerTest, NoForegroundNoFrames) {
  FixedFrameSource source(Ms(5));
  chor_.SetSource(&source);
  chor_.Start();
  am_.MoveForegroundToBackground();
  engine_.RunFor(Sec(1));
  EXPECT_EQ(source.frames_asked, 0);
}

TEST_F(ChoreographerTest, StatsClearable) {
  FixedFrameSource source(Ms(5));
  chor_.SetSource(&source);
  chor_.Start();
  engine_.RunFor(Sec(1));
  EXPECT_GT(chor_.stats().frames_completed(), 0u);
  chor_.stats().Clear();
  EXPECT_EQ(chor_.stats().frames_completed(), 0u);
}

TEST_F(ChoreographerTest, FpsSeriesHasPerSecondGranularity) {
  FixedFrameSource source(Ms(5));
  chor_.SetSource(&source);
  chor_.Start();
  SimTime begin = engine_.now();
  engine_.RunFor(Sec(3));
  auto series = chor_.stats().FpsPerSecond(begin, engine_.now());
  ASSERT_EQ(series.size(), 3u);
  for (double f : series) {
    EXPECT_NEAR(f, 60.0, 4.0);
  }
}

TEST(FrameStats, RiaCountsOnlyLateCompleted) {
  FrameStats stats;
  stats.RecordFrame(0, Ms(10));            // On time.
  stats.RecordFrame(Ms(20), Ms(40));       // Late (20 ms).
  stats.RecordDropped();                   // Dropped: not in RIA.
  EXPECT_DOUBLE_EQ(stats.Ria(), 0.5);
  EXPECT_EQ(stats.frames_dropped(), 1u);
}

TEST(FrameStats, AverageFpsWindowed) {
  FrameStats stats;
  for (int i = 0; i < 30; ++i) {
    stats.RecordFrame(i * Ms(33), i * Ms(33) + Ms(10));
  }
  // 30 frames over ~1 s.
  EXPECT_NEAR(stats.AverageFps(0, Sec(1)), 30.0, 1.0);
  // Nothing in a later window.
  EXPECT_DOUBLE_EQ(stats.AverageFps(Sec(10), Sec(11)), 0.0);
}

}  // namespace
}  // namespace ice
