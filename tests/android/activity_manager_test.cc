#include "src/android/activity_manager.h"

#include <gtest/gtest.h>

#include "src/android/device_profile.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"
#include "tests/mem/vpn_runs.h"

namespace ice {
namespace {

AppDescriptor SmallApp(const std::string& package, bool perceptible = false) {
  AppDescriptor d;
  d.package = package;
  d.java_pages = 400;
  d.native_pages = 600;
  d.file_pages = 800;
  d.service_pages = 100;
  d.cold_launch_cpu = Ms(50);
  d.hot_launch_cpu = Ms(5);
  d.perceptible_in_bg = perceptible;
  return d;
}

class AmTest : public ::testing::Test {
 protected:
  AmTest()
      : storage_(engine_, Ufs21Profile()),
        mm_(engine_, MemConfig{}, &storage_),
        sched_(engine_, mm_, 4),
        freezer_(engine_),
        am_(engine_, sched_, mm_, freezer_) {}

  App* InstallAndLaunch(const std::string& package) {
    App* app = am_.Install(SmallApp(package));
    am_.Launch(app->uid());
    engine_.RunFor(Sec(2));
    return app;
  }

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
  Scheduler sched_;
  Freezer freezer_;
  ActivityManager am_;
};

TEST_F(AmTest, InstallAssignsUids) {
  App* a = am_.Install(SmallApp("a"));
  App* b = am_.Install(SmallApp("b"));
  EXPECT_NE(a->uid(), b->uid());
  EXPECT_GE(a->uid(), 10000);
  EXPECT_EQ(am_.FindApp(a->uid()), a);
  EXPECT_EQ(am_.FindApp(999999), nullptr);
  EXPECT_FALSE(a->running());
}

TEST_F(AmTest, ColdLaunchCreatesProcessesAndBecomesInteractive) {
  App* app = InstallAndLaunch("a");
  EXPECT_TRUE(app->running());
  EXPECT_EQ(app->processes().size(), 2u);  // Main + service.
  EXPECT_EQ(app->state(), AppState::kForeground);
  EXPECT_EQ(app->oom_adj(), kAdjForeground);
  EXPECT_EQ(am_.foreground_app(), app);
  EXPECT_TRUE(am_.interactive(app->uid()));
  EXPECT_EQ(mm_.foreground_uid(), app->uid());

  ASSERT_EQ(am_.launches().size(), 1u);
  const LaunchRecord& r = am_.launches()[0];
  EXPECT_TRUE(r.cold);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.latency, Ms(10));
  EXPECT_EQ(engine_.stats().Get(stat::kColdLaunches), 1u);
}

TEST_F(AmTest, ColdLaunchPopulatesResidency) {
  App* app = InstallAndLaunch("a");
  AddressSpace* space = am_.main_space(app->uid());
  ASSERT_NE(space, nullptr);
  EXPECT_GT(space->resident(), 500u);  // Prefixes touched.
}

// The pages a launch touches, one vpn per touch: the file, java and native
// prefixes of `space`, in that order.
std::vector<uint32_t> LaunchPrefixes(const AddressSpace& space, const AppDescriptor& d,
                                     bool cold) {
  double file_fraction = cold ? d.cold_touch_fraction : d.hot_touch_fraction;
  double anon_fraction = cold ? d.cold_touch_fraction * 0.8 : d.hot_touch_fraction;
  const uint32_t begins[] = {space.file_begin(), space.java_begin(), space.native_begin()};
  const uint32_t counts[] = {
      static_cast<uint32_t>((space.file_end() - space.file_begin()) * file_fraction),
      static_cast<uint32_t>((space.java_end() - space.java_begin()) * anon_fraction),
      static_cast<uint32_t>((space.native_end() - space.native_begin()) * anon_fraction)};
  std::vector<uint32_t> vpns;
  for (int r = 0; r < 3; ++r) {
    for (uint32_t vpn = begins[r]; vpn < begins[r] + counts[r]; ++vpn) {
      vpns.push_back(vpn);
    }
  }
  return vpns;
}

void ExpectNoEmptyRun(const WorkItem& item) {
  for (const VpnRun& run : item.runs) {
    EXPECT_GT(run.count, 0u) << "zero-length run at vpn " << run.begin;
  }
}

// A cold launch queues its prefixes as at most three runs, cut at
// floor(total * 2 / 5) pages between the interactive item and the tail.
struct ColdSplit {
  const char* name;
  PageCount java_pages;
  PageCount native_pages;
  PageCount file_pages;
  double cold_touch_fraction;
  size_t head_runs;  // Runs of the interactive item.
  size_t tail_runs;
};

TEST_F(AmTest, ColdLaunchQueuesItsPrefixesAsRunsSplitTwoFifths) {
  const ColdSplit cases[] = {
      // File 440, java 176, native 264 pages: the cut (352) falls inside the
      // file run.
      {"inside-a-run", 400, 600, 800, 0.55, 1, 3},
      // File 400, java 200, native 400: the cut (400) is the file run's end.
      {"on-a-boundary", 500, 1000, 800, 0.5, 1, 2},
      // File 440, java 0 (2 * 0.44 rounds down), native 264: no java run.
      {"empty-java-prefix", 2, 600, 800, 0.55, 1, 2},
  };
  for (const ColdSplit& c : cases) {
    SCOPED_TRACE(c.name);
    AppDescriptor d = SmallApp(c.name);
    d.java_pages = c.java_pages;
    d.native_pages = c.native_pages;
    d.file_pages = c.file_pages;
    d.cold_touch_fraction = c.cold_touch_fraction;
    App* app = am_.Install(d);
    am_.Launch(app->uid());

    const std::deque<WorkItem>& queue = am_.main_thread(app->uid())->queue();
    ASSERT_EQ(queue.size(), 2u);
    std::vector<uint32_t> want = LaunchPrefixes(*am_.main_space(app->uid()), d, /*cold=*/true);
    ASSERT_GT(want.size(), 512u);
    const size_t split = want.size() * 2 / 5;
    EXPECT_EQ(ExpandRuns(queue[0].runs),
              std::vector<uint32_t>(want.begin(), want.begin() + static_cast<ptrdiff_t>(split)));
    EXPECT_EQ(ExpandRuns(queue[1].runs),
              std::vector<uint32_t>(want.begin() + static_cast<ptrdiff_t>(split), want.end()));
    EXPECT_EQ(queue[0].runs.size(), c.head_runs);
    EXPECT_EQ(queue[1].runs.size(), c.tail_runs);
    ExpectNoEmptyRun(queue[0]);
    ExpectNoEmptyRun(queue[1]);
    engine_.RunFor(Sec(2));
    EXPECT_TRUE(am_.interactive(app->uid()));
    EXPECT_EQ(am_.main_thread(app->uid())->pending(), 0u);
  }
}

TEST_F(AmTest, HotLaunchQueuesOneItem) {
  App* app = InstallAndLaunch("a");
  ASSERT_EQ(am_.main_thread(app->uid())->pending(), 0u);
  am_.MoveForegroundToBackground();
  am_.Launch(app->uid());
  ASSERT_FALSE(am_.launches().back().cold);

  const std::deque<WorkItem>& queue = am_.main_thread(app->uid())->queue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(ExpandRuns(queue[0].runs),
            LaunchPrefixes(*am_.main_space(app->uid()), am_.descriptor(app->uid()),
                           /*cold=*/false));
  EXPECT_EQ(queue[0].runs.size(), 3u);
  ExpectNoEmptyRun(queue[0]);
}

TEST_F(AmTest, SecondLaunchIsHotAndFaster) {
  App* app = InstallAndLaunch("a");
  InstallAndLaunch("b");
  EXPECT_EQ(app->state(), AppState::kCached);

  am_.Launch(app->uid());
  engine_.RunFor(Sec(2));
  ASSERT_EQ(am_.launches().size(), 3u);
  const LaunchRecord& cold = am_.launches()[0];
  const LaunchRecord& hot = am_.launches()[2];
  EXPECT_FALSE(hot.cold);
  EXPECT_TRUE(hot.completed);
  EXPECT_LT(hot.latency, cold.latency);
  EXPECT_EQ(engine_.stats().Get(stat::kHotLaunches), 1u);
}

TEST_F(AmTest, ForegroundSwitchDemotesPrevious) {
  App* a = InstallAndLaunch("a");
  App* b = InstallAndLaunch("b");
  EXPECT_EQ(am_.foreground_app(), b);
  EXPECT_EQ(a->state(), AppState::kCached);
  EXPECT_GE(a->oom_adj(), kAdjCachedBase);
  EXPECT_EQ(mm_.foreground_uid(), b->uid());
}

TEST_F(AmTest, PerceptibleAppsGetAdj200) {
  App* music = am_.Install(SmallApp("music", /*perceptible=*/true));
  am_.Launch(music->uid());
  engine_.RunFor(Sec(2));
  InstallAndLaunch("other");
  EXPECT_EQ(music->state(), AppState::kPerceptible);
  EXPECT_EQ(music->oom_adj(), kAdjPerceptible);
}

TEST_F(AmTest, CachedAdjOrderedByStaleness) {
  App* a = InstallAndLaunch("a");
  App* b = InstallAndLaunch("b");
  App* c = InstallAndLaunch("c");
  EXPECT_EQ(c->state(), AppState::kForeground);
  // a was foregrounded before b: staler => higher adj.
  EXPECT_GT(a->oom_adj(), b->oom_adj());
  EXPECT_GE(b->oom_adj(), kAdjCachedBase);
}

TEST_F(AmTest, KillAppReleasesEverything) {
  App* a = InstallAndLaunch("a");
  InstallAndLaunch("b");
  int64_t free_before = mm_.free_pages();
  am_.KillApp(*a);
  EXPECT_FALSE(a->running());
  EXPECT_EQ(a->state(), AppState::kNotRunning);
  EXPECT_GT(mm_.free_pages(), free_before);
  EXPECT_EQ(am_.main_space(a->uid()), nullptr);
  EXPECT_EQ(am_.main_thread(a->uid()), nullptr);
}

TEST_F(AmTest, KillOneCachedPicksStalest) {
  App* a = InstallAndLaunch("a");
  App* b = InstallAndLaunch("b");
  InstallAndLaunch("c");
  EXPECT_TRUE(am_.KillOneCached());
  EXPECT_FALSE(a->running());  // Stalest cached app died.
  EXPECT_TRUE(b->running());
}

TEST_F(AmTest, KillOneCachedSkipsForegroundAndPerceptible) {
  App* music = am_.Install(SmallApp("music", true));
  am_.Launch(music->uid());
  engine_.RunFor(Sec(2));
  App* fg = InstallAndLaunch("fg");
  EXPECT_FALSE(am_.KillOneCached());  // Only FG + perceptible alive.
  EXPECT_TRUE(music->running());
  EXPECT_TRUE(fg->running());
}

TEST_F(AmTest, RelaunchAfterKillIsCold) {
  App* a = InstallAndLaunch("a");
  am_.KillApp(*a);
  am_.Launch(a->uid());
  engine_.RunFor(Sec(2));
  ASSERT_EQ(am_.launches().size(), 2u);
  EXPECT_TRUE(am_.launches()[1].cold);
  EXPECT_TRUE(a->running());
}

TEST_F(AmTest, LaunchThawsFrozenApp) {
  App* a = InstallAndLaunch("a");
  InstallAndLaunch("b");
  freezer_.FreezeApp(*a);
  ASSERT_TRUE(a->frozen());
  am_.Launch(a->uid());
  EXPECT_FALSE(a->frozen());  // Thaw-on-launch happens before display.
  engine_.RunFor(Sec(2));
  EXPECT_TRUE(am_.interactive(a->uid()));
}

TEST_F(AmTest, StateListenersFire) {
  std::vector<std::pair<Uid, AppState>> transitions;
  am_.AddStateListener([&](App& app, AppState old_state) {
    transitions.emplace_back(app.uid(), old_state);
  });
  App* a = InstallAndLaunch("a");
  EXPECT_FALSE(transitions.empty());
  EXPECT_EQ(transitions[0].first, a->uid());
  EXPECT_EQ(transitions[0].second, AppState::kNotRunning);
}

TEST_F(AmTest, DeathListenersFire) {
  Uid died = kInvalidUid;
  am_.AddDeathListener([&](App& app) { died = app.uid(); });
  App* a = InstallAndLaunch("a");
  InstallAndLaunch("b");
  am_.KillApp(*a);
  EXPECT_EQ(died, a->uid());
}

TEST_F(AmTest, LaunchCallbackReceivesRecord) {
  App* a = am_.Install(SmallApp("a"));
  LaunchRecord seen;
  am_.Launch(a->uid(), [&](const LaunchRecord& r) { seen = r; });
  engine_.RunFor(Sec(2));
  EXPECT_TRUE(seen.completed);
  EXPECT_EQ(seen.uid, a->uid());
  EXPECT_TRUE(seen.cold);
}

}  // namespace
}  // namespace ice
