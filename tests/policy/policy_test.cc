// Baseline policy behaviors: UCSG renicing, the nice +19 strawman, Acclaim's
// FAE, the power manager's power-oriented freezing, and the scheme table.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "src/harness/experiment.h"
#include "src/policy/ucsg.h"
#include "src/proc/task.h"

namespace ice {
namespace {

TEST(SchemeTable, BuildsEverySchemeByName) {
  const std::vector<std::pair<std::string, std::string>> kSchemes = {
      {"lru_cfs", "LRU+CFS"}, {"ucsg", "UCSG"}, {"acclaim", "Acclaim"},
      {"power", "PowerMgr"}, {"ice", "Ice"}, {"nice19", "Nice+19"}};
  std::vector<std::string> names;
  for (const auto& [name, display_name] : kSchemes) {
    names.push_back(name);
    ExperimentConfig config;
    config.seed = 3;
    config.scheme = name;
    Experiment exp(config);
    EXPECT_EQ(exp.scheme().name(), display_name) << name;
  }
  EXPECT_EQ(SchemeNames(), names);
  EXPECT_EQ(MakeScheme("nope", IceConfig{}), nullptr);
}

TEST(SchemeTable, UnknownNamesFailExperimentConstruction) {
  ExperimentConfig scheme;
  scheme.scheme = "nope";
  EXPECT_THROW(Experiment{scheme}, std::invalid_argument);
  ExperimentConfig aging;
  aging.aging = "lru_k";
  EXPECT_THROW(Experiment{aging}, std::invalid_argument);
  ExperimentConfig swap;
  swap.swap = "zswap";
  EXPECT_THROW(Experiment{swap}, std::invalid_argument);
}

TEST(MaxDeprioritize, BackgroundTasksAtNice19) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "nice19";
  Experiment exp(config);
  Uid a = exp.UidOf("Twitter");
  Uid b = exp.UidOf("Amazon");
  exp.am().Launch(a);
  exp.AwaitInteractive(a);
  exp.am().Launch(b);
  exp.AwaitInteractive(b);
  for (auto [uid, nice] : {std::pair{b, -10}, std::pair{a, 19}}) {
    for (Process* p : exp.am().FindApp(uid)->processes()) {
      for (Task* t : p->tasks()) {
        EXPECT_EQ(t->nice(), nice);
      }
    }
  }
}

TEST(Ucsg, ForegroundTasksBoostedBackgroundDemoted) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ucsg";
  Experiment exp(config);
  Uid a = exp.UidOf("Twitter");
  Uid b = exp.UidOf("Amazon");
  exp.am().Launch(a);
  exp.AwaitInteractive(a);
  exp.am().Launch(b);
  exp.AwaitInteractive(b);

  App* fg = exp.am().FindApp(b);
  App* bg = exp.am().FindApp(a);
  for (Process* p : fg->processes()) {
    for (Task* t : p->tasks()) {
      EXPECT_EQ(t->nice(), UcsgScheme::kForegroundNice);
    }
  }
  for (Process* p : bg->processes()) {
    for (Task* t : p->tasks()) {
      EXPECT_EQ(t->nice(), UcsgScheme::kBackgroundNice);
    }
  }
}

TEST(Ucsg, SwitchingRestoresBoost) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ucsg";
  Experiment exp(config);
  Uid a = exp.UidOf("Twitter");
  Uid b = exp.UidOf("Amazon");
  exp.am().Launch(a);
  exp.AwaitInteractive(a);
  exp.am().Launch(b);
  exp.AwaitInteractive(b);
  exp.am().Launch(a);  // Back to a.
  App* app_a = exp.am().FindApp(a);
  for (Process* p : app_a->processes()) {
    for (Task* t : p->tasks()) {
      EXPECT_EQ(t->nice(), UcsgScheme::kForegroundNice);
    }
  }
}

TEST(Acclaim, ForegroundPagesNeverEvicted) {
  ExperimentConfig config;
  config.seed = 5;
  config.scheme = "acclaim";
  Experiment exp(config);
  Uid fg = exp.UidOf("TikTok");
  exp.CacheBackgroundApps(8, {fg});
  ScenarioResult r = exp.RunScenario(ScenarioKind::kShortVideo, Sec(20), Sec(120));
  EXPECT_EQ(r.refaults_fg, 0u) << "FAE must protect foreground pages";
  AddressSpace* space = exp.am().main_space(fg);
  EXPECT_EQ(space->total_evictions, 0u);
}

TEST(Acclaim, BaselineDoesEvictForeground) {
  ExperimentConfig config;
  config.seed = 5;
  config.scheme = "lru_cfs";
  Experiment exp(config);
  Uid fg = exp.UidOf("TikTok");
  exp.CacheBackgroundApps(8, {fg});
  exp.RunScenario(ScenarioKind::kShortVideo, Sec(20), Sec(120));
  AddressSpace* space = exp.am().main_space(fg);
  EXPECT_GT(space->total_evictions, 0u)
      << "under stock LRU the foreground app gets proportional pressure";
}

TEST(PowerManager, FreezesCpuHungryBgApps) {
  ExperimentConfig config;
  config.seed = 5;
  config.scheme = "power";
  Experiment exp(config);
  Uid fg = exp.UidOf("TikTok");
  exp.CacheBackgroundApps(6, {fg});
  exp.am().Launch(fg);
  exp.AwaitInteractive(fg);
  exp.engine().RunFor(Sec(90));
  EXPECT_GT(exp.engine().stats().Get(stat::kFreezes), 0u);
  // Fixed-duration freezing: thaws happen too.
  exp.engine().RunFor(Sec(60));
  EXPECT_GT(exp.engine().stats().Get(stat::kThaws), 0u);
}

TEST(PowerManager, NeverFreezesForegroundOrPerceptible) {
  ExperimentConfig config;
  config.seed = 5;
  config.scheme = "power";
  Experiment exp(config);
  Uid fg = exp.UidOf("TikTok");
  Uid music = exp.UidOf("Skype");  // Perceptible in BG.
  exp.am().Launch(music);
  exp.AwaitInteractive(music);
  exp.CacheBackgroundApps(5, {fg, music});
  exp.am().Launch(fg);
  exp.AwaitInteractive(fg);
  exp.engine().RunFor(Sec(120));
  EXPECT_FALSE(exp.am().FindApp(fg)->frozen());
  EXPECT_FALSE(exp.am().FindApp(music)->frozen());
}

}  // namespace
}  // namespace ice
