#include "src/workload/usage_trace.h"

#include <algorithm>
#include <memory>

#include "src/base/log.h"
#include "src/workload/scenario.h"

namespace ice {

UsageTraceRunner::UsageTraceRunner(ActivityManager& am, Choreographer& choreographer,
                                   std::vector<InstalledApp> apps, Rng rng,
                                   const Config& config)
    : am_(am),
      choreographer_(choreographer),
      apps_(std::move(apps)),
      app_zipf_(apps_.size(), 0.9),
      rng_(rng),
      config_(config) {
  ICE_CHECK(!apps_.empty());
}

ScenarioKind UsageTraceRunner::KindFor(AppCategory category) {
  switch (category) {
    case AppCategory::kSocial:
      return ScenarioKind::kScrolling;
    case AppCategory::kMultiMedia:
      return ScenarioKind::kShortVideo;
    case AppCategory::kGame:
      return ScenarioKind::kGame;
    case AppCategory::kECommerce:
      return ScenarioKind::kScrolling;
    case AppCategory::kUtility:
      return ScenarioKind::kVideoCall;
  }
  return ScenarioKind::kScrolling;
}

void UsageTraceRunner::TakeSample() {
  StatsRegistry& st = am_.engine().stats();
  UsageSample s;
  s.time = am_.engine().now();
  s.cum_evicted = st.Get(stat::kPagesReclaimed);
  s.cum_refaulted = st.Get(stat::kRefaults);
  s.cum_refault_bg = st.Get(stat::kRefaultsBg);
  samples_.push_back(s);
}

void UsageTraceRunner::RunOneSession() {
  Engine& engine = am_.engine();
  // Zipf-popular app choice: a few favorites dominate.
  size_t idx = static_cast<size_t>(app_zipf_.Sample(rng_));
  const InstalledApp& chosen = apps_[idx];

  am_.Launch(chosen.uid);
  Scenario scenario(am_, chosen.uid, KindFor(chosen.category), rng_.Fork());
  choreographer_.SetSource(&scenario);
  choreographer_.Start();

  SimDuration duration = static_cast<SimDuration>(
      std::max(2.0 * kSecond,
               rng_.LogNormal(static_cast<double>(config_.session_mean),
                              config_.session_sigma)));
  SimTime deadline = engine.now() + duration;
  while (engine.now() < deadline) {
    SimTime next = std::min(deadline, next_sample_);
    engine.RunUntil(next);
    if (engine.now() >= next_sample_) {
      TakeSample();
      next_sample_ += config_.sample_interval;
    }
  }
  choreographer_.SetSource(nullptr);
}

void UsageTraceRunner::Run() {
  StatsRegistry& st = am_.engine().stats();
  next_sample_ = am_.engine().now() + config_.sample_interval;
  TakeSample();
  for (int day = 0; day < config_.days; ++day) {
    auto before = st.Snapshot();
    for (int s = 0; s < config_.sessions_per_day; ++s) {
      RunOneSession();
    }
    auto delta = StatsRegistry::Diff(before, st.Snapshot());
    UsageDayStats stats;
    stats.evicted = delta[stat::kPagesReclaimed];
    stats.refaulted = delta[stat::kRefaults];
    stats.refault_bg = delta[stat::kRefaultsBg];
    stats.refault_fg = delta[stat::kRefaultsFg];
    day_stats_.push_back(stats);
  }
}

}  // namespace ice
