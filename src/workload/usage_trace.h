// Daily-usage trace generator for the §3.1 user study (Figure 3): volunteers
// use their phones normally for a month while instrumentation counts evicted
// and refaulted pages.
//
// A simulated "day" is a compressed sequence of foreground sessions: the
// user launches an app (popularity is Zipf over the installed set), interacts
// with it for a while, then switches away. Page eviction/refault statistics
// are snapshotted per day and cumulatively every sample interval.
#ifndef SRC_WORKLOAD_USAGE_TRACE_H_
#define SRC_WORKLOAD_USAGE_TRACE_H_

#include <vector>

#include "src/android/activity_manager.h"
#include "src/android/choreographer.h"
#include "src/base/rng.h"
#include "src/workload/app_catalog.h"
#include "src/workload/scenario.h"

namespace ice {

struct UsageDayStats {
  uint64_t evicted = 0;
  uint64_t refaulted = 0;
  uint64_t refault_bg = 0;
  uint64_t refault_fg = 0;
};

struct UsageSample {
  SimTime time = 0;
  uint64_t cum_evicted = 0;
  uint64_t cum_refaulted = 0;
  uint64_t cum_refault_bg = 0;
};

class UsageTraceRunner {
 public:
  struct Config {
    int days = 2;
    int sessions_per_day = 20;
    SimDuration session_mean = Sec(12);
    double session_sigma = 0.5;
    SimDuration sample_interval = Sec(30);
  };

  struct InstalledApp {
    Uid uid = kInvalidUid;
    AppCategory category = AppCategory::kUtility;
  };

  UsageTraceRunner(ActivityManager& am, Choreographer& choreographer,
                   std::vector<InstalledApp> apps, Rng rng, const Config& config);

  // Drives the engine through the configured days.
  void Run();

  const std::vector<UsageDayStats>& day_stats() const { return day_stats_; }
  const std::vector<UsageSample>& samples() const { return samples_; }

 private:
  void RunOneSession();
  void TakeSample();
  ScenarioKind KindFor(AppCategory category);

  ActivityManager& am_;
  Choreographer& choreographer_;
  std::vector<InstalledApp> apps_;
  ZipfDist app_zipf_;  // Popularity rank over apps_.
  Rng rng_;
  Config config_;

  std::vector<UsageDayStats> day_stats_;
  std::vector<UsageSample> samples_;
  SimTime next_sample_ = 0;
};

}  // namespace ice

#endif  // SRC_WORKLOAD_USAGE_TRACE_H_
