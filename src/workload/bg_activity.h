// Background activity models: the §3.2 sources of BG refaults.
//
// Each running app gets up to three background tasks:
//  * a GC task sweeping the Java heap (ART's HeapTaskDaemon);
//  * a main-thread sync task touching native heap + file pages (the 58 % of
//    apps observed running their main thread in the background);
//  * a service-process task (push/location tracking), smaller but frequent.
// Touches are Zipf-skewed toward each region's launched prefix, so the hot
// working set is revisited often — exactly the pages reclaim just evicted
// under pressure, which is what makes BG refaults endemic.
#ifndef SRC_WORKLOAD_BG_ACTIVITY_H_
#define SRC_WORKLOAD_BG_ACTIVITY_H_

#include "src/android/activity_manager.h"
#include "src/base/rng.h"
#include "src/proc/behavior.h"
#include "src/workload/app_catalog.h"

namespace ice {

// Periodic burst of page touches Zipf-distributed over one or two regions,
// plus CPU work. The workhorse for all BG activity.
class PeriodicTouchBehavior : public Behavior {
 public:
  struct Region {
    AddressSpace* space = nullptr;
    uint32_t begin = 0;
    uint32_t end = 0;
    double weight = 1.0;  // Probability mass of this region.
  };
  struct Params {
    Region regions[2];
    int region_count = 1;
    double zipf_s = 0.9;  // Skew toward the region start (hot prefix).
    uint32_t touches_per_burst = 100;
    SimDuration cpu_per_burst = Ms(10);
    SimDuration period = Sec(5);
    double jitter = 0.3;
  };

  // `region_count` is 1 or 2, and each of those regions spans at least one
  // page.
  explicit PeriodicTouchBehavior(const Params& params);

  void Run(TaskContext& ctx) override;

  // Burst progress is plain counters (no closures), so a mid-burst task can
  // be snapshotted; the params are structural (rebuilt by the bg-task
  // factory during lifecycle replay).
  void Transfer(SnapshotArchive& ar) override;

 private:
  struct Sample {
    AddressSpace* space;
    uint32_t vpn;
  };
  Sample SampleVpn(Rng& rng);

  Params params_;
  // One rank sampler per region, over its span at params_.zipf_s.
  ZipfDist zipf_[2];
  bool started_ = false;
  uint32_t remaining_touches_ = 0;
  SimDuration remaining_cpu_ = 0;
  bool burst_open_ = false;
};

// Instantiates the standard background tasks for `app` according to its
// catalog parameters. Intended for use as the ActivityManager's bg-task
// factory. `disable_gc` models the §3.2 "idle runtime GC off" experiment.
void AttachBgActivity(ActivityManager& am, App& app, const BgActivityParams& params,
                      bool disable_gc = false);

}  // namespace ice

#endif  // SRC_WORKLOAD_BG_ACTIVITY_H_
