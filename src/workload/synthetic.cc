#include "src/workload/synthetic.h"

#include <algorithm>
#include <memory>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/task.h"

namespace ice {

void FillOnceBehavior::Transfer(SnapshotArchive& ar) { ar.U32(cursor_); }

void FillOnceBehavior::Run(TaskContext& ctx) {
  while (!ctx.ShouldStop()) {
    if (cursor_ >= end_) {
      ctx.SleepUntilWoken();
      return;
    }
    ctx.Touch(*space_, cursor_++, /*write=*/true);
  }
}

Uid InstallMemtester(ActivityManager& am, uint64_t bytes) {
  AppDescriptor d;
  d.package = "memtester";
  d.java_pages = 0;
  d.native_pages = BytesToPages(bytes);
  d.file_pages = BytesToPages(2 * kMiB);  // The binary itself.
  d.service_pages = 0;
  d.cold_launch_cpu = Ms(30);
  d.cold_touch_fraction = 0.0;  // Filling happens via FillOnceBehavior below.
  d.hot_launch_cpu = Ms(10);
  d.hot_touch_fraction = 0.0;
  App* app = am.Install(d);
  am.Launch(app->uid());

  AddressSpace* space = am.main_space(app->uid());
  ICE_CHECK(space != nullptr);
  am.CreateAppTask(*app, "fill", /*nice=*/5,
                   std::make_unique<FillOnceBehavior>(space, space->native_begin(),
                                                      space->native_end()));
  return app->uid();
}

Uid InstallCputester(ActivityManager& am, double cpu_fraction, int num_cores) {
  AppDescriptor d;
  d.package = "cputester";
  d.java_pages = 0;
  d.native_pages = BytesToPages(4 * kMiB);
  d.file_pages = BytesToPages(2 * kMiB);
  d.service_pages = 0;
  d.cold_launch_cpu = Ms(20);
  d.cold_touch_fraction = 0.5;
  App* app = am.Install(d);
  am.Launch(app->uid());

  // Split the target share across a few spinner tasks so no single task
  // needs more than one core.
  double total_cores = cpu_fraction * num_cores;
  int spinners = std::max(1, static_cast<int>(total_cores / 0.45) + 1);
  double duty = total_cores / spinners;
  for (int i = 0; i < spinners; ++i) {
    PeriodicLoadBehavior::Params params;
    params.period = Ms(10);
    params.compute_us = static_cast<SimDuration>(static_cast<double>(params.period) * duty);
    params.jitter = 0.25;
    am.CreateAppTask(*app, "spin" + std::to_string(i), /*nice=*/0,
                     std::make_unique<PeriodicLoadBehavior>(params));
  }
  return app->uid();
}

}  // namespace ice
