#include "src/android/system_services.h"

#include <memory>
#include <string>

#include "src/proc/behavior.h"

namespace ice {

SystemServices::SystemServices(Scheduler& scheduler, MemoryManager& mm,
                               const SystemServicesConfig& config) {
  // kswapd: woken by the memory manager, reclaims to the high watermark.
  kswapd_ = scheduler.CreateTask("kswapd0", /*process=*/nullptr, /*nice=*/0,
                                 std::make_unique<KswapdBehavior>());
  Task* kswapd = kswapd_;
  mm.set_kswapd_waker([kswapd]() { kswapd->Wake(); });

  static const char* kNames[] = {
      "system_server", "surfaceflinger", "binder", "kworker", "netd",
      "audioserver",   "wifi",           "sensors", "logd",   "gms.core",
      "media.codec",   "vold",           "hwcomposer", "statsd",
      "cameraserver",  "installd",
  };
  for (int i = 0; i < config.service_tasks; ++i) {
    PeriodicLoadBehavior::Params params;
    params.period = config.period;
    params.compute_us =
        static_cast<SimDuration>(static_cast<double>(config.period) * config.duty);
    params.jitter = config.jitter;
    std::string name = kNames[i % (sizeof(kNames) / sizeof(kNames[0]))];
    tasks_.push_back(scheduler.CreateTask(name, /*process=*/nullptr, /*nice=*/0,
                                          std::make_unique<PeriodicLoadBehavior>(params)));
  }
}

}  // namespace ice
