// ICE configuration (Table 4 parameters plus implementation knobs).
#ifndef SRC_ICE_CONFIG_H_
#define SRC_ICE_CONFIG_H_

#include "src/base/units.h"

namespace ice {

struct IceConfig {
  // Weight coefficient δ of the MDT strategy (Table 4: 8.0).
  double delta = 8.0;

  // Thaw duration E_t per epoch (Table 4: 1 second).
  SimDuration thaw_duration = Sec(1);

  // Freeze-duration clamp: E_f = clamp(R * E_t, min, max). The clamp keeps
  // Eq. 1 well-behaved when available memory approaches zero.
  SimDuration min_freeze = Sec(1);
  SimDuration max_freeze = Sec(64);

  // High watermark H_wm in MiB for Eq. 1 (Table 4: 256 on Pixel3, 1024 on
  // P20). 0 = the device's DeviceProfile::mdt_hwm_mib, which Experiment
  // fills in; Mdt requires a positive value.
  uint64_t hwm_mib = 0;

  // Whitelist threshold: apps with oom_score_adj <= this are perceptible and
  // never frozen (§4.4; Android sets perceptible apps to 200).
  int whitelist_adj_threshold = 200;

  // Application-grain freezing (§4.2.2). false = freeze only the faulting
  // process (the ablation of the design choice).
  bool application_grain = true;

  // §6.3.1 extension: learn foreground-switch patterns and pre-thaw the
  // likely next apps, hiding the frozen-hot-launch penalty.
  bool enable_prediction = false;
  // How many candidate next apps to pre-thaw.
  int prediction_fanout = 2;
};

}  // namespace ice

#endif  // SRC_ICE_CONFIG_H_
