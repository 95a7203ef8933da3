// MDT — Memory-aware Dynamic Thawing (§4.3).
//
// MDT maintains one system-wide heartbeat. Each epoch is a freeze period of
// E_f seconds followed by a thaw period of E_t seconds (Table 4: E_t = 1 s).
// The freezing intensity R = E_f / E_t follows Eq. 1:
//
//     R = δ · 2^ceil(H_wm / S_am)
//
// where H_wm is the device's high watermark and S_am the currently available
// memory — so pressure lengthens the freeze period and relief shortens it.
// Apps frozen by RPF join MDT's managed set and ride the heartbeat until
// they are launched to the foreground (thaw-on-launch) or die.
#ifndef SRC_ICE_MDT_H_
#define SRC_ICE_MDT_H_

#include <cstdint>
#include <set>

#include "src/android/activity_manager.h"
#include "src/ice/config.h"
#include "src/mem/memory_manager.h"
#include "src/proc/freezer.h"
#include "src/sim/engine.h"

namespace ice {

class SnapshotArchive;

class Mdt {
 public:
  Mdt(const IceConfig& config, Engine& engine, MemoryManager& mm, Freezer& freezer,
      ActivityManager& am);

  // Starts the heartbeat (idempotent).
  void Start();

  // RPF notifies when it freezes an app; the app joins the managed set.
  void OnAppFrozen(Uid uid);

  // The app left the background (foreground launch or death): drop it.
  void Unmanage(Uid uid);

  // Eq. 1, evaluated against current available memory.
  double CurrentR() const;
  SimDuration CurrentFreezeDuration() const;

  bool managing(Uid uid) const { return managed_.count(uid) > 0; }
  size_t managed_count() const { return managed_.size(); }
  uint64_t epochs() const { return epochs_; }

  // ---- Snapshot support -----------------------------------------------------
  // The heartbeat is one pending event (next period boundary); it is saved as
  // (deadline, seq) and re-armed with the same sequence number on restore.
  void BeginRestore();  // Cancels the heartbeat Start() armed.
  void Transfer(SnapshotArchive& ar);

 private:
  void BeginFreezePeriod();
  void BeginThawPeriod();

  IceConfig config_;
  Engine& engine_;
  MemoryManager& mm_;
  Freezer& freezer_;
  ActivityManager& am_;

  // Ordered: BeginFreezePeriod/BeginThawPeriod iterate this set, so its
  // iteration order is part of the deterministic simulation state.
  std::set<Uid> managed_;
  bool started_ = false;
  bool in_thaw_period_ = false;
  uint64_t epochs_ = 0;
  // The next period-boundary event (thaw begin when freezing, freeze begin
  // when thawing); tracked so snapshots can serialize and re-arm it.
  EventId pending_ = kInvalidEventId;
};

}  // namespace ice

#endif  // SRC_ICE_MDT_H_
