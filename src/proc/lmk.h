// Low Memory Killer: Android's last line of defense. When reclaim cannot
// keep the device above the min watermark, the cached app with the highest
// oom_score_adj is killed, releasing all of its memory.
//
// The actual victim selection and teardown live in the ActivityManager
// (which owns app lifecycles); Lmk provides the triggering policy: an OOM
// callback from direct reclaim plus a periodic low-memory check, throttled
// so one kill can take effect before the next fires.
#ifndef SRC_PROC_LMK_H_
#define SRC_PROC_LMK_H_

#include <functional>

#include "src/mem/memory_manager.h"
#include "src/sim/engine.h"

namespace ice {

class SnapshotArchive;

class Lmk : public Ticker {
 public:
  // `kill_one` must kill the best victim and return true, or return false
  // when there is nothing left to kill.
  using KillFn = std::function<bool()>;

  Lmk(Engine& engine, MemoryManager& mm);
  ~Lmk() override;

  void set_kill_fn(KillFn fn) { kill_fn_ = std::move(fn); }

  // Installs this LMK as the memory manager's OOM handler.
  void InstallOomHandler();

  void Tick(SimTime now) override;

  // Tick is a no-op until the next periodic check, so idle time up to it can
  // be skipped.
  SimTime NextWorkAt(SimTime now) override { return next_check_ > now ? next_check_ : now; }

  // lmkd minfree analog: cached apps die when MemAvailable falls below this
  // (0 disables; the experiment harness sets the device's ladder value for
  // fully-cached adj levels, ~110 MB).
  void set_minfree_pages(PageCount pages) { minfree_pages_ = pages; }

  // PSI analog: modern lmkd kills on sustained memory-stall pressure. We
  // approximate stall pressure with the system-wide refault rate; a cached
  // app dies when the smoothed rate exceeds this threshold (0 disables).
  void set_psi_refaults_per_sec(double rate) { psi_threshold_ = rate; }

  // Snapshot support (thresholds are reconfigured by the harness, not saved).
  // The section keeps the stat::kLmkKills count, which restore checks
  // against the engine's restored counter.
  void Transfer(SnapshotArchive& ar);

 private:
  bool KillOne();

  Engine& engine_;
  MemoryManager& mm_;
  KillFn kill_fn_;
  PageCount minfree_pages_ = 0;
  double psi_threshold_ = 0.0;
  uint64_t last_refaults_ = 0;
  double refault_rate_ewma_ = 0.0;
  SimTime last_kill_time_ = 0;
  bool ever_killed_ = false;

  static constexpr SimDuration kMinKillInterval = Ms(500);
  static constexpr SimDuration kCheckPeriod = Ms(100);
  SimTime next_check_ = 0;
};

}  // namespace ice

#endif  // SRC_PROC_LMK_H_
