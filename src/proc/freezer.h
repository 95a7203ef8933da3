// Application-grain freezer (the paper's §4.2.2): freezing always applies to
// every process of an app, because processes of one app depend on each other
// and freezing a single one can wedge the whole application.
#ifndef SRC_PROC_FREEZER_H_
#define SRC_PROC_FREEZER_H_

#include "src/proc/app.h"
#include "src/sim/engine.h"

namespace ice {

class SnapshotArchive;

class Freezer {
 public:
  explicit Freezer(Engine& engine) : engine_(engine) {}

  // Sends freeze signals to every task of every process of `app`; tasks park
  // at their next safe point (try_to_freeze semantics). No-op if already
  // frozen.
  void FreezeApp(App& app);

  // Thaws every task; they become runnable and re-evaluate their work.
  void ThawApp(App& app);

  // Snapshot support (per-task freeze state lives in Task). The section
  // keeps the stat::kFreezes and stat::kThaws counts, which restore checks
  // against the engine's restored counters.
  void Transfer(SnapshotArchive& ar);

 private:
  Engine& engine_;
};

}  // namespace ice

#endif  // SRC_PROC_FREEZER_H_
