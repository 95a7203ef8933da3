// Scheme: a pluggable memory/process-management policy. The four evaluated
// schemes (§5.2) are LRU+CFS (baseline, no-op), UCSG, Acclaim, and Ice; the
// power-manager freezer of §6.2.1 is a fifth. The ablation strawman below
// completes the set src/harness builds by name (MakeScheme).
//
// A scheme is installed once onto a built system and wires itself into the
// relevant hooks: scheduler nice values (UCSG), reclaim victim filter
// (Acclaim), refault events + freezer (Ice, power manager).
#ifndef SRC_POLICY_SCHEME_H_
#define SRC_POLICY_SCHEME_H_

#include <string>

#include "src/android/activity_manager.h"
#include "src/mem/memory_manager.h"
#include "src/proc/freezer.h"
#include "src/proc/scheduler.h"
#include "src/sim/engine.h"

namespace ice {

class SnapshotArchive;

struct SystemRefs {
  Engine* engine = nullptr;
  MemoryManager* mm = nullptr;
  Scheduler* scheduler = nullptr;
  Freezer* freezer = nullptr;
  ActivityManager* am = nullptr;
};

class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  // Wires the scheme into the system. Called exactly once, before any
  // workload runs.
  virtual void Install(const SystemRefs& refs) = 0;

  // ---- Snapshot support -----------------------------------------------------
  // Stateless schemes (LRU+CFS, UCSG, Acclaim keep all their state in tasks
  // and hooks) use these defaults. Schemes with timers or learned state (Ice,
  // PowerMgr) override both: BeginRestore cancels any events Install armed —
  // the engine clock can only be restored onto an empty queue — and Transfer,
  // one call for both save and restore, re-arms them on restore with the
  // snapshot's event sequence numbers (Engine::TransferEvent).
  virtual void BeginRestore() {}
  virtual void Transfer(SnapshotArchive& ar) { (void)ar; }
};

// LRU + CFS: the stock Linux baseline. Installs nothing.
class LruCfsScheme : public Scheme {
 public:
  std::string name() const override { return "LRU+CFS"; }
  void Install(const SystemRefs& refs) override;
};

// The §4.3 strawman: every background task at the lowest priority (nice
// +19), the foreground app's tasks boosted as under UCSG.
class MaxDeprioritizeScheme : public Scheme {
 public:
  std::string name() const override { return "Nice+19"; }
  void Install(const SystemRefs& refs) override;
};

}  // namespace ice

#endif  // SRC_POLICY_SCHEME_H_
