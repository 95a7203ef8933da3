// Behaviors: what a task does with its CPU time.
//
// A Behavior's Run() is invoked whenever its task is given a quantum. It
// performs work through the TaskContext — computing, touching memory pages
// (which may fault, reclaim, or block), and finally either exhausting the
// budget or putting the task to sleep. Behaviors must be resumable: Run()
// will be called again after a block/sleep with whatever internal progress
// state the behavior kept.
#ifndef SRC_PROC_BEHAVIOR_H_
#define SRC_PROC_BEHAVIOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/mem/address_space.h"
#include "src/mem/memory_manager.h"

namespace ice {

class SnapshotArchive;
class Task;
class Scheduler;

// Execution context for one scheduling quantum. The budget may be overrun
// by non-preemptive operations (direct reclaim); the excess becomes task
// debt repaid over subsequent quanta.
class TaskContext {
 public:
  TaskContext(Task& task, Scheduler& scheduler, SimDuration budget);

  // Consumes CPU time. Returns true while budget remains.
  bool Compute(SimDuration us);

  // Touches one page (read or write). Charges fault costs to this context;
  // blocks the task on flash faults. Returns false when the caller should
  // stop running (blocked or budget exhausted).
  bool Touch(AddressSpace& space, uint32_t vpn, bool write);

  // Touches the pages of `runs` from `at` on, in order, and advances `at`
  // past each page touched, with exactly the effects of one Touch per page.
  // One memory-manager call takes every hit and every first touch that needs
  // no direct reclaim, until the budget runs out; the page it stops at for
  // any other reason goes through Touch. Returns false when the caller
  // should stop running.
  bool TouchRuns(AddressSpace& space, std::span<const VpnRun> runs, RunCursor& at, bool write);

  // Parks the task. Behaviors must return from Run() promptly afterwards.
  void SleepUntilWoken();
  void SleepFor(SimDuration delay);

  // True when the behavior should return: budget exhausted, task blocked or
  // asleep, or a freeze is pending (the freezer's safe point).
  bool ShouldStop() const;

  SimDuration used() const { return used_; }
  SimDuration budget() const { return budget_; }
  bool blocked() const { return blocked_; }

  Task& task() { return task_; }
  Scheduler& scheduler() { return scheduler_; }
  MemoryManager& mm();
  Rng& rng();
  SimTime now() const;

 private:
  Task& task_;
  Scheduler& scheduler_;
  SimDuration budget_;
  SimDuration used_ = 0;
  bool blocked_ = false;
  bool slept_ = false;
};

class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual void Run(TaskContext& ctx) = 0;

  // ---- Snapshot support -----------------------------------------------------
  // A behavior is quiescent when its internal progress is fully expressible
  // through Transfer — e.g. no queued WorkItems whose closures a snapshot
  // cannot carry. Snapshots are only taken when every live task's behavior
  // reports quiescence. Task::Transfer dispatches here, one call for both
  // save and restore.
  virtual bool Quiescent() const { return true; }
  virtual void Transfer(SnapshotArchive& ar) { (void)ar; }
};

// A unit of deferred work: CPU time plus an ordered list of page touches,
// with an optional completion callback (used for frame latency measurement).
struct WorkItem {
  SimDuration compute_us = 0;
  std::vector<VpnRun> runs;
  AddressSpace* space = nullptr;
  bool write = false;
  std::function<void()> on_complete;

  // Progress (internal): the next page to touch.
  RunCursor next_touch;
};

// Generic behavior draining a FIFO of WorkItems; sleeps when idle. This is
// the workhorse for app main threads, render threads and service tasks:
// producers (the choreographer, BG activity generators) push items and the
// scheduler drives them to completion.
class WorkQueueBehavior : public Behavior {
 public:
  WorkQueueBehavior() = default;

  // Pushing work wakes the owning task.
  void Push(WorkItem item);

  void Run(TaskContext& ctx) override;

  // Set once the task exists (CreateTask returns the Task*).
  void BindTask(Task* task) { task_ = task; }
  Task* task() const { return task_; }

  size_t pending() const { return queue_.size(); }
  uint64_t completed() const { return completed_; }
  // The queued items, oldest first.
  const std::deque<WorkItem>& queue() const { return queue_; }

  // Queued WorkItems carry completion closures a snapshot cannot carry.
  bool Quiescent() const override { return queue_.empty(); }
  void Transfer(SnapshotArchive& ar) override;

 private:
  Task* task_ = nullptr;
  std::deque<WorkItem> queue_;
  uint64_t completed_ = 0;
};

// kswapd: wakes when the memory manager signals pressure, reclaims in
// batches until the high watermark is restored, then sleeps.
class KswapdBehavior : public Behavior {
 public:
  void Run(TaskContext& ctx) override;
};

// Periodic compute load (system services, cputester): every `period`, runs
// `compute_us`.
class PeriodicLoadBehavior : public Behavior {
 public:
  struct Params {
    SimDuration period = Ms(100);
    SimDuration compute_us = Us(500);
    // Jitter applied to each period (fraction of period, uniform).
    double jitter = 0.2;
  };

  explicit PeriodicLoadBehavior(const Params& params) : params_(params) {}

  void Run(TaskContext& ctx) override;

  void Transfer(SnapshotArchive& ar) override;

 private:
  Params params_;
  SimDuration remaining_compute_ = 0;
  bool started_ = false;
};

}  // namespace ice

#endif  // SRC_PROC_BEHAVIOR_H_
