// Task: the schedulable entity (analog of a Linux task_struct).
//
// Tasks run a Behavior under a per-quantum budget. A task that performs a
// long non-preemptive operation (direct reclaim, zram compression) simply
// overruns its budget and accumulates *debt*: subsequent quanta are consumed
// repaying it before the behavior runs again. This models non-preemptive
// kernel sections without simulating instruction-level preemption.
//
// Freezing follows the kernel freezer: a freeze request takes effect at the
// next safe point — immediately for runnable/sleeping tasks, at I/O
// completion for blocked ones (try_to_freeze() semantics).
#ifndef SRC_PROC_TASK_H_
#define SRC_PROC_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/base/units.h"
#include "src/sim/engine.h"

namespace ice {

class Behavior;
class SnapshotArchive;
class Process;
class Scheduler;

enum class TaskState : uint8_t {
  kRunnable,  // On the run queue (or currently on a CPU).
  kSleeping,  // Waiting on a timer or an explicit Wake().
  kBlocked,   // Waiting on I/O completion.
  kFrozen,    // In the freezer; ineligible to run until thawed.
  kDead,      // Process exited; kept in the scheduler graveyard.
};

// Subset of the kernel's nice-to-weight table.
int NiceToWeight(int nice);

class Task {
 public:
  Task(Scheduler& scheduler, std::string name, Process* process, int nice,
       std::unique_ptr<Behavior> behavior);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  const std::string& name() const { return name_; }
  Process* process() const { return process_; }
  TaskState state() const { return state_; }
  Behavior& behavior() { return *behavior_; }

  int nice() const { return nice_; }
  void set_nice(int nice);
  int weight() const { return weight_; }

  uint64_t vruntime_us() const { return vruntime_us_; }
  SimDuration debt_us() const { return debt_us_; }
  SimDuration cpu_time_us() const { return cpu_time_us_; }

  // True for kernel threads (kswapd, kworker): never frozen, never killed.
  bool is_kernel() const { return process_ == nullptr; }

  // Stable creation-order id for sched_switch trace events (0 = unset/idle).
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  // ---- State transitions ----------------------------------------------------

  // Makes a sleeping/blocked task runnable. On a frozen task the wake is
  // remembered and delivered at thaw. No-op on runnable/dead tasks.
  void Wake();

  // Sleep waiting for an explicit Wake().
  void SleepUntilWoken();

  // Sleep until now + delay (or an earlier Wake()).
  void SleepFor(SimDuration delay);

  // Park waiting for I/O; the memory manager's completion waker calls Wake().
  void BlockOnIo();

  // Reusable `[this] { Wake(); }` for the fault path. Tasks are owned by
  // unique_ptr and graveyarded rather than destroyed mid-simulation, so the
  // captured pointer stays valid; reusing one std::function avoids building
  // a fresh callable on every memory access.
  const std::function<void()>& io_waker() const { return io_waker_; }

  // Freezer interface (used via the Freezer, the paper's try_to_freeze()).
  void RequestFreeze();
  void ThawNow();
  bool frozen() const { return state_ == TaskState::kFrozen; }
  bool freeze_pending() const { return freeze_pending_; }

  // Scheduler bracketing around a quantum: freeze requests arriving while
  // the task is on a CPU take effect at the next safe point (quantum end or
  // voluntary sleep), mirroring try_to_freeze().
  void set_on_cpu(bool on_cpu) { on_cpu_ = on_cpu; }
  // Applies a deferred freeze at quantum end.
  void CommitPendingFreeze();

  void MarkDead();

  // ---- Scheduler internals --------------------------------------------------

  // ---- Snapshot support -----------------------------------------------------
  // Transfers dynamic state (scheduling accounting, freezer flags, pending
  // sleep timer as (deadline, seq), and the behavior's progress). Restore sets
  // state_ directly — the scheduler rebuilds run-queue membership afterwards
  // in its own serialized order — and re-arms the sleep timer with the saved
  // event sequence number so event dispatch order is bit-identical.
  void Transfer(SnapshotArchive& ar);

  void AddVruntime(SimDuration used_us) {
    vruntime_us_ += used_us * 1024 / static_cast<uint64_t>(weight_);
  }
  void SetVruntime(uint64_t v) { vruntime_us_ = v; }
  void ChargeCpu(SimDuration us);
  void AddDebt(SimDuration us) { debt_us_ += us; }
  void PayDebt(SimDuration us) {
    debt_us_ = debt_us_ > us ? debt_us_ - us : 0;
  }

 private:
  void CancelTimer();
  // The sleep-timer callback armed under `generation`; a stale generation
  // (the timer was cancelled or superseded) makes it a no-op.
  EventFn TimerFn(uint64_t generation);
  void EnterState(TaskState next);

  Scheduler& scheduler_;
  std::string name_;
  Process* process_;
  int nice_;
  int weight_;
  std::unique_ptr<Behavior> behavior_;

  TaskState state_ = TaskState::kRunnable;
  bool freeze_pending_ = false;
  bool wake_pending_ = false;  // Wake arrived while frozen.
  bool on_cpu_ = false;

  uint64_t vruntime_us_ = 0;
  SimDuration debt_us_ = 0;
  SimDuration cpu_time_us_ = 0;
  uint64_t trace_id_ = 0;

  EventId timer_event_ = kInvalidEventId;
  uint64_t timer_generation_ = 0;
  std::function<void()> io_waker_;
};

}  // namespace ice

#endif  // SRC_PROC_TASK_H_
