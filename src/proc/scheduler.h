// CFS-like scheduler over a fixed number of identical cores.
//
// Each engine tick is one 1 ms scheduling quantum: the scheduler picks the
// `num_cores` runnable tasks with the lowest virtual runtime and runs each
// for up to one quantum. Virtual runtime advances inversely to the task's
// nice weight, giving the completely-fair behavior the paper's LRU+CFS
// baseline assumes; the UCSG baseline only re-nices tasks.
//
// The run queue is a vector of the runnable tasks in wake order: a task is
// appended when it becomes runnable and erased when it stops. CPU capacity
// is not counted but read off the clock (cores x now, from the engine's
// time 0), so idle ticks the engine skips owe nothing but the per-second
// samples of the seconds they end.
//
// The scheduler owns every Task. Dead tasks are moved to a graveyard (never
// deallocated mid-simulation) so outstanding wakers stay safe.
#ifndef SRC_PROC_SCHEDULER_H_
#define SRC_PROC_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/mem/memory_manager.h"
#include "src/proc/task.h"
#include "src/sim/engine.h"

namespace ice {

class Behavior;
class SnapshotArchive;

class Scheduler : public Ticker {
 public:
  // `engine` must still be at time 0: capacity is counted from there.
  Scheduler(Engine& engine, MemoryManager& mm, int num_cores);
  ~Scheduler() override;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Engine& engine() { return engine_; }
  MemoryManager& mm() { return mm_; }
  int num_cores() const { return num_cores_; }

  // Creates a task owned by the scheduler. `process` may be null for kernel
  // threads.
  Task* CreateTask(std::string name, Process* process, int nice,
                   std::unique_ptr<Behavior> behavior);

  void Tick(SimTime now) override;

  // Quiescence: no runnable task means every Tick is a no-op (bar the
  // per-second samples, taken in OnTicksSkipped), except that with a tracer
  // installed the first idle tick must still run to emit the switch-to-idle
  // sched events.
  SimTime NextWorkAt(SimTime now) override;
  // Closes the seconds that the skipped (all-idle) ticks end, as Tick would.
  void OnTicksSkipped(SimTime first_skipped, uint64_t count) override;

  // ---- Run queue maintenance (called by Task) -------------------------------
  void OnTaskRunnable(Task* task);
  void OnTaskNotRunnable(Task* task);
  void OnTaskDead(Task* task);

  size_t runnable_count() const { return run_queue_.size(); }

  // ---- CPU accounting --------------------------------------------------------
  // Cumulative busy core-µs and capacity core-µs since construction. Both
  // are exact between ticks; inside one, capacity lags the quantum in
  // progress.
  uint64_t busy_us() const { return busy_us_; }
  uint64_t capacity_us() const { return CoresTimes(engine_.now()); }
  double utilization() const {
    uint64_t capacity = capacity_us();
    return capacity == 0 ? 0.0 : static_cast<double>(busy_us_) / capacity;
  }
  // Per-simulated-second utilization samples (for Table 1 peak/average),
  // each the second's busy time over cores x 1 s.
  const std::vector<double>& utilization_per_second() const { return per_second_; }

  // All live tasks (for experiments/inspection).
  const std::vector<Task*>& live_tasks() const { return live_tasks_; }
  // Total tasks ever created (live + graveyard); the boot-task count the
  // recycler captures right after construction.
  size_t task_count() const { return tasks_.size(); }

  // ---- Snapshot support -----------------------------------------------------
  // Transfers CPU accounting, every task's dynamic state (tasks_ order), the
  // run-queue order as trace ids (std::partial_sort in Tick is unstable, so
  // queue order is part of the deterministic state), and per-core occupancy.
  // The capacities and the next second boundary are written as derived from
  // the restored clock, and restoring throws where the saved ones disagree,
  // or where the queue repeats a task, holds one that is not runnable or
  // leaves a runnable one out. Restoring expects the structural replay to
  // have recreated the identical task population (task_seq_ and
  // tasks_.size() are checked).
  void Transfer(SnapshotArchive& ar);

  // Recycling support: destroys every task created after the boot prefix
  // (app tasks — all already dead; the usual mid-simulation graveyard rule
  // does not apply because nothing is running) and rewinds the task-id
  // sequence, so a post-boot snapshot can be overlaid via Transfer. The
  // engine's event queue must already be cleared: destroyed tasks may hold
  // stale timer handles, and Task::Transfer's CancelTimer relies on those ids
  // resolving to nothing.
  void ResetForRecycle(size_t boot_task_count);

 private:
  uint64_t CoresTimes(SimDuration span) const {
    return static_cast<uint64_t>(num_cores_) * span;
  }
  // Samples the second that ends now and starts the next.
  void CloseSecond();

  Engine& engine_;
  MemoryManager& mm_;
  int num_cores_;

  std::vector<Task*> run_queue_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Task*> live_tasks_;

  uint64_t busy_us_ = 0;
  uint64_t second_busy_us_ = 0;
  std::vector<double> per_second_;

  uint64_t min_vruntime_us_ = 0;

  // Per-tick candidate scratch, reused so the Tick hot path never allocates.
  std::vector<Task*> candidates_;

  // Tracing: the task last seen on each core, so Tick emits one sched_switch
  // per actual occupancy change (scratch vector avoids per-tick allocation).
  // Touched only when the engine has a tracer installed.
  std::vector<const Task*> core_last_;
  std::vector<const Task*> core_occupants_;
  uint64_t task_seq_ = 0;  // Source of stable per-task trace ids (1-based).

  friend class Task;
};

}  // namespace ice

#endif  // SRC_PROC_SCHEDULER_H_
