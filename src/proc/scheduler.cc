#include "src/proc/scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/behavior.h"
#include "src/proc/process.h"
#include "src/trace/trace.h"
#include "src/trace/tracer.h"

namespace ice {

Scheduler::Scheduler(Engine& engine, MemoryManager& mm, int num_cores)
    : engine_(engine), mm_(mm), num_cores_(num_cores) {
  ICE_CHECK_GT(num_cores, 0);
  engine_.AddTicker(this);
}

Scheduler::~Scheduler() {
  engine_.RemoveTicker(this);
  // Unlink every queued task before the unique_ptrs release them (ListNode
  // asserts it is unlinked at destruction).
  run_queue_.Clear();
}

Task* Scheduler::CreateTask(std::string name, Process* process, int nice,
                            std::unique_ptr<Behavior> behavior) {
  auto task = std::make_unique<Task>(*this, std::move(name), process, nice, std::move(behavior));
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  live_tasks_.push_back(raw);
  raw->set_trace_id(++task_seq_);
  if (Tracer* tracer = engine_.tracer()) {
    tracer->RegisterTaskName(raw->trace_id(), raw->name());
  }
  if (process != nullptr) {
    process->AddTask(raw);
  }
  // New tasks start runnable at the current fairness floor.
  raw->SetVruntime(min_vruntime_us_);
  run_queue_.PushBack(raw);
  return raw;
}

void Scheduler::OnTaskRunnable(Task* task) {
  using RunQueue = IntrusiveList<Task, RunQueueTag>;
  ICE_CHECK(!RunQueue::IsLinked(task));
  // Waking tasks are placed at the fairness floor so long sleepers cannot
  // monopolize the CPU (min_vruntime normalization).
  if (task->vruntime_us() < min_vruntime_us_) {
    task->SetVruntime(min_vruntime_us_);
  }
  run_queue_.PushBack(task);
}

void Scheduler::OnTaskNotRunnable(Task* task) {
  using RunQueue = IntrusiveList<Task, RunQueueTag>;
  if (RunQueue::IsLinked(task)) {
    run_queue_.Remove(task);
  }
}

void Scheduler::OnTaskDead(Task* task) {
  live_tasks_.erase(std::remove(live_tasks_.begin(), live_tasks_.end(), task),
                    live_tasks_.end());
}

SimTime Scheduler::NextWorkAt(SimTime now) {
  if (!run_queue_.empty()) {
    return now;
  }
  if (engine_.tracer() != nullptr) {
    // A core still shows a (stale) occupant: the next Tick emits its
    // switch-to-idle sched event, so that tick cannot be skipped.
    for (const Task* t : core_last_) {
      if (t != nullptr) {
        return now;
      }
    }
  }
  return kTickerIdle;
}

void Scheduler::OnTicksSkipped(SimTime first_skipped, uint64_t count) {
  const SimDuration quantum = Engine::kTick;
  const uint64_t cap_per_tick = static_cast<uint64_t>(num_cores_) * quantum;
  SimTime t = first_skipped;
  uint64_t remaining = count;
  while (remaining > 0) {
    // First skipped tick at which the per-second sampler would have fired
    // (Tick samples when t + quantum >= next_second_boundary_).
    SimTime threshold = next_second_boundary_ - quantum;
    uint64_t until_sample = threshold > t ? (threshold - t + quantum - 1) / quantum : 0;
    uint64_t chunk = std::min(remaining, until_sample + 1);
    capacity_us_ += chunk * cap_per_tick;
    second_capacity_us_ += chunk * cap_per_tick;
    t += chunk * quantum;
    remaining -= chunk;
    if (chunk == until_sample + 1) {
      per_second_.push_back(second_capacity_us_ == 0
                                ? 0.0
                                : static_cast<double>(second_busy_us_) / second_capacity_us_);
      second_busy_us_ = 0;
      second_capacity_us_ = 0;
      next_second_boundary_ += kSecond;
    }
  }
}

void Scheduler::Transfer(SnapshotArchive& ar) {
  ar.U64(busy_us_);
  ar.U64(capacity_us_);
  ar.U64(second_busy_us_);
  ar.U64(second_capacity_us_);
  ar.U64(next_second_boundary_);
  ar.U64(min_vruntime_us_);
  ar.Expect<uint64_t>(task_seq_, "task count");
  ar.Sequence(per_second_, 8, [&ar](double& v) { ar.F64(v); });
  ar.Expect<uint64_t>(tasks_.size(), "task population");
  if (ar.loading()) {
    // Empty the run queue before tasks set their states directly; membership
    // is rebuilt below in the serialized order.
    run_queue_.Clear();
  }
  for (auto& t : tasks_) {
    t->Transfer(ar);
  }
  // Tasks travel as trace ids (0 = none).
  auto task_ref = [&](auto*& t) {
    uint64_t id = t != nullptr ? t->trace_id() : 0;
    ar.U64(id);
    if (ar.loading()) {
      if (id > tasks_.size()) {
        SnapshotArchive::Fail("task trace id " + std::to_string(id) + " out of range");
      }
      t = id == 0 ? nullptr : tasks_[id - 1].get();
    }
  };
  // Run-queue ORDER matters: Tick's std::partial_sort is unstable, so the
  // queue ordering at the snapshot point is part of the deterministic state.
  std::vector<Task*> queued;
  if (!ar.loading()) {
    for (Task* t : run_queue_) {
      queued.push_back(t);
    }
  }
  ar.Sequence(queued, 8, task_ref);
  if (ar.loading()) {
    for (Task* t : queued) {
      if (t == nullptr || t->state() != TaskState::kRunnable ||
          static_cast<ListNode<RunQueueTag>*>(t)->linked()) {
        SnapshotArchive::Fail("run queue holds a task that is not runnable");
      }
      run_queue_.PushBack(t);
    }
    // Wake() returns early for a runnable task, so one left off the queue
    // would never run again.
    for (auto& t : tasks_) {
      if (t->state() == TaskState::kRunnable &&
          !static_cast<ListNode<RunQueueTag>*>(t.get())->linked()) {
        SnapshotArchive::Fail("runnable task " + t->name() + " is missing from the run queue");
      }
    }
  }
  ar.Sequence(core_last_, 8, task_ref);
}

void Scheduler::ResetForRecycle(size_t boot_task_count) {
  ICE_CHECK_LE(boot_task_count, tasks_.size());
  // Unlink everything first; ListNode asserts unlinked at destruction, and
  // Transfer rebuilds membership from the serialized order anyway.
  run_queue_.Clear();
  for (size_t i = boot_task_count; i < tasks_.size(); ++i) {
    ICE_CHECK(tasks_[i]->state() == TaskState::kDead)
        << tasks_[i]->name() << ": recycle with a live post-boot task";
  }
  tasks_.resize(boot_task_count);
  live_tasks_.clear();
  for (auto& t : tasks_) {
    ICE_CHECK(t->state() != TaskState::kDead) << t->name() << ": dead boot task";
    live_tasks_.push_back(t.get());
  }
  task_seq_ = boot_task_count;
}

void Scheduler::Tick(SimTime now) {
  const SimDuration quantum = Engine::kTick;
  capacity_us_ += static_cast<uint64_t>(num_cores_) * quantum;
  second_capacity_us_ += static_cast<uint64_t>(num_cores_) * quantum;

  Tracer* tracer = engine_.tracer();
  if (tracer != nullptr) {
    core_occupants_.assign(static_cast<size_t>(num_cores_), nullptr);
  }

  if (!run_queue_.empty()) {
    // Select up to num_cores tasks. Tasks repaying debt (mid non-preemptive
    // section) keep their cores; the rest are picked by minimum vruntime.
    candidates_.clear();
    candidates_.reserve(run_queue_.size());
    uint64_t min_vr = UINT64_MAX;
    for (Task* t : run_queue_) {
      candidates_.push_back(t);
      min_vr = std::min(min_vr, t->vruntime_us());
    }
    if (min_vr != UINT64_MAX) {
      min_vruntime_us_ = std::max(min_vruntime_us_, min_vr);
    }
    size_t slots = std::min(candidates_.size(), static_cast<size_t>(num_cores_));
    std::partial_sort(candidates_.begin(), candidates_.begin() + slots, candidates_.end(),
                      [](const Task* a, const Task* b) {
                        bool a_debt = a->debt_us() > 0;
                        bool b_debt = b->debt_us() > 0;
                        if (a_debt != b_debt) {
                          return a_debt;
                        }
                        return a->vruntime_us() < b->vruntime_us();
                      });

    for (size_t i = 0; i < slots; ++i) {
      Task* task = candidates_[i];
      if (task->state() != TaskState::kRunnable) {
        continue;  // Frozen/killed by an earlier task this tick.
      }
      if (tracer != nullptr) {
        core_occupants_[i] = task;
      }
      SimDuration budget = quantum;
      SimDuration busy = 0;

      if (task->debt_us() > 0) {
        SimDuration pay = std::min(task->debt_us(), budget);
        task->PayDebt(pay);
        budget -= pay;
        busy += pay;  // CPU time & vruntime were charged when the debt arose.
      }

      if (budget > 0 && task->debt_us() == 0 && task->state() == TaskState::kRunnable) {
        TaskContext ctx(*task, *this, budget);
        task->set_on_cpu(true);
        task->behavior().Run(ctx);
        task->set_on_cpu(false);
        task->CommitPendingFreeze();
        SimDuration used = ctx.used();
        task->ChargeCpu(used);
        task->AddVruntime(used);
        if (used > budget) {
          task->AddDebt(used - budget);
          busy += budget;
        } else {
          busy += used;
        }
      }

      busy_us_ += busy;
      second_busy_us_ += busy;
    }
  }

  // One sched_switch per core whose occupant changed this quantum (trace id
  // 0 = idle). Graveyarded tasks are never deallocated mid-simulation, so
  // the stale pointers in core_last_ are safe to compare against.
  if (tracer != nullptr) {
    if (core_last_.size() != static_cast<size_t>(num_cores_)) {
      core_last_.assign(static_cast<size_t>(num_cores_), nullptr);
    }
    for (int i = 0; i < num_cores_; ++i) {
      const Task* occ = core_occupants_[i];
      if (occ == core_last_[i]) {
        continue;
      }
      core_last_[i] = occ;
      int pid = (occ != nullptr && occ->process() != nullptr) ? occ->process()->pid() : -1;
      ICE_TRACE(engine_, TraceEventType::kSchedSwitch,
                {.pid = pid, .core = i, .arg0 = occ != nullptr ? occ->trace_id() : 0});
    }
  }

  // Per-second utilization sampling for Table-1 style peak/average figures.
  if (now + quantum >= next_second_boundary_) {
    per_second_.push_back(second_capacity_us_ == 0
                              ? 0.0
                              : static_cast<double>(second_busy_us_) / second_capacity_us_);
    second_busy_us_ = 0;
    second_capacity_us_ = 0;
    next_second_boundary_ += kSecond;
  }
}

}  // namespace ice
