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
  ICE_CHECK_EQ(engine_.now(), 0u) << "scheduler built on a running engine";
  engine_.AddTicker(this);
}

Scheduler::~Scheduler() { engine_.RemoveTicker(this); }

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
  run_queue_.push_back(raw);
  return raw;
}

void Scheduler::OnTaskRunnable(Task* task) {
  ICE_CHECK(task->state() == TaskState::kRunnable) << task->name();
  // Waking tasks are placed at the fairness floor so long sleepers cannot
  // monopolize the CPU (min_vruntime normalization).
  if (task->vruntime_us() < min_vruntime_us_) {
    task->SetVruntime(min_vruntime_us_);
  }
  run_queue_.push_back(task);
}

void Scheduler::OnTaskNotRunnable(Task* task) {
  ICE_CHECK(task->state() != TaskState::kRunnable) << task->name();
  std::erase(run_queue_, task);
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
  // The tick at t closes a second when t + kTick is a whole second.
  const SimTime end = first_skipped + count * Engine::kTick;
  for (uint64_t n = end / kSecond - first_skipped / kSecond; n > 0; --n) {
    CloseSecond();
  }
}

void Scheduler::CloseSecond() {
  per_second_.push_back(static_cast<double>(second_busy_us_) /
                        static_cast<double>(CoresTimes(kSecond)));
  second_busy_us_ = 0;
}

void Scheduler::Transfer(SnapshotArchive& ar) {
  // The engine section precedes this one, so the clock is the restored one.
  const SimTime now = engine_.now();
  const SimTime second_start = now - now % kSecond;
  ar.U64(busy_us_);
  ar.Expect<uint64_t>(capacity_us(), "scheduler capacity");
  ar.U64(second_busy_us_);
  ar.Expect<uint64_t>(CoresTimes(now - second_start), "scheduler capacity this second");
  ar.Expect<uint64_t>(second_start + kSecond, "next second boundary");
  ar.U64(min_vruntime_us_);
  ar.Expect<uint64_t>(task_seq_, "task count");
  ar.Sequence(per_second_, 8, [&ar](double& v) { ar.F64(v); });
  ar.Expect<uint64_t>(tasks_.size(), "task population");
  // Restoring tasks sets their states directly; the queue is replaced below
  // in the serialized order.
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
  std::vector<Task*> queued = run_queue_;
  ar.Sequence(queued, 8, task_ref);
  if (ar.loading()) {
    for (auto it = queued.begin(); it != queued.end(); ++it) {
      if (*it == nullptr || (*it)->state() != TaskState::kRunnable) {
        SnapshotArchive::Fail("run queue holds a task that is not runnable");
      }
      if (std::find(queued.begin(), it, *it) != it) {
        SnapshotArchive::Fail("run queue holds task " + (*it)->name() + " twice");
      }
    }
    // Wake() returns early for a runnable task, so one left off the queue
    // would never run again.
    for (auto& t : tasks_) {
      if (t->state() == TaskState::kRunnable &&
          std::find(queued.begin(), queued.end(), t.get()) == queued.end()) {
        SnapshotArchive::Fail("runnable task " + t->name() + " is missing from the run queue");
      }
    }
    run_queue_ = std::move(queued);
  }
  ar.Sequence(core_last_, 8, task_ref);
}

void Scheduler::ResetForRecycle(size_t boot_task_count) {
  ICE_CHECK_LE(boot_task_count, tasks_.size());
  // Dead tasks are off the run queue, so destroying them leaves it valid.
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
  Tracer* tracer = engine_.tracer();
  if (tracer != nullptr) {
    core_occupants_.assign(static_cast<size_t>(num_cores_), nullptr);
  }

  if (!run_queue_.empty()) {
    // Select up to num_cores tasks. Tasks repaying debt (mid non-preemptive
    // section) keep their cores; the rest are picked by minimum vruntime.
    candidates_ = run_queue_;
    uint64_t min_vr = UINT64_MAX;
    for (Task* t : candidates_) {
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
  if ((now + quantum) % kSecond == 0) {
    CloseSecond();
  }
}

}  // namespace ice
