#include "src/proc/task.h"

#include <string>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/app.h"
#include "src/proc/behavior.h"
#include "src/proc/process.h"
#include "src/proc/scheduler.h"

namespace ice {

namespace {
// The kernel's sched_prio_to_weight table (nice -20 .. +19).
constexpr int kNiceToWeight[40] = {
    88761, 71755, 56483, 46273, 36291,  // -20..-16
    29154, 23254, 18705, 14949, 11916,  // -15..-11
    9548,  7620,  6100,  4904,  3906,   // -10..-6
    3121,  2501,  1991,  1586,  1277,   // -5..-1
    1024,                               // 0
    820,   655,   526,   423,   335,    // 1..5
    272,   215,   172,   137,   110,    // 6..10
    87,    70,    56,    45,    36,     // 11..15
    29,    23,    18,    15,             // 16..19
};
}  // namespace

int NiceToWeight(int nice) {
  if (nice < -20) {
    nice = -20;
  }
  if (nice > 19) {
    nice = 19;
  }
  return kNiceToWeight[nice + 20];
}

Task::Task(Scheduler& scheduler, std::string name, Process* process, int nice,
           std::unique_ptr<Behavior> behavior)
    : scheduler_(scheduler),
      name_(std::move(name)),
      process_(process),
      nice_(nice),
      weight_(NiceToWeight(nice)),
      behavior_(std::move(behavior)),
      io_waker_([this] { Wake(); }) {
  ICE_CHECK(behavior_ != nullptr);
}

Task::~Task() = default;

void Task::set_nice(int nice) {
  nice_ = nice;
  weight_ = NiceToWeight(nice);
}

void Task::ChargeCpu(SimDuration us) {
  cpu_time_us_ += us;
  if (process_ != nullptr && process_->app() != nullptr) {
    process_->app()->cpu_time_us += us;
  }
}

void Task::CancelTimer() {
  if (timer_event_ != kInvalidEventId) {
    scheduler_.engine().Cancel(timer_event_);
    timer_event_ = kInvalidEventId;
  }
  ++timer_generation_;
}

void Task::EnterState(TaskState next) {
  if (state_ == next) {
    return;
  }
  bool was_runnable = state_ == TaskState::kRunnable;
  bool now_runnable = next == TaskState::kRunnable;
  state_ = next;
  if (was_runnable && !now_runnable) {
    scheduler_.OnTaskNotRunnable(this);
  } else if (!was_runnable && now_runnable) {
    scheduler_.OnTaskRunnable(this);
  }
}

void Task::Wake() {
  switch (state_) {
    case TaskState::kRunnable:
    case TaskState::kDead:
      return;
    case TaskState::kFrozen:
      wake_pending_ = true;
      return;
    case TaskState::kSleeping:
    case TaskState::kBlocked:
      CancelTimer();
      if (freeze_pending_) {
        // The freezer caught us at the wakeup point.
        freeze_pending_ = false;
        wake_pending_ = true;
        EnterState(TaskState::kFrozen);
        return;
      }
      EnterState(TaskState::kRunnable);
      return;
  }
}

void Task::SleepUntilWoken() {
  ICE_CHECK(state_ == TaskState::kRunnable) << name_;
  if (freeze_pending_) {
    freeze_pending_ = false;
    EnterState(TaskState::kFrozen);
    return;
  }
  EnterState(TaskState::kSleeping);
}

void Task::SleepFor(SimDuration delay) {
  ICE_CHECK(state_ == TaskState::kRunnable) << name_;
  if (freeze_pending_) {
    freeze_pending_ = false;
    EnterState(TaskState::kFrozen);
    // The frozen task loses its timer; thaw makes it runnable again.
    return;
  }
  EnterState(TaskState::kSleeping);
  uint64_t generation = ++timer_generation_;
  timer_event_ = scheduler_.engine().ScheduleAfter(delay, TimerFn(generation));
}

EventFn Task::TimerFn(uint64_t generation) {
  return [this, generation]() {
    if (generation != timer_generation_) {
      return;  // Timer superseded.
    }
    timer_event_ = kInvalidEventId;
    Wake();
  };
}

void Task::BlockOnIo() {
  ICE_CHECK(state_ == TaskState::kRunnable) << name_;
  EnterState(TaskState::kBlocked);
}

void Task::RequestFreeze() {
  switch (state_) {
    case TaskState::kDead:
    case TaskState::kFrozen:
      return;
    case TaskState::kRunnable:
      if (on_cpu_) {
        // Mid-quantum: freeze at the next safe point (behaviors observe
        // freeze_pending_ through ShouldStop(); the scheduler commits the
        // freeze when the quantum ends).
        freeze_pending_ = true;
        return;
      }
      freeze_pending_ = false;
      EnterState(TaskState::kFrozen);
      return;
    case TaskState::kSleeping:
      CancelTimer();
      freeze_pending_ = false;
      EnterState(TaskState::kFrozen);
      return;
    case TaskState::kBlocked:
      // Cannot freeze mid-I/O; the freezer catches the task on wakeup.
      freeze_pending_ = true;
      return;
  }
}

void Task::CommitPendingFreeze() {
  if (!freeze_pending_ || state_ != TaskState::kRunnable) {
    return;
  }
  freeze_pending_ = false;
  EnterState(TaskState::kFrozen);
}

void Task::ThawNow() {
  freeze_pending_ = false;
  if (state_ != TaskState::kFrozen) {
    return;
  }
  wake_pending_ = false;
  // Thawed tasks become runnable and re-evaluate their work; behaviors with
  // nothing to do will re-sleep on their first quantum.
  EnterState(TaskState::kRunnable);
}

void Task::Transfer(SnapshotArchive& ar) {
  if (!ar.loading()) {
    ICE_CHECK(!on_cpu_) << name_;
  }
  // Restore sets state_ directly; the scheduler then replaces its run queue
  // with the serialized one.
  ar.U8(state_);
  if (state_ > TaskState::kDead) {
    SnapshotArchive::Fail("task " + name_ + " has state byte " +
                          std::to_string(static_cast<int>(state_)));
  }
  ar.Bool(freeze_pending_);
  ar.Bool(wake_pending_);
  ar.U64(vruntime_us_);
  ar.U64(debt_us_);
  ar.U64(cpu_time_us_);
  int nice = nice_;
  ar.I64(nice);
  if (ar.loading()) {
    set_nice(nice);
  }
  ar.Expect<uint64_t>(trace_id_, "task trace id");
  if (ar.loading()) {
    CancelTimer();  // Drop any construction-time timer (bumps the generation).
  }
  ar.U64(timer_generation_);
  scheduler_.engine().TransferOptionalEvent(ar, timer_event_, TimerFn(timer_generation_));
  behavior_->Transfer(ar);
}

void Task::MarkDead() {
  if (state_ == TaskState::kDead) {
    return;
  }
  CancelTimer();
  freeze_pending_ = false;
  wake_pending_ = false;
  EnterState(TaskState::kDead);
  scheduler_.OnTaskDead(this);
}

}  // namespace ice
