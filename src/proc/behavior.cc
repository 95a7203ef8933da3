#include "src/proc/behavior.h"

#include <algorithm>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"

namespace ice {

TaskContext::TaskContext(Task& task, Scheduler& scheduler, SimDuration budget)
    : task_(task), scheduler_(scheduler), budget_(budget) {}

MemoryManager& TaskContext::mm() { return scheduler_.mm(); }
// Behavior randomness (service jitter, background activity, launch work) is
// environment noise: it draws from the noise stream so the seeded stream is
// untouched until the usage trace starts (the warm-boot template contract).
// The noise RNG is serialized with the engine, so restored runs continue the
// stream bit-exact.
Rng& TaskContext::rng() { return scheduler_.engine().noise_rng(); }
SimTime TaskContext::now() const { return scheduler_.engine().now(); }

bool TaskContext::Compute(SimDuration us) {
  used_ += us;
  return !ShouldStop();
}

bool TaskContext::Touch(AddressSpace& space, uint32_t vpn, bool write) {
  AccessOutcome outcome = mm().Access(space, vpn, write, task_.io_waker());
  used_ += outcome.cpu_us;
  if (outcome.blocked) {
    blocked_ = true;
    task_.BlockOnIo();
    return false;
  }
  return !ShouldStop();
}

bool TaskContext::TouchRuns(AddressSpace& space, std::span<const VpnRun> runs, RunCursor& at,
                            bool write) {
  mm().TouchRuns(space, runs, at, write, budget_, used_);
  // Nothing the run loop does can block, sleep, freeze or kill this task:
  // its kswapd wake only makes kswapd runnable. So only the budget can have
  // ended the quantum, and ShouldStop() after the call is what it would
  // have said after each of those touches.
  if (used_ >= budget_ || at.done(runs)) {
    return !ShouldStop();
  }
  // The loop stopped before a page that needs the full fault path.
  uint32_t vpn = at.vpn(runs);
  at.Next(runs);
  return Touch(space, vpn, write);
}

void TaskContext::SleepUntilWoken() {
  slept_ = true;
  task_.SleepUntilWoken();
}

void TaskContext::SleepFor(SimDuration delay) {
  slept_ = true;
  task_.SleepFor(delay);
}

bool TaskContext::ShouldStop() const {
  return blocked_ || slept_ || used_ >= budget_ || task_.freeze_pending() ||
         task_.state() != TaskState::kRunnable;
}

// ---- WorkQueueBehavior -------------------------------------------------------

void WorkQueueBehavior::Push(WorkItem item) {
  queue_.push_back(std::move(item));
  if (task_ != nullptr && task_->state() == TaskState::kSleeping) {
    task_->Wake();
  }
}

void WorkQueueBehavior::Run(TaskContext& ctx) {
  while (!ctx.ShouldStop()) {
    if (queue_.empty()) {
      ctx.SleepUntilWoken();
      return;
    }
    WorkItem& item = queue_.front();

    // Touch the item's pages first (rendering reads its inputs), then burn
    // the compute. Both phases are resumable.
    while (!item.next_touch.done(item.runs)) {
      ICE_CHECK(item.space != nullptr);
      if (!ctx.TouchRuns(*item.space, item.runs, item.next_touch, item.write)) {
        return;
      }
    }

    if (item.compute_us > 0) {
      SimDuration rem = ctx.budget() > ctx.used() ? ctx.budget() - ctx.used() : 0;
      SimDuration chunk = std::min(item.compute_us, std::max<SimDuration>(rem, 1));
      ctx.Compute(chunk);
      item.compute_us -= chunk;
      if (item.compute_us > 0) {
        if (ctx.ShouldStop()) {
          return;
        }
        continue;
      }
    }

    std::function<void()> done = std::move(item.on_complete);
    queue_.pop_front();
    ++completed_;
    if (done) {
      done();
    }
  }
}

void WorkQueueBehavior::Transfer(SnapshotArchive& ar) {
  ICE_CHECK(queue_.empty()) << "snapshot with queued work";
  ar.U64(completed_);
}

// ---- KswapdBehavior ----------------------------------------------------------

void KswapdBehavior::Run(TaskContext& ctx) {
  MemoryManager& mm = ctx.mm();
  while (!ctx.ShouldStop()) {
    if (!mm.KswapdShouldRun()) {
      ctx.SleepUntilWoken();
      return;
    }
    ReclaimResult r = mm.KswapdBatch();
    // Even a fruitless scan costs something; avoids a zero-cost spin.
    ctx.Compute(std::max<SimDuration>(r.cpu_us, Us(5)));
  }
}

// ---- PeriodicLoadBehavior ------------------------------------------------------

void PeriodicLoadBehavior::Run(TaskContext& ctx) {
  if (!started_) {
    started_ = true;
    // Random phase so a fleet of periodic tasks does not beat in lockstep.
    SimDuration phase = ctx.rng().Below(static_cast<uint32_t>(std::max<SimDuration>(
        params_.period, 1)));
    ctx.SleepFor(std::max<SimDuration>(phase, 1));
    return;
  }
  while (!ctx.ShouldStop()) {
    if (remaining_compute_ == 0) {
      remaining_compute_ = params_.compute_us;
      if (remaining_compute_ == 0) {
        ctx.SleepFor(params_.period);
        return;
      }
    }
    while (remaining_compute_ > 0) {
      SimDuration rem = ctx.budget() > ctx.used() ? ctx.budget() - ctx.used() : 0;
      SimDuration chunk = std::min(remaining_compute_, std::max<SimDuration>(rem, 1));
      ctx.Compute(chunk);
      remaining_compute_ -= chunk;
      if (ctx.ShouldStop() && remaining_compute_ > 0) {
        return;
      }
    }
    // Burst complete: sleep out the rest of the (jittered) period, so the
    // configured duty cycle is met regardless of burst length.
    double jitter = 1.0 + params_.jitter * (2.0 * ctx.rng().NextDouble() - 1.0);
    double sleep_target =
        static_cast<double>(params_.period) * jitter - static_cast<double>(params_.compute_us);
    ctx.SleepFor(static_cast<SimDuration>(std::max(1.0, sleep_target)));
    return;
  }
}

void PeriodicLoadBehavior::Transfer(SnapshotArchive& ar) {
  ar.U64(remaining_compute_);
  // Format v2 keeps the countdown of the retired page-touch path.
  ar.Expect<uint32_t>(0, "periodic-load touch countdown");
  ar.Bool(started_);
  if (!ar.loading()) {
    return;
  }
  // The countdown only ever runs down from its configured value, and only
  // once the behavior has started.
  if (remaining_compute_ > params_.compute_us) {
    SnapshotArchive::Fail("periodic-load countdown exceeds its per-burst value");
  }
  if (!started_ && remaining_compute_ > 0) {
    SnapshotArchive::Fail("periodic-load behavior carries a burst before it started");
  }
}

}  // namespace ice
