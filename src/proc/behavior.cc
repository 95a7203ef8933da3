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
    // the compute. Both phases are resumable. The vpns are known up front,
    // so each touch first starts loading the page record it will need
    // kTouchPrefetchDistance touches later.
    while (item.next_touch < item.touch_vpns.size()) {
      ICE_CHECK(item.space != nullptr);
      size_t ahead = item.next_touch + kTouchPrefetchDistance;
      if (ahead < item.touch_vpns.size()) {
        item.space->Prefetch(item.touch_vpns[ahead]);
      }
      uint32_t vpn = item.touch_vpns[item.next_touch];
      ++item.next_touch;
      ctx.Touch(*item.space, vpn, item.write);
      if (ctx.ShouldStop()) {
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
    if (remaining_compute_ == 0 && remaining_touches_ == 0) {
      remaining_compute_ = params_.compute_us;
      remaining_touches_ = params_.touches;
      if (remaining_compute_ == 0 && remaining_touches_ == 0) {
        ctx.SleepFor(params_.period);
        return;
      }
    }
    while (remaining_touches_ > 0) {
      ICE_CHECK(params_.space != nullptr) << "touches configured without a space";
      uint32_t vpn = ctx.rng().Below(static_cast<uint32_t>(params_.space->total_pages()));
      --remaining_touches_;
      ctx.Touch(*params_.space, vpn, /*write=*/false);
      if (ctx.ShouldStop()) {
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
  ar.U32(remaining_touches_);
  ar.Bool(started_);
  if (!ar.loading()) {
    return;
  }
  // A countdown only ever runs down from its configured value, and only once
  // the behavior has started; anything else would, say, send a touchless
  // service to touch pages it has no space for.
  if (remaining_touches_ > params_.touches || remaining_compute_ > params_.compute_us) {
    SnapshotArchive::Fail("periodic-load countdown exceeds its per-burst value");
  }
  if (!started_ && (remaining_touches_ > 0 || remaining_compute_ > 0)) {
    SnapshotArchive::Fail("periodic-load behavior carries a burst before it started");
  }
}

}  // namespace ice
