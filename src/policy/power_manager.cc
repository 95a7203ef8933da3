#include "src/policy/power_manager.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

namespace {
// Scan period and fixed freeze duration.
constexpr SimDuration kCheckPeriod = Sec(30);
constexpr SimDuration kFreezeDuration = Sec(20);
// Apps above this CPU-time delta per check period are "energy hungry".
constexpr SimDuration kCpuThreshold = Ms(150);
}  // namespace

void PowerManagerScheme::Install(const SystemRefs& refs) {
  ICE_CHECK(refs.engine != nullptr && refs.am != nullptr && refs.freezer != nullptr);
  refs_ = refs;
  check_event_ = refs_.engine->ScheduleAfter(kCheckPeriod, [this]() { PeriodicCheck(); });

  // Like ICE, the power manager must thaw before an app is displayed; the
  // ActivityManager already thaws on launch, so only the state bookkeeping
  // is needed here.
}

void PowerManagerScheme::ThawIfStillCached(Uid uid) {
  App* target = refs_.am->FindApp(uid);
  // Fixed-duration thaw, regardless of memory state.
  if (target != nullptr && target->frozen() && target->state() == AppState::kCached) {
    refs_.freezer->ThawApp(*target);
  }
}

void PowerManagerScheme::PruneFiredThaws() {
  pending_thaws_.erase(
      std::remove_if(pending_thaws_.begin(), pending_thaws_.end(),
                     [this](const std::pair<Uid, EventId>& entry) {
                       return !refs_.engine->PendingEvent(entry.second).has_value();
                     }),
      pending_thaws_.end());
}

void PowerManagerScheme::PeriodicCheck() {
  check_event_ = refs_.engine->ScheduleAfter(kCheckPeriod, [this]() { PeriodicCheck(); });
  PruneFiredThaws();

  std::vector<App*> to_freeze;
  for (App* app : refs_.am->apps()) {
    uint64_t last = last_cpu_us_.count(app->uid()) ? last_cpu_us_[app->uid()] : 0;
    uint64_t delta = app->cpu_time_us - last;
    last_cpu_us_[app->uid()] = app->cpu_time_us;

    if (!app->running() || app->frozen()) {
      continue;
    }
    // Only cached background apps; perceptible (adj <= 200) are protected.
    if (app->state() != AppState::kCached || app->oom_adj() <= kAdjPerceptible) {
      continue;
    }
    if (delta >= kCpuThreshold) {
      to_freeze.push_back(app);
    }
  }
  for (App* app : to_freeze) {
    refs_.freezer->FreezeApp(*app);
    Uid uid = app->uid();
    EventId id =
        refs_.engine->ScheduleAfter(kFreezeDuration, [this, uid]() { ThawIfStillCached(uid); });
    pending_thaws_.emplace_back(uid, id);
  }
}

void PowerManagerScheme::BeginRestore() {
  ICE_CHECK(refs_.engine != nullptr);
  if (check_event_ != kInvalidEventId) {
    refs_.engine->Cancel(check_event_);
    check_event_ = kInvalidEventId;
  }
  for (const auto& [uid, id] : pending_thaws_) {
    refs_.engine->Cancel(id);
  }
  pending_thaws_.clear();
}

void PowerManagerScheme::Transfer(SnapshotArchive& ar) {
  ICE_CHECK(refs_.engine != nullptr);
  // last_cpu_us_ is an unordered_map: it travels sorted by uid so identical
  // states produce identical bytes.
  std::vector<std::pair<Uid, uint64_t>> cpu(last_cpu_us_.begin(), last_cpu_us_.end());
  std::sort(cpu.begin(), cpu.end());
  ar.Sequence(cpu, 16, [&ar](std::pair<Uid, uint64_t>& entry) {
    ar.I64(entry.first);
    ar.U64(entry.second);
  });
  if (ar.loading()) {
    last_cpu_us_ = {cpu.begin(), cpu.end()};
  }
  refs_.engine->TransferEvent(ar, check_event_, [this]() { PeriodicCheck(); });
  // Only thaws still pending travel; fired entries are pruned lazily.
  std::vector<std::pair<Uid, EventId>> thaws;
  for (const auto& entry : pending_thaws_) {
    if (refs_.engine->PendingEvent(entry.second).has_value()) {
      thaws.push_back(entry);
    }
  }
  ar.Sequence(thaws, 24, [&](std::pair<Uid, EventId>& thaw) {
    ar.I64(thaw.first);
    refs_.engine->TransferEvent(ar, thaw.second,
                                [this, uid = thaw.first]() { ThawIfStillCached(uid); });
  });
  if (ar.loading()) {
    pending_thaws_ = std::move(thaws);
  }
}

}  // namespace ice
