#include "src/ice/mdt.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/trace/trace.h"

namespace ice {

Mdt::Mdt(const IceConfig& config, Engine& engine, MemoryManager& mm, Freezer& freezer,
         ActivityManager& am)
    : config_(config), engine_(engine), mm_(mm), freezer_(freezer), am_(am) {
  // Config sanity: Eq. 1 needs a positive H_wm (Experiment fills in the
  // device's), the clamp below assumes a non-empty [min, max] interval, a
  // positive thaw period for Eq. 1's R = E_f / E_t, and a finite δ >= 0.
  ICE_CHECK_GT(config_.hwm_mib, 0u) << "hwm_mib must be positive";
  ICE_CHECK_LE(config_.min_freeze, config_.max_freeze)
      << "min_freeze must not exceed max_freeze";
  ICE_CHECK_GT(config_.thaw_duration, 0u) << "thaw_duration must be positive";
  ICE_CHECK(config_.delta >= 0.0 && std::isfinite(config_.delta))
      << "delta must be finite and non-negative";
}

double Mdt::CurrentR() const {
  double sam_mib =
      static_cast<double>(PagesToBytes(mm_.available_pages())) / static_cast<double>(kMiB);
  sam_mib = std::max(sam_mib, 1.0);
  double exponent = std::ceil(static_cast<double>(config_.hwm_mib) / sam_mib);
  exponent = std::clamp(exponent, 1.0, 10.0);
  return config_.delta * std::pow(2.0, exponent);
}

SimDuration Mdt::CurrentFreezeDuration() const {
  // Clamp in double space BEFORE the integer cast: a large configured δ makes
  // R · E_t exceed int64/uint64 range, and casting an out-of-range double to
  // an integer is UB (and in practice produced garbage freeze durations).
  double ef = CurrentR() * static_cast<double>(config_.thaw_duration);
  double lo = static_cast<double>(config_.min_freeze);
  double hi = static_cast<double>(config_.max_freeze);
  ef = std::clamp(ef, lo, hi);
  return static_cast<SimDuration>(ef);
}

void Mdt::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  BeginFreezePeriod();
}

void Mdt::OnAppFrozen(Uid uid) { managed_.insert(uid); }

void Mdt::Unmanage(Uid uid) { managed_.erase(uid); }

void Mdt::BeginFreezePeriod() {
  ++epochs_;
  in_thaw_period_ = false;
  // Freeze every managed app (those RPF froze during the thaw period are
  // already frozen; this refreezes apps thawed for the period).
  for (Uid uid : managed_) {
    App* app = am_.FindApp(uid);
    if (app != nullptr && app->running() && app->state() != AppState::kForeground) {
      freezer_.FreezeApp(*app);
    }
  }
  // E_f is recomputed at the start of every epoch from current memory state.
  SimDuration ef = CurrentFreezeDuration();
  ICE_TRACE(engine_, TraceEventType::kMdtEpoch, {.arg0 = ef, .arg1 = epochs_});
  pending_ = engine_.ScheduleAfter(ef, [this]() { BeginThawPeriod(); });
}

void Mdt::BeginThawPeriod() {
  in_thaw_period_ = true;
  for (Uid uid : managed_) {
    App* app = am_.FindApp(uid);
    if (app != nullptr && app->frozen()) {
      freezer_.ThawApp(*app);
    }
  }
  pending_ = engine_.ScheduleAfter(config_.thaw_duration, [this]() { BeginFreezePeriod(); });
}

void Mdt::BeginRestore() {
  if (pending_ != kInvalidEventId) {
    engine_.Cancel(pending_);
    pending_ = kInvalidEventId;
  }
}

void Mdt::Transfer(SnapshotArchive& ar) {
  ar.Bool(started_);
  ar.Bool(in_thaw_period_);
  ar.U64(epochs_);
  std::vector<Uid> managed(managed_.begin(), managed_.end());
  ar.Sequence(managed, 8, [&ar](Uid& uid) { ar.I64(uid); });
  if (ar.loading()) {
    managed_ = std::set<Uid>(managed.begin(), managed.end());
  }
  // The pending event is the *next* period boundary: leaving a thaw period
  // begins a freeze period, and vice versa.
  engine_.TransferOptionalEvent(ar, pending_, [this, thaw = in_thaw_period_]() {
    if (thaw) {
      BeginFreezePeriod();
    } else {
      BeginThawPeriod();
    }
  });
}

}  // namespace ice
