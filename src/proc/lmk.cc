#include "src/proc/lmk.h"

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

Lmk::Lmk(Engine& engine, MemoryManager& mm) : engine_(engine), mm_(mm) {
  engine_.AddTicker(this);
}

Lmk::~Lmk() { engine_.RemoveTicker(this); }

void Lmk::InstallOomHandler() {
  mm_.set_oom_handler([this]() { return KillOne(); });
}

void Lmk::Tick(SimTime now) {
  if (now < next_check_) {
    return;
  }
  next_check_ = now + kCheckPeriod;
  PageCount free = mm_.free_pages() < 0 ? 0 : static_cast<PageCount>(mm_.free_pages());

  // Refault-rate EWMA (the PSI signal), sampled every check period.
  uint64_t refaults = engine_.stats().Get(stat::kRefaults);
  double instant_rate =
      static_cast<double>(refaults - last_refaults_) * (kSecond / kCheckPeriod);
  last_refaults_ = refaults;
  constexpr double kAlpha = 0.06;  // ~1.5 s smoothing at 100 ms samples.
  refault_rate_ewma_ += kAlpha * (instant_rate - refault_rate_ewma_);
  // lmkd-style triggers:
  //  * sustained pressure below the min watermark with no cheaply
  //    reclaimable file cache left;
  //  * the minfree ladder: MemAvailable below the cached-app threshold;
  //  * the zram wall: swap exhausted while the zone is under its low
  //    watermark (anonymous memory can no longer be reclaimed at all);
  //  * the SWAM-style swap signal: the hotness swap policy reports the pool
  //    can no longer absorb anon reclaim (recent capacity reject), so swap
  //    and the killer coordinate instead of racing. Always 0.0 under the
  //    baseline policy, which keeps pre-existing runs bit-for-bit.
  bool direct_pressure =
      free <= mm_.watermarks().min && mm_.available_pages() < mm_.watermarks().low;
  bool minfree_hit = minfree_pages_ > 0 && mm_.available_pages() < minfree_pages_;
  bool zram_wall = !mm_.zram().HasRoom() && free < mm_.watermarks().low;
  bool psi_hit = psi_threshold_ > 0.0 && refault_rate_ewma_ > psi_threshold_;
  bool swap_hit = mm_.SwapPressure() >= 1.0 && free < mm_.watermarks().low;
  if (direct_pressure || minfree_hit || zram_wall || psi_hit || swap_hit) {
    KillOne();
  }
}

bool Lmk::KillOne() {
  SimTime now = engine_.now();
  if (ever_killed_ && now - last_kill_time_ < kMinKillInterval) {
    return false;  // Let the previous kill's memory land first.
  }
  if (!kill_fn_) {
    return false;
  }
  if (!kill_fn_()) {
    return false;
  }
  last_kill_time_ = now;
  ever_killed_ = true;
  engine_.stats().Increment(stat::kLmkKills);
  return true;
}

void Lmk::Transfer(SnapshotArchive& ar) {
  ar.U64(last_refaults_);
  ar.F64(refault_rate_ewma_);
  ar.U64(last_kill_time_);
  ar.Bool(ever_killed_);
  ar.Expect<uint64_t>(engine_.stats().Get(stat::kLmkKills), "lmk kill count");
  ar.U64(next_check_);
}

}  // namespace ice
