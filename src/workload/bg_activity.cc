#include "src/workload/bg_activity.h"

#include <algorithm>
#include <memory>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/task.h"

namespace ice {

PeriodicTouchBehavior::PeriodicTouchBehavior(const Params& params) : params_(params) {
  ICE_CHECK(params_.region_count == 1 || params_.region_count == 2);
  for (int i = 0; i < params_.region_count; ++i) {
    uint32_t span = params_.regions[i].end - params_.regions[i].begin;
    ICE_CHECK_GT(span, 0u);
    zipf_[i] = ZipfDist(span, params_.zipf_s);
  }
}

PeriodicTouchBehavior::Sample PeriodicTouchBehavior::SampleVpn(Rng& rng) const {
  int i = 0;
  if (params_.region_count > 1) {
    double total = params_.regions[0].weight + params_.regions[1].weight;
    if (rng.NextDouble() * total >= params_.regions[0].weight) {
      i = 1;
    }
  }
  const Region& region = params_.regions[i];
  return {region.space, region.begin + static_cast<uint32_t>(zipf_[i].Sample(rng))};
}

void PeriodicTouchBehavior::Run(TaskContext& ctx) {
  if (!started_) {
    started_ = true;
    SimDuration phase =
        1 + ctx.rng().Below(static_cast<uint32_t>(std::max<SimDuration>(params_.period, 2)));
    ctx.SleepFor(phase);
    return;
  }
  while (!ctx.ShouldStop()) {
    if (!burst_open_) {
      burst_open_ = true;
      remaining_touches_ = params_.touches_per_burst;
      remaining_cpu_ = params_.cpu_per_burst;
    }
    // Each touch first draws the burst's samples up to
    // kTouchPrefetchDistance touches ahead (never past its end) and starts
    // loading their page records.
    auto draw = [this](Rng& rng) { return SampleVpn(rng); };
    auto prefetch = [](const Sample& ahead) { ahead.space->Prefetch(ahead.vpn); };
    while (remaining_touches_ > 0) {
      Sample s = lookahead_.Take(ctx.rng(), draw);
      --remaining_touches_;
      lookahead_.Fill(ctx.rng(), std::min<uint32_t>(remaining_touches_, kTouchPrefetchDistance),
                      draw, prefetch);
      ctx.Touch(*s.space, s.vpn, /*write=*/false);
      if (ctx.ShouldStop()) {
        return;
      }
    }
    while (remaining_cpu_ > 0) {
      SimDuration rem = ctx.budget() > ctx.used() ? ctx.budget() - ctx.used() : 0;
      SimDuration chunk = std::min(remaining_cpu_, std::max<SimDuration>(rem, 1));
      ctx.Compute(chunk);
      remaining_cpu_ -= chunk;
      if (ctx.ShouldStop() && remaining_cpu_ > 0) {
        return;
      }
    }
    burst_open_ = false;
    // Sleep out the remainder of the (jittered) period past the burst's CPU
    // cost, keeping the duty cycle steady.
    double jitter = 1.0 + params_.jitter * (2.0 * ctx.rng().NextDouble() - 1.0);
    double sleep_target = static_cast<double>(params_.period) * jitter -
                          static_cast<double>(params_.cpu_per_burst);
    ctx.SleepFor(static_cast<SimDuration>(std::max(1.0, sleep_target)));
    return;
  }
}

void PeriodicTouchBehavior::Transfer(SnapshotArchive& ar) {
  ar.Bool(started_);
  ar.U32(remaining_touches_);
  ar.U64(remaining_cpu_);
  ar.Bool(burst_open_);
  if (!ar.loading()) {
    return;
  }
  lookahead_.Clear();
  bool leftovers = remaining_touches_ > 0 || remaining_cpu_ > 0;
  if (remaining_touches_ > params_.touches_per_burst || remaining_cpu_ > params_.cpu_per_burst) {
    SnapshotArchive::Fail("periodic-touch countdown exceeds its per-burst value");
  }
  if (!started_ && (leftovers || burst_open_)) {
    SnapshotArchive::Fail("periodic-touch behavior carries a burst before it started");
  }
  if (!burst_open_ && leftovers) {
    SnapshotArchive::Fail("periodic-touch countdown left over after its burst closed");
  }
}

void AttachBgActivity(ActivityManager& am, App& app, const BgActivityParams& params,
                      bool disable_gc) {
  AddressSpace* main = am.main_space(app.uid());
  AddressSpace* svc = am.service_space(app.uid());
  ICE_CHECK(main != nullptr);

  const AppDescriptor& desc = am.descriptor(app.uid());
  // Hot prefixes: the part of each region the cold launch populated.
  auto prefix_end = [](uint32_t begin, uint32_t end, double fraction) {
    return begin + static_cast<uint32_t>((end - begin) * fraction);
  };
  uint32_t java_hot = prefix_end(main->java_begin(), main->java_end(),
                                 desc.cold_touch_fraction * 0.8);
  uint32_t native_hot = prefix_end(main->native_begin(), main->native_end(),
                                   desc.cold_touch_fraction * 0.8);
  uint32_t file_hot = prefix_end(main->file_begin(), main->file_end(),
                                 desc.cold_touch_fraction);

  if (!disable_gc && main->layout().java_pages > 0) {
    PeriodicTouchBehavior::Params gc;
    gc.regions[0] = {main, main->java_begin(),
                     std::max(java_hot, main->java_begin() + 1), 1.0};
    gc.region_count = 1;
    gc.zipf_s = 0.05;  // The mark phase is essentially uniform over the heap.
    uint32_t java_span = gc.regions[0].end - gc.regions[0].begin;
    gc.touches_per_burst =
        std::max<uint32_t>(1, static_cast<uint32_t>(java_span * params.gc_touch_fraction));
    gc.cpu_per_burst = params.gc_cpu;
    gc.period = params.gc_period;
    am.CreateAppTask(app, "HeapTaskDaemon", /*nice=*/5,
                     std::make_unique<PeriodicTouchBehavior>(gc));
  }

  if (params.main_thread_active) {
    PeriodicTouchBehavior::Params sync;
    sync.regions[0] = {main, main->native_begin(),
                       std::max(native_hot, main->native_begin() + 1), 0.55};
    sync.regions[1] = {main, main->file_begin(),
                       std::max(file_hot, main->file_begin() + 1), 0.45};
    sync.region_count = 2;
    sync.zipf_s = 0.05;  // Feed/cache parsing walks buffers broadly.
    // Size each burst so ~broad_coverage_per_30s of the prefix is touched
    // every 30 s (Fig. 4: >30 % of reclaimed pages refault within 30 s).
    uint64_t span = (sync.regions[0].end - sync.regions[0].begin) +
                    (sync.regions[1].end - sync.regions[1].begin);
    double bursts_per_30s = 30.0 * kSecond / static_cast<double>(params.sync_period);
    sync.touches_per_burst = std::max<uint32_t>(
        50, static_cast<uint32_t>(span * params.broad_coverage_per_30s / bursts_per_30s));
    sync.cpu_per_burst = params.sync_cpu;
    sync.period = params.buggy_wakeful ? params.sync_period / 3 : params.sync_period;
    am.CreateAppTask(app, "main-bg", /*nice=*/0,
                     std::make_unique<PeriodicTouchBehavior>(sync));
  }

  if (svc != nullptr && svc->total_pages() > 0) {
    PeriodicTouchBehavior::Params service;
    service.regions[0] = {svc, 0, static_cast<uint32_t>(svc->total_pages()), 1.0};
    service.region_count = 1;
    service.zipf_s = 0.7;
    service.touches_per_burst = params.service_touches;
    service.cpu_per_burst = params.service_cpu;
    service.period = params.service_period;
    am.CreateAppTask(app, "svc-worker", /*nice=*/5,
                     std::make_unique<PeriodicTouchBehavior>(service),
                     /*in_service_process=*/true);
  }
}

}  // namespace ice
