#include "src/harness/fleet.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "src/base/log.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/mem/aging.h"
#include "src/workload/usage_trace.h"

namespace ice {

void FleetGroupStats::MergeFrom(const FleetGroupStats& other) {
  devices += other.devices;
  failures += other.failures;
  if (other.first_error_device < first_error_device) {
    first_error_device = other.first_error_device;
    first_error = other.first_error;
  }
  frame_latency_us.Merge(other.frame_latency_us);
  fps.Merge(other.fps);
  ria.Merge(other.ria);
  refaults.Merge(other.refaults);
  lmk_kills.Merge(other.lmk_kills);
  zram_compressed_bytes.Merge(other.zram_compressed_bytes);
  total_frames += other.total_frames;
  total_refaults += other.total_refaults;
  total_lmk_kills += other.total_lmk_kills;
  peak_arena_bytes = std::max(peak_arena_bytes, other.peak_arena_bytes);
}

FleetRunner::FleetRunner(const FleetConfig& config) : config_(config) {
  if (config_.tiers.empty()) {
    config_.tiers = FleetTierNames();
  }
  for (const std::string& tier : config_.tiers) {
    ICE_CHECK(IsFleetTier(tier)) << "unknown fleet tier: " << tier;
  }
  ICE_CHECK(!config_.schemes.empty());
  // Scheme names and both policy axes fail here, before any worker starts,
  // not inside the first device's Experiment.
  const std::vector<std::string> known = SchemeNames();
  for (const std::string& scheme : config_.schemes) {
    ICE_CHECK(std::find(known.begin(), known.end(), scheme) != known.end())
        << "unknown scheme: " << scheme;
  }
  AgingPolicy aging{};
  ICE_CHECK(AgingPolicyFromName(config_.aging, &aging))
      << "unknown aging policy: " << config_.aging;
  SwapPolicy swap{};
  ICE_CHECK(SwapPolicyFromName(config_.swap, &swap)) << "unknown swap policy: " << config_.swap;
  ICE_CHECK_GE(config_.sessions, 1);
  if (config_.jobs <= 0) {
    config_.jobs = DefaultSweepJobs();
  }
  if (config_.chunk == 0) {
    // Auto chunking: coarse enough that the ordered fold and the pool's
    // counter are cheap, fine enough that workers stay balanced around
    // stragglers. A pure function of the device count — never of jobs — so
    // the per-chunk double-sum grouping (and hence the output bytes) is
    // shard-independent.
    config_.chunk = static_cast<uint32_t>(
        std::clamp<uint64_t>(config_.devices / 64, 1, 256));
  }
  chunk_ = config_.chunk;
}

uint64_t FleetRunner::num_chunks() const {
  return (config_.devices + chunk_ - 1) / chunk_;
}

uint64_t FleetRunner::DeviceSeed(uint64_t fleet_seed, uint64_t device_index) {
  // SplitMix64 with the index folded in; decorrelates neighbouring devices.
  uint64_t z = fleet_seed + 0x9e3779b97f4a7c15ULL * (device_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<FleetGroupStats> FleetRunner::MakeAccumulators() const {
  std::vector<FleetGroupStats> groups(num_groups());
  for (size_t t = 0; t < config_.tiers.size(); ++t) {
    for (size_t s = 0; s < config_.schemes.size(); ++s) {
      FleetGroupStats& g = groups[t * config_.schemes.size() + s];
      g.tier = config_.tiers[t];
      g.scheme = config_.schemes[s];
    }
  }
  return groups;
}

ExperimentConfig FleetRunner::GroupConfig(size_t group, uint64_t seed) const {
  ExperimentConfig ec;
  ec.aging = config_.aging;
  ec.swap = config_.swap;
  ec.device = FleetTierProfile(config_.tiers[group / config_.schemes.size()]);
  ec.scheme = config_.schemes[group % config_.schemes.size()];
  ec.seed = seed;
  return ec;
}

void FleetRunner::RunDevice(uint64_t device_index, FleetGroupStats& group) const {
  Experiment exp(GroupConfig(GroupOf(device_index),
                             DeviceSeed(config_.seed, device_index)));
  // The trace starts at the post-boot quiescent boundary. Boot draws nothing
  // from the device-seed stream, so this boundary — and therefore where each
  // device's clock starts — is a pure function of the group config. If the
  // bounded search fails, the trace starts wherever it stopped.
  exp.SettleToQuiescence();
  std::vector<UsageTraceRunner::InstalledApp> apps;
  apps.reserve(exp.catalog().size());
  const std::vector<Uid> uids = exp.CatalogUids();
  for (size_t i = 0; i < exp.catalog().size(); ++i) {
    apps.push_back({uids[i], exp.catalog()[i].category});
  }

  UsageTraceRunner::Config tc;
  tc.days = 1;
  tc.sessions_per_day = config_.sessions;
  tc.session_mean = config_.session_mean;
  tc.session_sigma = config_.session_sigma;
  // The fleet aggregates endpoint metrics only; disable the per-interval
  // cumulative samples the Fig 3 study wants.
  tc.sample_interval = Sec(24 * 3600);
  UsageTraceRunner runner(exp.am(), exp.choreographer(), apps,
                          exp.engine().rng().Fork(), tc);
  runner.Run();

  const FrameStats& frames = exp.choreographer().stats();
  for (double latency : frames.latency_us().values()) {
    group.frame_latency_us.Add(latency);
  }
  const SimTime end = exp.engine().now();
  group.fps.Add(frames.AverageFps(0, end));
  group.ria.Add(frames.Ria());
  const StatsRegistry& st = exp.engine().stats();
  const uint64_t refaults = st.Get(stat::kRefaults);
  const uint64_t kills = st.Get(stat::kLmkKills);
  group.refaults.Add(static_cast<double>(refaults));
  group.lmk_kills.Add(static_cast<double>(kills));
  group.zram_compressed_bytes.Merge(exp.mm().swap_governor().compressed_bytes());
  group.total_frames += frames.frames_completed();
  group.total_refaults += refaults;
  group.total_lmk_kills += kills;
  group.peak_arena_bytes = std::max(group.peak_arena_bytes, exp.mm().arena_bytes_peak());
  ++group.devices;
}

void FleetRunner::RunChunk(uint64_t chunk_index,
                           std::vector<FleetGroupStats>& partial) const {
  const uint64_t begin = chunk_index * chunk_;
  const uint64_t end = std::min(begin + chunk_, config_.devices);
  for (uint64_t i = begin; i < end; ++i) {
    FleetGroupStats& g = partial[GroupOf(i)];
    std::string error;
    if (!CaptureFailure([&] { RunDevice(i, g); }, &error)) {
      ++g.failures;
      if (i < g.first_error_device) {
        g.first_error_device = i;
        g.first_error = std::move(error);
      }
    }
  }
}

FleetResult FleetRunner::Run() const {
  const auto t0 = std::chrono::steady_clock::now();
  FleetResult result;
  result.config = config_;
  result.groups = MakeAccumulators();

  // Ordered streaming fold: a finished chunk's partial waits until every
  // lower-indexed chunk has folded, so the reduce order — and therefore every
  // double sum — is independent of which worker ran what. The pool hands
  // chunks out in index order, so the partials waiting at any moment are
  // bounded by the scheduling skew between workers, not by the fleet size.
  std::mutex fold_mu;
  std::map<uint64_t, std::vector<FleetGroupStats>> pending;
  uint64_t next_fold = 0;
  const uint64_t chunks = num_chunks();
  SweepRunner(config_.jobs).Dispatch(chunks, [&, this](size_t chunk) {
    std::vector<FleetGroupStats> partial = MakeAccumulators();
    RunChunk(chunk, partial);
    std::lock_guard<std::mutex> lock(fold_mu);
    pending.emplace(chunk, std::move(partial));
    while (!pending.empty() && pending.begin()->first == next_fold) {
      std::vector<FleetGroupStats>& ready = pending.begin()->second;
      for (size_t g = 0; g < result.groups.size(); ++g) {
        result.groups[g].MergeFrom(ready[g]);
      }
      pending.erase(pending.begin());
      ++next_fold;
    }
  });
  ICE_CHECK_EQ(next_fold, chunks);

  for (const FleetGroupStats& g : result.groups) {
    result.devices_failed += g.failures;
    result.peak_arena_bytes = std::max(result.peak_arena_bytes, g.peak_arena_bytes);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace ice
