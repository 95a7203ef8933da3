// Population-scale fleet runner: simulates N devices, each a
// (device-tier, policy, per-device seed) cell driving a stochastic
// daily-usage trace (src/workload/usage_trace), and streams the results into
// per-(policy x tier) mergeable histograms instead of per-device records —
// a million cells cannot each write a JSON blob.
//
// Execution model: devices are grouped into fixed-size chunks, and the
// chunks run on the sweep worker pool (SweepRunner::Dispatch), whose workers
// take chunk indices from one atomic counter, in increasing order. A worker
// that finishes a chunk takes the next index, so a straggler (e.g. an
// entry-tier device thrashing through LMK) does not idle the other cores.
// Each chunk accumulates its own partial FleetGroupStats; finished partials
// are folded into the global aggregate *in chunk-index order* ("ordered
// streaming fold"). Because chunks also start in index order, a partial
// waits only for lower-indexed chunks still running, so the partials
// waiting to fold are bounded by the scheduling skew between workers, never
// by N. Measured at 2,000 devices (65 chunks) and --jobs=4: at most 3
// partials waited, against 49 when each worker owned a contiguous block of
// chunks (DESIGN.md "Fleet runs").
//
// Determinism contract (shard-independent): a device's results depend only
// on its index (tier, scheme, seed are all pure functions of it), and the
// reduce order is fixed by chunk index — so the fleet output is
// byte-identical for any jobs=N. CI diffs --jobs=1 vs --jobs=8 reports.
// Changing `chunk` (or `devices`) regroups the double-precision sums and is
// NOT covered by the byte-identity guarantee; chunk size is therefore a pure
// function of the device count, never of the worker count.
#ifndef SRC_HARNESS_FLEET_H_
#define SRC_HARNESS_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/merge_histogram.h"
#include "src/base/units.h"
#include "src/swap/swap_policy.h"

namespace ice {

struct ExperimentConfig;

struct FleetConfig {
  uint64_t devices = 1000;
  int jobs = 0;    // <= 0: DefaultSweepJobs() (ICE_JOBS env or all cores).
  uint32_t chunk = 0;  // Devices per chunk; 0 = auto (a function of `devices` only).
  uint64_t seed = 1;   // Fleet seed; per-device seeds are derived from it.
  std::vector<std::string> schemes{"lru_cfs", "ice"};
  // Page aging policy for every device ("two_list" / "gen_clock").
  std::string aging = "two_list";
  // Swap-out policy for every device ("baseline" / "hotness").
  std::string swap = "baseline";
  // Tier names (see FleetTierNames()); empty = the full default ladder.
  std::vector<std::string> tiers;
  // Per-device daily-usage shape: one compressed "day" of foreground
  // sessions. Small defaults keep a 10k-device fleet inside a CI smoke
  // budget; scale up locally for longer days.
  int sessions = 3;
  SimDuration session_mean = Sec(4);
  double session_sigma = 0.4;
  // Selects nothing; it remains only because bench/e2e sets it.
  bool use_templates = true;
};

// Streaming aggregate for one (tier, scheme) cell of the fleet. All fields
// merge associatively; MergeFrom is the reduce step and must be applied in
// chunk-index order for byte-stable double sums (see header comment).
struct FleetGroupStats {
  std::string tier;
  std::string scheme;
  uint64_t devices = 0;
  uint64_t failures = 0;
  // First failure by device index, kept for the report; the ordered fold
  // makes "first" deterministic.
  uint64_t first_error_device = UINT64_MAX;
  std::string first_error;

  // Per-frame latency across every device of the group.
  MergeHistogram frame_latency_us{{100.0, 1e6, 96}};
  // Per-device distributions.
  MergeHistogram fps{{1.0, 240.0, 96}};
  MergeHistogram ria{{1e-4, 1.0, 48}};
  MergeHistogram refaults{{1.0, 1e8, 80}};
  MergeHistogram lmk_kills{{1.0, 1e4, 32}};
  // Per-store compressed sizes across the group's devices (hotness swap
  // policy only; stays empty — and unreported — under baseline).
  MergeHistogram zram_compressed_bytes{
      {kZramSizeHistLo, kZramSizeHistHi, kZramSizeHistBuckets}};

  uint64_t total_frames = 0;
  uint64_t total_refaults = 0;
  uint64_t total_lmk_kills = 0;
  // Max over devices of MemoryManager::arena_bytes_peak() — the simulator's
  // metadata footprint headroom figure for the tier.
  uint64_t peak_arena_bytes = 0;

  void MergeFrom(const FleetGroupStats& other);
};

struct FleetResult {
  FleetConfig config;  // As resolved (jobs/chunk/tiers filled in).
  // Tier-major x scheme-minor, matching FleetRunner::GroupOf.
  std::vector<FleetGroupStats> groups;
  uint64_t devices_failed = 0;
  uint64_t peak_arena_bytes = 0;  // Fleet-wide max.
  double wall_seconds = 0.0;      // Never serialized (nondeterministic).
};

class FleetRunner {
 public:
  explicit FleetRunner(const FleetConfig& config);

  FleetResult Run() const;

  const FleetConfig& config() const { return config_; }
  size_t num_groups() const { return config_.tiers.size() * config_.schemes.size(); }
  // Stratified assignment: device i belongs to group i % num_groups(), so
  // every group sees the same device count (+/- 1) and the same spread of
  // seeds regardless of N.
  size_t GroupOf(uint64_t device_index) const { return device_index % num_groups(); }
  uint32_t chunk_size() const { return chunk_; }
  uint64_t num_chunks() const;

  // SplitMix64 over (fleet seed, device index): decorrelated per-device
  // streams from one fleet seed.
  static uint64_t DeviceSeed(uint64_t fleet_seed, uint64_t device_index);

  // Runs one device cell — construct its Experiment, settle to quiescence,
  // run the daily-usage trace — and folds its metrics into `group` (which
  // must be the accumulator for GroupOf(device_index)).
  void RunDevice(uint64_t device_index, FleetGroupStats& group) const;

 private:
  // The experiment config for one (tier, scheme) group; everything but the
  // seed is a pure function of the group index.
  ExperimentConfig GroupConfig(size_t group, uint64_t seed) const;
  void RunChunk(uint64_t chunk_index, std::vector<FleetGroupStats>& partial) const;
  std::vector<FleetGroupStats> MakeAccumulators() const;

  FleetConfig config_;
  uint32_t chunk_ = 1;
};

}  // namespace ice

#endif  // SRC_HARNESS_FLEET_H_
