// Experiment harness: builds a complete simulated device (engine, flash,
// memory manager, scheduler, system services, freezer, LMK, activity
// manager, choreographer), installs the app catalog and a policy scheme, and
// provides the common drivers the benches and tests share (cache N
// background apps, run scenario X in the foreground, collect metrics).
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/android/activity_manager.h"
#include "src/android/choreographer.h"
#include "src/android/device_profile.h"
#include "src/android/system_services.h"
#include "src/ice/daemon.h"
#include "src/mem/memory_manager.h"
#include "src/metrics/frame_stats.h"
#include "src/policy/registry.h"
#include "src/proc/freezer.h"
#include "src/proc/lmk.h"
#include "src/proc/scheduler.h"
#include "src/sim/engine.h"
#include "src/storage/block_device.h"
#include "src/trace/summary.h"
#include "src/trace/tracer.h"
#include "src/workload/app_catalog.h"
#include "src/workload/scenario.h"

namespace ice {

struct ExperimentConfig {
  DeviceProfile device;
  uint64_t seed = 42;
  // "lru_cfs", "ucsg", "acclaim", "power", "ice".
  std::string scheme = "lru_cfs";
  // Page aging policy: "two_list" (classic active/inactive LRU) or
  // "gen_clock" (MGLRU-style generation clock). A sweepable axis, orthogonal
  // to the scheme (any policy scheme runs on either aging substrate).
  std::string aging = "two_list";
  // Swap-out policy: "baseline" (admit-everything zram) or "hotness" (the
  // Ariadne-style hotness-gated, size-adaptive policy in src/swap/). Another
  // sweepable axis, orthogonal to both scheme and aging.
  std::string swap = "baseline";
  WorkloadTuning tuning;
  bool extended_catalog = false;  // 40 apps (§3.2 study) instead of 20.
  bool disable_gc = false;        // The "idle runtime GC off" experiment.
  SystemServicesConfig services;
  // Optional override of ICE parameters (used by the MDT ablation).
  IceConfig ice;
  // Tracing (ftrace-style ring buffer; see src/trace/). Off by default:
  // a null tracer keeps every ICE_TRACE site to a single branch.
  bool trace = false;
  uint32_t trace_buffer_pages = kDefaultTraceBufferPages;

  ExperimentConfig() : device(P20Profile()) {}
};

// Metrics over one foreground-scenario window.
struct ScenarioResult {
  double avg_fps = 0.0;
  double ria = 0.0;
  std::vector<double> fps_series;  // Per-second.
  uint64_t reclaims = 0;
  uint64_t refaults = 0;
  uint64_t refaults_bg = 0;
  uint64_t refaults_fg = 0;
  uint64_t io_requests = 0;
  uint64_t io_bytes = 0;
  double cpu_util = 0.0;
  uint64_t freezes = 0;
  uint64_t thaws = 0;
  uint64_t lmk_kills = 0;
  // High-water mark of the simulator's own page-metadata arenas
  // (MemoryManager::arena_bytes_peak()) over the experiment lifetime, so
  // sweep reports carry the same metadata-footprint figure fleet reports do.
  uint64_t arena_bytes_peak = 0;
  // Swap-policy observability: capacity rejects are meaningful under any
  // policy; the rest move only under "hotness" and are reported only then.
  uint64_t zram_rejects = 0;
  uint64_t swap_rejects_hot = 0;
  uint64_t swap_writeback_pages = 0;
  uint64_t swap_stores_fast = 0;
  uint64_t swap_stores_dense = 0;
  // Compressed-size distribution of every zram store (hotness policy only;
  // empty under baseline). Shape is the shared kZramSizeHist* bucketing.
  MergeHistogram zram_compressed_bytes{MergeHistogram::Options{
      kZramSizeHistLo, kZramSizeHistHi, kZramSizeHistBuckets}};
  // Filled from the experiment's tracer when tracing is enabled.
  TraceSummary trace;
};

// Deterministic digest of every ExperimentConfig field that shapes
// simulation state. Equal digests on raw configs imply the two runs evolve
// identically; snapshots store it to reject a restore under another config.
std::string ConfigFingerprint(const ExperimentConfig& config);

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  Engine& engine() { return *engine_; }
  BlockDevice& storage() { return *storage_; }
  MemoryManager& mm() { return *mm_; }
  Scheduler& scheduler() { return *scheduler_; }
  Freezer& freezer() { return *freezer_; }
  Lmk& lmk() { return *lmk_; }
  ActivityManager& am() { return *am_; }
  Choreographer& choreographer() { return *choreographer_; }
  Scheme& scheme() { return *scheme_; }
  // Null unless config.trace was set.
  Tracer* tracer() { return tracer_.get(); }
  const ExperimentConfig& config() const { return config_; }
  const std::vector<CatalogApp>& catalog() const { return catalog_; }

  // Uid of an installed catalog app by package name (aborts when missing).
  Uid UidOf(const std::string& package) const;
  // All installed catalog uids, in catalog order.
  std::vector<Uid> CatalogUids() const;

  // Launches `n` catalog apps (chosen pseudo-randomly, excluding `exclude`)
  // and sends each to the background after `settle` of foreground time.
  // Equivalent to PlanBackgroundPool + n times CacheOneBackgroundApp +
  // FinishCaching — the decomposed form `icesim_cli --snapshot` uses to save
  // at the last caching boundary.
  std::vector<Uid> CacheBackgroundApps(int n, const std::vector<Uid>& exclude = {},
                                       SimDuration settle = Ms(2500));

  // The full shuffled candidate pool for background caching (all catalog
  // apps minus `exclude`). Draws from the engine RNG, so the sequence of
  // pools is deterministic for a given config and call order. The shuffle
  // always covers the whole pool, making the RNG draw count independent of
  // how many apps the caller then caches.
  std::vector<Uid> PlanBackgroundPool(const std::vector<Uid>& exclude = {});

  // Launches one app, waits for it to become interactive, lets it settle in
  // the foreground, then settles the whole system to a quiescent tick
  // boundary (so a snapshot may be taken). Returns false when quiescence was
  // not reached within the bounded search — the caller must then not
  // snapshot at this boundary.
  bool CacheOneBackgroundApp(Uid uid, SimDuration settle = Ms(2500));

  // Sends the last cached app to the background and gives the system a
  // second to absorb it; call once after the final CacheOneBackgroundApp.
  void FinishCaching();

  // ---- Snapshot / restore ---------------------------------------------
  //
  // A snapshot captures the complete simulator state at a quiescent tick
  // boundary: no faults or IO in flight, every task idle at its steady
  // state, choreographer not yet started. Restoring into a freshly
  // constructed Experiment with the *same config* resumes bit-identically —
  // the restored run's outputs match an uninterrupted run byte for byte.

  // True when the system is quiescent right now (safe to snapshot).
  bool QuiescentNow() const;

  // Runs single ticks (up to `max_ticks`) until QuiescentNow(); returns
  // whether quiescence was reached. Runs in *every* caching path, snapshotted
  // or not, so saved, restored and uninterrupted runs advance the clock
  // identically. The default
  // bound (2 simulated seconds) rides out a full-pressure device: with every
  // background slot filled, joint idle windows across all tasks are rare and
  // a few hundred ticks of search is routinely needed.
  bool SettleToQuiescence(int max_ticks = 2000);

  // Deterministic digest of every config field that shapes simulation
  // state (ConfigFingerprint of the normalized config). Stored in the
  // snapshot and checked on restore: restoring under a different config is
  // a hard error, not a silent divergence.
  std::string Fingerprint() const;

  // Serializes the full state (aborts if !QuiescentNow()).
  std::vector<uint8_t> SaveSnapshot() const;
  // Same, into a caller-owned writer; the caller calls Finish() when done.
  void SaveSnapshotInto(BinaryWriter& w) const;
  void SaveSnapshotToFile(const std::string& path) const;

  // Builds an Experiment from `config` and restores `snapshot` into it.
  // Throws std::runtime_error on a corrupt/truncated/mismatched stream.
  // `verify_checksum = false` skips the whole-stream checksum scan; only for
  // snapshots that never left this process — anything read from disk should
  // verify.
  static std::unique_ptr<Experiment> RestoreSnapshot(
      const ExperimentConfig& config, const std::vector<uint8_t>& snapshot,
      bool verify_checksum = true);
  static std::unique_ptr<Experiment> RestoreSnapshotFromFile(
      const ExperimentConfig& config, const std::string& path);

  // ---- Warm-boot templates (instance recycling) -----------------------
  //
  // The fleet runner no longer uses this: every fleet device is constructed
  // and booted cold (FleetRunner::RunDevice). It remains for the bench/e2e
  // fleet replay and its tests.
  //
  // RestoreTemplate rewinds this *live* Experiment back to the snapshot
  // instead of constructing a fresh one: every running app is killed with
  // listeners suppressed, the event wheel / scheduler / activity manager /
  // memory manager / block device are reset to their post-construction
  // shape (keeping their allocations — timing-wheel node pool, task
  // scratch, arena pools, writer capacity), and the snapshot is overlaid
  // via the normal restore path. The trace RNG is then reseeded from
  // `new_seed` and config().seed updated, so the recycled instance is
  // indistinguishable from a cold Experiment(config with seed=new_seed)
  // restored from the same template: boot consumes zero draws from the
  // device-seed stream (they all come from Engine::noise_rng()), so the
  // snapshot is seed-independent apart from the fingerprint text. The
  // fingerprint check is therefore seed-agnostic on this path; every other
  // config field must still match exactly. The checksum scan is skipped —
  // templates never leave the process.
  void RestoreTemplate(const std::vector<uint8_t>& snapshot, uint64_t new_seed);

  // Launches the scenario's own app in the foreground and runs the scenario
  // for `warmup + duration`, measuring only over the final `duration` — the
  // warmup brings the memory system to its hot steady state, like the
  // paper's sampled periods from long-running sessions.
  ScenarioResult RunScenario(ScenarioKind kind, SimDuration duration,
                             SimDuration warmup = Sec(240));
  ScenarioResult RunScenarioForApp(Uid uid, ScenarioKind kind, SimDuration duration,
                                   SimDuration warmup = Sec(240));

  // Runs until the app's pending launch completes (bounded wait).
  void AwaitInteractive(Uid uid, SimDuration timeout = Sec(30));

 private:
  // Shared constructor body: builds the device, then either settles the
  // fresh system (snapshot == nullptr) or restores the saved state.
  Experiment(const ExperimentConfig& config, const std::vector<uint8_t>* snapshot,
             bool verify_checksum = true);

  // `seed_agnostic` compares fingerprints with the seed token stripped
  // (RestoreTemplate overlays a donor snapshot onto a different seed).
  void RestoreFromBytes(const std::vector<uint8_t>& snapshot, bool verify_checksum,
                        bool seed_agnostic = false);

  // Teardown half of RestoreTemplate; see the member comment there for the
  // ordering contract between the wheel clear, task destruction, and the
  // process graveyard.
  void ResetForRecycle();

  ExperimentConfig config_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<BlockDevice> storage_;
  std::unique_ptr<MemoryManager> mm_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<SystemServices> services_;
  std::unique_ptr<Freezer> freezer_;
  std::unique_ptr<Lmk> lmk_;
  std::unique_ptr<ActivityManager> am_;
  std::unique_ptr<Choreographer> choreographer_;
  std::unique_ptr<Scheme> scheme_;
  std::vector<CatalogApp> catalog_;
  std::vector<Uid> catalog_uids_;
  // Tasks alive at the end of construction (kswapd + system services); the
  // boundary ResetForRecycle truncates the scheduler's task vector back to.
  size_t boot_task_count_ = 0;
};

}  // namespace ice

#endif  // SRC_HARNESS_EXPERIMENT_H_
