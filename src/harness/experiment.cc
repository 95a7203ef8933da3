#include "src/harness/experiment.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/policy/acclaim.h"
#include "src/policy/power_manager.h"
#include "src/policy/ucsg.h"
#include "src/workload/bg_activity.h"

namespace ice {

namespace {
// Top-level snapshot section tags (envelope: src/base/binary_stream.h).
// Restore order matters: the activity manager replays its lifecycle log,
// recreating every process and address space with the same ids structural
// construction produced — so it must precede the memory-manager and
// scheduler sections that index into those objects.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionEngine = 2;
constexpr uint32_t kSectionActivityManager = 3;
constexpr uint32_t kSectionMemory = 4;
constexpr uint32_t kSectionScheduler = 5;
constexpr uint32_t kSectionStorage = 6;
constexpr uint32_t kSectionFreezer = 7;
constexpr uint32_t kSectionLmk = 8;
constexpr uint32_t kSectionScheme = 9;
constexpr uint32_t kSectionTrace = 10;

// Fingerprint with the " seed=<n>" token removed, for the seed-agnostic
// comparison RestoreTemplate needs (a warm-boot template is valid for any
// seed of its group: boot consumes no device-seed draws).
std::string StripSeedToken(const std::string& fp) {
  size_t pos = fp.find(" seed=");
  if (pos == std::string::npos) {
    return fp;
  }
  size_t end = fp.find(' ', pos + 1);
  return fp.substr(0, pos) + (end == std::string::npos ? "" : fp.substr(end));
}

// Only ICE takes parameters; the other schemes are default-built.
template <class S>
std::unique_ptr<Scheme> Make([[maybe_unused]] const IceConfig& ice) {
  if constexpr (std::is_same_v<S, IceDaemon>) {
    return std::make_unique<IceDaemon>(ice);
  } else {
    return std::make_unique<S>();
  }
}

// Every scheme an experiment can run, by ExperimentConfig::scheme name.
constexpr struct {
  const char* name;
  std::unique_ptr<Scheme> (*make)(const IceConfig& ice);
} kSchemes[] = {
    {"lru_cfs", Make<LruCfsScheme>},
    {"ucsg", Make<UcsgScheme>},
    {"acclaim", Make<AcclaimScheme>},
    {"power", Make<PowerManagerScheme>},
    {"ice", Make<IceDaemon>},
    {"nice19", Make<MaxDeprioritizeScheme>},
};
}  // namespace

std::unique_ptr<Scheme> MakeScheme(const std::string& name, const IceConfig& ice) {
  for (const auto& entry : kSchemes) {
    if (name == entry.name) {
      return entry.make(ice);
    }
  }
  return nullptr;
}

std::vector<std::string> SchemeNames() {
  std::vector<std::string> names;
  for (const auto& entry : kSchemes) {
    names.push_back(entry.name);
  }
  return names;
}

Experiment::Experiment(const ExperimentConfig& config) : Experiment(config, nullptr) {}

Experiment::Experiment(const ExperimentConfig& config,
                       const std::vector<uint8_t>* snapshot, bool verify_checksum)
    : config_(config) {
  if (config_.ice.hwm_mib == 0) {
    // Table 4: H_wm for Eq. 1 comes from the device configuration.
    config_.ice.hwm_mib = config_.device.mdt_hwm_mib;
  }
  // Names are checked before anything is built, and a bad one throws, so a
  // sweep cell with a bad name fails alone.
  MemConfig mem_config = config_.device.mem;
  if (!AgingPolicyFromName(config_.aging, &mem_config.aging)) {
    throw std::invalid_argument("unknown aging policy: " + config_.aging);
  }
  if (!SwapPolicyFromName(config_.swap, &mem_config.swap.policy)) {
    throw std::invalid_argument("unknown swap policy: " + config_.swap);
  }
  scheme_ = MakeScheme(config_.scheme, config_.ice);
  if (scheme_ == nullptr) {
    throw std::invalid_argument("unknown scheme '" + config_.scheme + "'");
  }

  engine_ = std::make_unique<Engine>(config_.seed);
  if (config_.trace) {
    // Install before any subsystem exists so task creation can register
    // names and no early event is missed.
    tracer_ = std::make_unique<Tracer>(config_.trace_buffer_pages);
    engine_->set_tracer(tracer_.get());
  }
  storage_ = std::make_unique<BlockDevice>(*engine_, config_.device.flash);
  mm_ = std::make_unique<MemoryManager>(*engine_, mem_config, storage_.get());
  scheduler_ = std::make_unique<Scheduler>(*engine_, *mm_, config_.device.num_cores);
  services_ = std::make_unique<SystemServices>(*scheduler_, *mm_, config_.services);
  freezer_ = std::make_unique<Freezer>(*engine_);
  lmk_ = std::make_unique<Lmk>(*engine_, *mm_);
  am_ = std::make_unique<ActivityManager>(*engine_, *scheduler_, *mm_, *freezer_);
  choreographer_ = std::make_unique<Choreographer>(*am_);

  lmk_->set_kill_fn([this]() { return am_->KillOneCached(); });
  lmk_->InstallOomHandler();
  lmk_->set_minfree_pages(BytesToPages(110 * kMiB));
  lmk_->set_psi_refaults_per_sec(9000.0);

  // Install the catalog. Drawn from the noise stream: boot must consume
  // zero device-seed draws so a post-boot template is seed-independent
  // (the catalog is identical across devices of a fleet group anyway).
  if (config_.extended_catalog) {
    Rng catalog_rng = engine_->noise_rng().Fork();
    catalog_ = ExtendedCatalog(catalog_rng, config_.device.footprint_scale);
  } else {
    catalog_ = DefaultCatalog(config_.device.footprint_scale);
  }
  for (const CatalogApp& app : catalog_) {
    App* installed = am_->Install(app.descriptor);
    catalog_uids_.push_back(installed->uid());
  }

  // Background-activity factory: looks up the launched app in the catalog.
  bool disable_gc = config_.disable_gc;
  am_->set_bg_task_factory([this, disable_gc](ActivityManager& am, App& app) {
    const CatalogApp* entry = FindInCatalog(catalog_, app.package());
    if (entry != nullptr) {
      AttachBgActivity(am, app, entry->bg, disable_gc);
    }
  });

  // Install the policy.
  SystemRefs refs;
  refs.engine = engine_.get();
  refs.mm = mm_.get();
  refs.scheduler = scheduler_.get();
  refs.freezer = freezer_.get();
  refs.am = am_.get();
  scheme_->Install(refs);

  // Everything alive now (kswapd + services) is the boot prefix recycling
  // truncates back to; app tasks are only created later.
  boot_task_count_ = scheduler_->task_count();

  if (snapshot == nullptr) {
    // Let the base system settle (services reach steady state).
    engine_->RunFor(Sec(2));
  } else {
    // Restore mode: nothing has run yet, so the only scheduled events are
    // the ones Install() armed — RestoreBytes cancels those and replays
    // the saved state instead.
    RestoreBytes(*snapshot, verify_checksum);
  }
}

Experiment::~Experiment() {
  // The whole device dies here, spaces and memory manager together, so the
  // manager forgets its spaces instead of ~ActivityManager releasing them
  // page by page.
  mm_->ForgetSpaces();
}

Uid Experiment::UidOf(const std::string& package) const {
  for (size_t i = 0; i < catalog_.size(); ++i) {
    if (catalog_[i].descriptor.package == package) {
      return catalog_uids_[i];
    }
  }
  ICE_CHECK(false) << "package not installed: " << package;
  return kInvalidUid;
}

std::vector<Uid> Experiment::CatalogUids() const { return catalog_uids_; }

void Experiment::AwaitInteractive(Uid uid, SimDuration timeout) {
  SimTime deadline = engine_->now() + timeout;
  while (!am_->interactive(uid) && engine_->now() < deadline) {
    engine_->RunFor(Ms(50));
  }
}

std::vector<Uid> Experiment::PlanBackgroundPool(const std::vector<Uid>& exclude) {
  std::vector<Uid> pool;
  for (Uid uid : catalog_uids_) {
    if (std::find(exclude.begin(), exclude.end(), uid) == exclude.end()) {
      pool.push_back(uid);
    }
  }
  engine_->rng().Shuffle(pool);
  return pool;
}

bool Experiment::CacheOneBackgroundApp(Uid uid, SimDuration settle) {
  am_->Launch(uid);
  AwaitInteractive(uid, Sec(20));
  engine_->RunFor(settle);
  return SettleToQuiescence();
}

void Experiment::FinishCaching() {
  am_->MoveForegroundToBackground();
  engine_->RunFor(Sec(1));
}

std::vector<Uid> Experiment::CacheBackgroundApps(int n, const std::vector<Uid>& exclude,
                                                 SimDuration settle) {
  std::vector<Uid> pool = PlanBackgroundPool(exclude);
  ICE_CHECK_LE(static_cast<size_t>(n), pool.size());
  pool.resize(static_cast<size_t>(n));

  for (Uid uid : pool) {
    CacheOneBackgroundApp(uid, settle);
  }
  FinishCaching();
  return pool;
}

ScenarioResult Experiment::RunScenario(ScenarioKind kind, SimDuration duration,
                                       SimDuration warmup) {
  return RunScenarioForApp(UidOf(ScenarioPackage(kind)), kind, duration, warmup);
}

ScenarioResult Experiment::RunScenarioForApp(Uid uid, ScenarioKind kind,
                                             SimDuration duration, SimDuration warmup) {
  am_->Launch(uid);
  AwaitInteractive(uid, Sec(30));

  Scenario scenario(*am_, uid, kind, engine_->rng().Fork());
  choreographer_->SetSource(&scenario);
  choreographer_->Start();
  if (warmup > 0) {
    engine_->RunFor(warmup);
  }
  choreographer_->stats().Clear();

  auto stats_before = engine_->stats().Snapshot();
  uint64_t busy_before = scheduler_->busy_us();
  uint64_t cap_before = scheduler_->capacity_us();
  SimTime begin = engine_->now();

  engine_->RunFor(duration);

  SimTime end = engine_->now();
  choreographer_->SetSource(nullptr);
  auto delta = StatsRegistry::Diff(stats_before, engine_->stats().Snapshot());

  ScenarioResult result;
  result.avg_fps = choreographer_->stats().AverageFps(begin, end);
  result.ria = choreographer_->stats().Ria();
  result.fps_series = choreographer_->stats().FpsPerSecond(begin, end);
  result.reclaims = delta[stat::kPagesReclaimed];
  result.refaults = delta[stat::kRefaults];
  result.refaults_bg = delta[stat::kRefaultsBg];
  result.refaults_fg = delta[stat::kRefaultsFg];
  result.io_requests = delta[stat::kIoReads] + delta[stat::kIoWrites];
  result.io_bytes = delta[stat::kIoReadBytes] + delta[stat::kIoWriteBytes];
  result.freezes = delta[stat::kFreezes];
  result.thaws = delta[stat::kThaws];
  result.lmk_kills = delta[stat::kLmkKills];
  result.arena_bytes_peak = mm_->arena_bytes_peak();
  result.zram_rejects = delta[stat::kZramRejects];
  result.swap_rejects_hot = delta[stat::kSwapRejectsHot];
  result.swap_writeback_pages = delta[stat::kSwapWritebackPages];
  result.swap_stores_fast = delta[stat::kSwapStoresFast];
  result.swap_stores_dense = delta[stat::kSwapStoresDense];
  // Lifetime distribution, like arena_bytes_peak: stores during warmup and
  // background caching are exactly the admission decisions worth observing.
  result.zram_compressed_bytes = mm_->swap_governor().compressed_bytes();
  uint64_t cap = scheduler_->capacity_us() - cap_before;
  result.cpu_util =
      cap == 0 ? 0.0 : static_cast<double>(scheduler_->busy_us() - busy_before) / cap;
  if (tracer_ != nullptr) {
    result.trace = SummarizeTrace(*tracer_);
  }
  return result;
}

// ---- Snapshot / restore -----------------------------------------------------

bool Experiment::QuiescentNow() const {
  if (mm_->faults_in_flight() != 0) {
    return false;
  }
  if (storage_->queued() != 0 || storage_->inflight() != 0) {
    return false;
  }
  if (choreographer_->started()) {
    return false;
  }
  for (Task* task : scheduler_->live_tasks()) {
    if (!task->behavior().Quiescent()) {
      return false;
    }
  }
  return true;
}

bool Experiment::SettleToQuiescence(int max_ticks) {
  for (int i = 0; i < max_ticks; ++i) {
    if (QuiescentNow()) {
      return true;
    }
    engine_->RunFor(Engine::kTick);
  }
  return QuiescentNow();
}

std::string ConfigFingerprint(const ExperimentConfig& c) {
  std::ostringstream out;
  out.precision(17);
  out << "device=" << c.device.name << " cores=" << c.device.num_cores
      << " pages=" << c.device.mem.total_pages
      << " reserved=" << c.device.mem.os_reserved_pages
      << " hwm=" << c.device.mdt_hwm_mib << " fpba=" << c.device.full_pressure_bg_apps
      << " seed=" << c.seed << " scheme=" << c.scheme << " aging=" << c.aging
      << " swap=" << c.swap
      << " fscale=" << c.device.footprint_scale << " bgscale=1 ext=" << c.extended_catalog
      << " nogc=" << c.disable_gc << " svc=" << c.services.service_tasks << '/'
      << c.services.period << '/' << c.services.duty << '/' << c.services.jitter
      << " ice=" << c.ice.delta << '/' << c.ice.thaw_duration << '/'
      << c.ice.min_freeze << '/' << c.ice.max_freeze << '/' << c.ice.hwm_mib << '/'
      << c.ice.whitelist_adj_threshold << '/' << c.ice.application_grain << '/'
      << c.ice.enable_prediction << '/' << c.ice.prediction_fanout
      << " trace=" << c.trace << '/' << c.trace_buffer_pages;
  return out.str();
}

std::string Experiment::Fingerprint() const { return ConfigFingerprint(config_); }

std::vector<uint8_t> Experiment::SaveSnapshot() const {
  BinaryWriter w;
  SaveSnapshotInto(w);
  return w.Finish();
}

void Experiment::SaveSnapshotInto(BinaryWriter& w) const {
  ICE_CHECK(QuiescentNow()) << "snapshot requires a quiescent tick boundary";
  // The stream is dominated by the page-arena dumps; growing a vector to
  // tens of megabytes by doubling would copy the whole payload again, so
  // size it up front from the v2 image of every record (an eighth of slack
  // plus 4 MiB covers every other section, including a full trace ring). On
  // a reused writer whose buffer already reached this size, Reserve is a
  // no-op.
  const uint64_t image_bytes = mm_->arena_pages_live() * kSnapshotRecordBytes;
  w.Reserve(image_bytes + image_bytes / 8 + (4u << 20));
  SnapshotArchive ar(w);
  // Transfer serves both directions, so it is not const; saving only reads.
  const_cast<Experiment*>(this)->TransferSections(ar, /*seed_agnostic=*/false);
}

void Experiment::SaveSnapshotToFile(const std::string& path) const {
  std::vector<uint8_t> bytes = SaveSnapshot();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ICE_CHECK(out.good()) << "cannot open snapshot file for writing: " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  ICE_CHECK(out.good()) << "short write to snapshot file: " << path;
}

void Experiment::RestoreBytes(const std::vector<uint8_t>& snapshot, bool verify_checksum,
                              bool seed_agnostic) {
  BinaryReader r(snapshot, verify_checksum);
  SnapshotArchive ar(r);
  TransferSections(ar, seed_agnostic);
  r.ExpectEnd();
}

void Experiment::TransferSections(SnapshotArchive& ar, bool seed_agnostic) {
  std::string fp = Fingerprint();
  ar.BeginSection(kSectionMeta);
  ar.Str(fp);
  ar.EndSection();
  if (ar.loading()) {
    std::string expected = Fingerprint();
    bool match = seed_agnostic ? StripSeedToken(fp) == StripSeedToken(expected)
                               : fp == expected;
    if (!match) {
      SnapshotArchive::Fail("config fingerprint mismatch\n  snapshot: " + fp +
                            "\n  config:   " + expected);
    }
    // Cancel everything Install() armed; the queue must be empty before the
    // engine restore so the saved event sequence replays exactly.
    scheme_->BeginRestore();
  }
  auto section = [&ar](uint32_t tag, auto& subsystem) {
    ar.BeginSection(tag);
    subsystem.Transfer(ar);
    ar.EndSection();
  };
  section(kSectionEngine, *engine_);
  section(kSectionActivityManager, *am_);
  section(kSectionMemory, *mm_);
  section(kSectionScheduler, *scheduler_);
  section(kSectionStorage, *storage_);
  section(kSectionFreezer, *freezer_);
  section(kSectionLmk, *lmk_);
  section(kSectionScheme, *scheme_);
  ar.BeginSection(kSectionTrace);
  ar.Expect<uint8_t>(tracer_ != nullptr, "tracing configuration");
  if (tracer_ != nullptr) {
    tracer_->Transfer(ar);
  }
  ar.EndSection();
}

void Experiment::ResetForRecycle() {
  // Ordering contract:
  //  1. Choreographer first — it stops the vsync clock (the trace runner
  //     starts it but never stops it) while its event handle is still valid.
  //  2. Kill every app while the queue is live (KillApp cancels task timers,
  //     releases spaces back to the MM, drains their pending faults, drops
  //     their zram residency, and parks the processes in the graveyard).
  //  3. Clear the queue. Boot tasks keep stale timer handles; the generation
  //     bump makes them resolve to nothing, and Task::Transfer re-arms.
  //  4. Destroy the dead post-boot tasks and rewind the task-id sequence.
  //     Must precede graveyard teardown: tasks hold Process* backpointers.
  //  5. Drop the graveyard and rewind the lifecycle history / pid sequence.
  //  6/7. Rewind the memory manager's and block device's scalar state.
  choreographer_->ResetForRecycle();
  am_->KillAllForRecycle();
  engine_->ResetForRecycle();
  scheduler_->ResetForRecycle(boot_task_count_);
  am_->ResetForRecycle();
  mm_->ResetForRecycle();
  storage_->ResetForRecycle();
}

void Experiment::RestoreTemplate(const std::vector<uint8_t>& snapshot,
                                 uint64_t new_seed) {
  ResetForRecycle();
  config_.seed = new_seed;
  RestoreBytes(snapshot, /*verify_checksum=*/false, /*seed_agnostic=*/true);
  // The snapshot carries the donor's trace stream; give this device its own.
  // The noise stream stays as restored — cold and templated runs then consume
  // identical noise draws from the template point on.
  engine_->rng() = Rng(new_seed);
}

std::unique_ptr<Experiment> Experiment::RestoreSnapshot(
    const ExperimentConfig& config, const std::vector<uint8_t>& snapshot,
    bool verify_checksum) {
  return std::unique_ptr<Experiment>(
      new Experiment(config, &snapshot, verify_checksum));
}

std::unique_ptr<Experiment> Experiment::RestoreSnapshotFromFile(
    const ExperimentConfig& config, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("snapshot: cannot open file: " + path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return RestoreSnapshot(config, bytes);
}

}  // namespace ice
