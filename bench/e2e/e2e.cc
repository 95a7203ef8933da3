// ice_e2e — end-to-end benchmark of the simulator. Runs one workload per
// process as a single closed-loop client (at most two worker threads) and
// measures it from outside, by timing calls into the harness's public API.
// bench/e2e/run.py builds this binary, runs it and formats its output; see
// README.md there for the workloads and the metrics.
//
//   ice_e2e --workload=sweep-fig9 --seed=1 --seconds=30
//   ice_e2e --workload=fleet-ladder --trace --spans=spans_fleet-ladder.json
//   ice_e2e --workload=single-swap --smoke
//
// Untraced runs report the end-to-end metrics: set-up time, throughput over
// repeated passes, and peak RSS. --trace instead replays a fixed
// subset of the workload through the same calls with spans recorded, and
// reports per-layer metrics. Either way the output is one JSON object on
// stdout; progress goes to stderr. Reports are built in memory only.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/e2e/spans.h"
#include "src/base/binary_stream.h"
#include "src/base/stats.h"
#include "src/harness/experiment.h"
#include "src/harness/fleet.h"
#include "src/harness/fleet_report.h"
#include "src/harness/sweep.h"
#include "src/harness/sweep_report.h"
#include "src/workload/usage_trace.h"

namespace {

using namespace ice;
using e2e::Clock;
using e2e::Recorder;
using e2e::Scope;

// Worker threads for the sweep and fleet runners: one client, two workers,
// leaving the rest of a 4-core host to the system.
constexpr int kJobs = 2;

double SecondsSince(Clock::time_point t0) {
  return static_cast<double>(e2e::NsBetween(t0, Clock::now())) / 1e9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Fnv1aHex(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Pins the calling thread to each CPU the process may use, in turn. On a
// shared host one vCPU can run at half speed for seconds at a time while
// another tenant keeps its sibling busy, and a thread left alone stays on the
// CPU it started on; pinning single-threaded work round-robin samples every
// CPU. Threads inherit their creator's affinity, so Release() must precede
// any call that starts workers.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  size_t size() const { return cpus_.size(); }

  void PinNext() {
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next_++ % cpus_.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
  }

  void Release() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---- Run output --------------------------------------------------------------

struct PassRecord {
  uint64_t seed = 0;
  double seconds = 0.0;
  uint64_t units = 0;
  uint64_t failed = 0;
  std::string digest;
};

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<PassRecord> passes;
  std::vector<std::pair<std::string, int64_t>> self_ns;  // Traced runs only.
  uint64_t units = 0;
  uint64_t units_failed = 0;
  std::string digest;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Require(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, ok ? "" : detail});
  }
  uint64_t checks_failed() const {
    return static_cast<uint64_t>(
        std::count_if(checks.begin(), checks.end(), [](const Check& c) { return !c.ok; }));
  }
};

// ---- Per-unit sanity -----------------------------------------------------------

// Empty when `r` is a plausible scenario window.
std::string SanityError(const ScenarioResult& r) {
  char buf[160];
  if (!(r.avg_fps > 0.0 && r.avg_fps <= 120.0)) {
    std::snprintf(buf, sizeof(buf), "fps %.3f outside (0, 120]", r.avg_fps);
    return buf;
  }
  if (!(r.ria >= 0.0 && r.ria <= 1.0)) {
    std::snprintf(buf, sizeof(buf), "ria %.3f outside [0, 1]", r.ria);
    return buf;
  }
  if (r.refaults_fg + r.refaults_bg != r.refaults) {
    std::snprintf(buf, sizeof(buf), "refaults_fg + refaults_bg = %llu != refaults %llu",
                  static_cast<unsigned long long>(r.refaults_fg + r.refaults_bg),
                  static_cast<unsigned long long>(r.refaults));
    return buf;
  }
  return "";
}

// Failed or implausible cells; the first reason goes to `first_error`.
uint64_t CountBadCells(const std::vector<CellOutcome>& outcomes, std::string* first_error) {
  uint64_t bad = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::string why = outcomes[i].ok ? SanityError(outcomes[i].value) : outcomes[i].error;
    if (!why.empty()) {
      if (bad++ == 0) {
        *first_error = "unit " + std::to_string(i) + ": " + why;
      }
    }
  }
  return bad;
}

// Failed devices, plus every device of a group whose fps or RIA range is
// implausible.
uint64_t CountBadDevices(const FleetResult& r, std::string* first_error) {
  uint64_t bad = r.devices_failed;
  for (const FleetGroupStats& g : r.groups) {
    if (g.failures > 0 && first_error->empty()) {
      *first_error = g.tier + "/" + g.scheme + ": " + g.first_error;
    }
    const bool fps_ok = g.fps.Min() > 0.0 && g.fps.Max() <= 120.0;
    const bool ria_ok = g.ria.Min() >= 0.0 && g.ria.Max() <= 1.0;
    if (g.devices == 0 || !fps_ok || !ria_ok) {
      bad += g.devices == 0 ? 1 : g.devices;
      if (first_error->empty()) {
        *first_error = g.tier + "/" + g.scheme + ": fps or ria out of range, or no devices";
      }
    }
  }
  return bad;
}

// ---- Replay building blocks ----------------------------------------------------

// Host-side costs of the memory manager's hot calls, timed on a restored copy
// of a caching boundary (the copy is discarded afterwards).
struct ProbeResult {
  double reclaim_ns_per_page = 0.0;
  double zram_fault_ns = 0.0;
  double io_fault_ns = 0.0;
  double hit_ns = 0.0;
};

struct ReplayTotals {
  uint64_t frames = 0;
  ProbeResult probe;
};

// A replay's output: the report text it produced and its unit accounting.
struct Replayed {
  std::string report;
  uint64_t units = 0;
  uint64_t failed = 0;
  std::string first_error;
  ReplayTotals totals;
};

// An experiment plus, when tracing, the tap timing its tickers. Declared
// tap-first so the experiment is destroyed before the tap it points at.
struct Live {
  std::unique_ptr<e2e::TickerTap> tap;
  std::unique_ptr<Experiment> exp;

  void Tap(Recorder* rec) {
    if (rec != nullptr) {
      tap = std::make_unique<e2e::TickerTap>(*rec, *exp);
    }
  }
  void Reset() {
    exp.reset();
    tap.reset();
  }
};

std::vector<uint8_t> Save(const Experiment& exp) {
  BinaryWriter w;
  exp.SaveSnapshotInto(w);
  return w.Finish();
}

// Times Access on every page of `spaces` found in `state`, counting the
// accesses that took the `kind` path; returns ns per counted access.
double TimeAccesses(MemoryManager& mm, const std::vector<AddressSpace*>& spaces,
                    PageState state, AccessOutcome::Kind kind) {
  static const std::function<void()> kNoWaker;
  uint64_t counted = 0;
  const Clock::time_point t0 = Clock::now();
  for (AddressSpace* space : spaces) {
    const uint32_t pages = static_cast<uint32_t>(space->total_pages());
    for (uint32_t vpn = 0; vpn < pages; ++vpn) {
      if (space->page(vpn).state() == state &&
          mm.Access(*space, vpn, /*write=*/false, kNoWaker).kind == kind) {
        ++counted;
      }
    }
  }
  return Per(static_cast<double>(e2e::NsBetween(t0, Clock::now())),
             static_cast<double>(counted));
}

ProbeResult Probe(const ExperimentConfig& config, const std::vector<uint8_t>& snapshot,
                  Recorder* rec, int64_t unit) {
  ProbeResult out;
  std::unique_ptr<Experiment> copy;
  {
    Scope s(rec, "probe.copy", unit);
    copy = Experiment::RestoreSnapshot(config, snapshot, /*verify_checksum=*/false);
  }
  MemoryManager& mm = copy->mm();
  const std::vector<Uid> catalog = copy->CatalogUids();
  std::vector<AddressSpace*> cached;
  for (AddressSpace* space : mm.spaces()) {
    if (space->uid() != mm.foreground_uid() &&
        std::find(catalog.begin(), catalog.end(), space->uid()) != catalog.end()) {
      cached.push_back(space);
    }
  }
  {
    Scope s(rec, "probe.reclaim", unit);
    const Clock::time_point t0 = Clock::now();
    PageCount pages = 0;
    for (AddressSpace* space : cached) {
      pages += mm.ReclaimAllOf(*space).reclaimed;
    }
    out.reclaim_ns_per_page = Per(static_cast<double>(e2e::NsBetween(t0, Clock::now())),
                                  static_cast<double>(pages));
  }
  {
    Scope s(rec, "probe.access", unit);
    out.zram_fault_ns =
        TimeAccesses(mm, cached, PageState::kInZram, AccessOutcome::Kind::kZramFault);
    out.io_fault_ns =
        TimeAccesses(mm, cached, PageState::kOnFlash, AccessOutcome::Kind::kIoFault);
    out.hit_ns = TimeAccesses(mm, cached, PageState::kPresent, AccessOutcome::Kind::kHit);
  }
  Scope s(rec, "probe.teardown", unit);
  copy.reset();
  return out;
}

// One cell on the icesim_cli path: construct, plan the background pool,
// cache the apps one by one, finish caching, run the scenario. Identical to
// SweepRunner::RunCell. With `round_trip`, the experiment is saved at the
// final caching boundary and the run continues on a restored copy (the
// sweep's fork path, cold). With `probe`, ProbeResult is taken at the last
// quiescent caching boundary (a full-pressure device often settles only
// some of the time).
ScenarioResult RunCellPath(const SweepCell& cell, Recorder* rec, int64_t unit,
                           bool round_trip, bool probe, ReplayTotals* totals) {
  Live live;
  {
    Scope s(rec, "boot", unit);
    live.exp = std::make_unique<Experiment>(cell.config);
    s.CountFromZero(*live.exp);
  }
  live.Tap(rec);
  const int bg = SweepRunner::NormalizedBg(cell);
  if (bg > 0) {
    std::vector<Uid> pool;
    {
      Scope s(rec, "plan", unit);
      pool = live.exp->PlanBackgroundPool({live.exp->UidOf(ScenarioPackage(cell.scenario))});
    }
    if (static_cast<size_t>(bg) > pool.size()) {
      throw std::runtime_error("bg exceeds the catalog's candidates");
    }
    std::vector<uint8_t> probe_bytes;
    for (int k = 0; k < bg; ++k) {
      bool quiescent = false;
      {
        Scope s(rec, "cache_app", unit, live.exp.get());
        quiescent = live.exp->CacheOneBackgroundApp(pool[static_cast<size_t>(k)]);
      }
      if (probe && quiescent) {
        Scope p(rec, "probe", unit);
        Scope s(rec, "probe.save", unit);
        probe_bytes = Save(*live.exp);
      }
    }
    if (!probe_bytes.empty()) {
      Scope p(rec, "probe", unit);
      totals->probe = Probe(cell.config, probe_bytes, rec, unit);
    }
    if (round_trip && live.exp->QuiescentNow()) {
      std::vector<uint8_t> bytes;
      {
        Scope s(rec, "snapshot_save", unit);
        bytes = Save(*live.exp);
        s.set_bytes(bytes.size());
      }
      Live next;
      {
        Scope s(rec, "snapshot_restore", unit);
        next.exp = Experiment::RestoreSnapshot(cell.config, bytes, /*verify_checksum=*/false);
      }
      next.Tap(rec);
      {
        Scope s(rec, "teardown", unit);
        live.Reset();
      }
      live.exp = std::move(next.exp);
      live.tap = std::move(next.tap);
    }
    Scope s(rec, "finish_caching", unit, live.exp.get());
    live.exp->FinishCaching();
  }
  ScenarioResult result;
  {
    Scope s(rec, "scenario", unit, live.exp.get());
    result = live.exp->RunScenario(cell.scenario, cell.duration, cell.warmup);
  }
  if (totals != nullptr) {
    totals->frames += live.exp->choreographer().stats().frames_completed();
  }
  Scope s(rec, "teardown", unit);
  live.Reset();
  return result;
}

// Runs the cells through RunCellPath, one after another, collecting outcomes.
std::vector<CellOutcome> RunCells(const std::vector<SweepCell>& cells, Recorder* rec,
                                  bool round_trip, size_t probe_cell, ReplayTotals* totals,
                                  std::vector<double>* seconds) {
  std::vector<CellOutcome> out(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    Scope unit(rec, "unit", static_cast<int64_t>(i));
    try {
      out[i].value = RunCellPath(cells[i], rec, static_cast<int64_t>(i), round_trip,
                                 rec != nullptr && i == probe_cell, totals);
      out[i].ok = true;
    } catch (const std::exception& e) {
      out[i].error = e.what();
    }
    if (seconds != nullptr) {
      seconds->push_back(SecondsSince(t0));
    }
  }
  return out;
}

// ---- Fleet replay pieces (the same steps FleetRunner takes per device) --------

ExperimentConfig FleetGroupConfig(const FleetConfig& c, size_t group, uint64_t seed) {
  ExperimentConfig ec;
  ec.aging = c.aging;
  ec.swap = c.swap;
  ec.device = FleetTierProfile(c.tiers[group / c.schemes.size()]);
  ec.scheme = c.schemes[group % c.schemes.size()];
  ec.seed = seed;
  return ec;
}

std::vector<FleetGroupStats> FleetAccumulators(const FleetConfig& c) {
  std::vector<FleetGroupStats> groups(c.tiers.size() * c.schemes.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g].tier = c.tiers[g / c.schemes.size()];
    groups[g].scheme = c.schemes[g % c.schemes.size()];
  }
  return groups;
}

struct Donor {
  Live live;
  std::vector<uint8_t> bytes;
  std::vector<UsageTraceRunner::InstalledApp> apps;
};

void ReplayDevice(const FleetConfig& c, size_t group, uint64_t device, Donor& d,
                  Recorder* rec, FleetGroupStats& stats, ReplayTotals& totals) {
  const int64_t unit = static_cast<int64_t>(device);
  if (d.live.exp == nullptr) {
    {
      Scope s(rec, "boot", unit);
      d.live.exp = std::make_unique<Experiment>(FleetGroupConfig(c, group, c.seed));
      s.CountFromZero(*d.live.exp);
    }
    d.live.Tap(rec);
    bool settled = false;
    {
      Scope s(rec, "settle", unit, d.live.exp.get());
      settled = d.live.exp->SettleToQuiescence();
    }
    if (!settled) {
      throw std::runtime_error("fleet donor did not reach quiescence");
    }
    {
      Scope s(rec, "snapshot_save", unit);
      d.bytes = Save(*d.live.exp);
      s.set_bytes(d.bytes.size());
    }
    const std::vector<Uid> uids = d.live.exp->CatalogUids();
    for (size_t i = 0; i < uids.size(); ++i) {
      d.apps.push_back({uids[i], d.live.exp->catalog()[i].category});
    }
  }
  Experiment& exp = *d.live.exp;
  {
    Scope s(rec, "template_restore", unit);
    exp.RestoreTemplate(d.bytes, FleetRunner::DeviceSeed(c.seed, device));
  }
  {
    Scope s(rec, "usage_trace", unit, &exp);
    UsageTraceRunner::Config tc;
    tc.days = 1;
    tc.sessions_per_day = c.sessions;
    tc.session_mean = c.session_mean;
    tc.session_sigma = c.session_sigma;
    tc.sample_interval = Sec(24 * 3600);
    UsageTraceRunner runner(exp.am(), exp.choreographer(), d.apps, exp.engine().rng().Fork(),
                            tc);
    runner.Run();
  }
  // The per-device fold FleetRunner applies after the trace.
  const FrameStats& frames = exp.choreographer().stats();
  for (double latency : frames.latency_us().values()) {
    stats.frame_latency_us.Add(latency);
  }
  stats.fps.Add(frames.AverageFps(0, exp.engine().now()));
  stats.ria.Add(frames.Ria());
  const uint64_t refaults = exp.engine().stats().Get(stat::kRefaults);
  const uint64_t kills = exp.engine().stats().Get(stat::kLmkKills);
  stats.refaults.Add(static_cast<double>(refaults));
  stats.lmk_kills.Add(static_cast<double>(kills));
  stats.zram_compressed_bytes.Merge(exp.mm().swap_governor().compressed_bytes());
  stats.total_frames += frames.frames_completed();
  stats.total_refaults += refaults;
  stats.total_lmk_kills += kills;
  stats.peak_arena_bytes = std::max(stats.peak_arena_bytes, exp.mm().arena_bytes_peak());
  ++stats.devices;
  totals.frames += frames.frames_completed();
}

// ---- Workloads ------------------------------------------------------------------

struct Pass {
  uint64_t seed = 0;  // First seed the pass simulated.
  uint64_t units = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::string digest;
  std::vector<double> unit_seconds;  // Per-unit host time, where units run serially.
};

// A workload's units depend only on its seed. Pass 0 simulates the units the
// traced replay covers, so the two report the same sim_digest.
class Workload {
 public:
  virtual ~Workload() = default;
  // Distinct (device, scheme, aging, swap) configs; one set-up boots each once.
  virtual std::vector<ExperimentConfig> BootConfigs() const = 0;
  // True when a pass runs on the calling thread, with no workers.
  virtual bool SingleThreaded() const { return false; }
  // One closed-loop pass; `pass` counts from 0.
  virtual Pass RunPass(uint64_t pass) = 0;
  // Correctness gates beyond the per-unit checks, run after the passes.
  virtual void CheckAfterPasses(Result& out) = 0;
  // The traced subset, through the same calls; `rec` null runs it untraced.
  virtual Replayed Replay(Recorder* rec) = 0;
  // Extra checks on a traced replay's report.
  virtual void CheckReplay(const Replayed& traced, Result& out) {
    (void)traced;
    (void)out;
  }
};

// Fig. 9's shape through the prefix-sharing sweep runner. One seed costs a
// third more host time than another, so pass p runs the grid at seed + p and
// a run averages over every seed it reaches.
class SweepFig9 : public Workload {
 public:
  SweepFig9(uint64_t seed, bool smoke) : seed_(seed), runner_(kJobs) {
    axes_.devices = {Pixel3Profile()};
    axes_.schemes = smoke ? std::vector<std::string>{"lru_cfs"}
                          : std::vector<std::string>{"lru_cfs", "ice"};
    axes_.scenarios = smoke ? std::vector<ScenarioKind>{ScenarioKind::kShortVideo}
                            : std::vector<ScenarioKind>{ScenarioKind::kShortVideo,
                                                        ScenarioKind::kGame};
    axes_.bg_counts = smoke ? std::vector<int>{2, 4} : std::vector<int>{0, 2, 4, 6};
    // Forked-vs-cold gate: a middle member of a prefix group (forked from a
    // donor snapshot). Probe: the heaviest caching boundary, lru_cfs S-B at
    // the largest bg. Both sit in the first (lru_cfs, S-B) block.
    forked_cell_ = smoke ? 0 : 2;
    probe_cell_ = axes_.bg_counts.size() - 1;
  }

  std::vector<ExperimentConfig> BootConfigs() const override {
    std::vector<ExperimentConfig> configs;
    for (const SweepCell& cell : CellsFor(seed_)) {
      if (configs.empty() || configs.back().scheme != cell.config.scheme) {
        configs.push_back(cell.config);
      }
    }
    return configs;
  }

  Pass RunPass(uint64_t pass) override {
    Pass p;
    p.seed = seed_ + pass;
    const std::vector<SweepCell> cells = CellsFor(p.seed);
    std::vector<CellOutcome> outcomes = runner_.Run(cells, /*share_prefix=*/true);
    p.units = cells.size();
    p.failed = CountBadCells(outcomes, &p.first_error);
    p.digest = Fnv1aHex(SweepReportJson(kName, kJobs, cells, outcomes));
    if (pass == 0) {
      first_ = std::move(outcomes);
    }
    return p;
  }

  // Re-runs pass 0's forked cell cold, which also shows it repeats.
  void CheckAfterPasses(Result& out) override {
    const SweepCell cell = CellsFor(seed_)[forked_cell_];
    CellOutcome cold;
    try {
      cold.value = SweepRunner::RunCell(cell);
      cold.ok = true;
    } catch (const std::exception& e) {
      cold.error = e.what();
    }
    out.Require("forked_equals_cold",
                SweepReportJson("cell", 1, {cell}, {cold}) ==
                    SweepReportJson("cell", 1, {cell}, {first_[forked_cell_]}),
                "forked and cold results differ for cell " + std::to_string(forked_cell_));
  }

  Replayed Replay(Recorder* rec) override {
    const std::vector<SweepCell> cells = CellsFor(seed_);
    Replayed r;
    Scope root(rec, "replay", -1);
    std::vector<CellOutcome> outcomes =
        RunCells(cells, rec, /*round_trip=*/true, probe_cell_, &r.totals, nullptr);
    r.units = cells.size();
    r.failed = CountBadCells(outcomes, &r.first_error);
    Scope s(rec, "report", -1);
    r.report = SweepReportJson(kName, kJobs, cells, outcomes);
    return r;
  }

 private:
  std::vector<SweepCell> CellsFor(uint64_t seed) const {
    SweepAxes axes = axes_;
    axes.seeds = {seed};
    return axes.Cells();
  }

  static constexpr const char* kName = "sweep-fig9";
  uint64_t seed_;
  SweepRunner runner_;
  SweepAxes axes_;
  size_t forked_cell_ = 0;
  size_t probe_cell_ = 0;
  std::vector<CellOutcome> first_;
};

// The five-tier fleet ladder through the warm-boot template fleet runner.
class FleetLadder : public Workload {
 public:
  FleetLadder(uint64_t seed, bool smoke) {
    config_.devices = smoke ? 40 : 400;
    config_.jobs = kJobs;
    config_.seed = seed;
    config_.schemes = {"lru_cfs", "ice"};
    config_.sessions = 3;
    config_.use_templates = true;
    replay_devices_ = smoke ? 10 : 100;
  }

  std::vector<ExperimentConfig> BootConfigs() const override {
    FleetRunner runner(config_);
    std::vector<ExperimentConfig> configs;
    for (size_t g = 0; g < runner.num_groups(); ++g) {
      configs.push_back(FleetGroupConfig(runner.config(), g, config_.seed));
    }
    return configs;
  }

  // Every pass is the same fleet: 400 devices already average out the seed.
  Pass RunPass(uint64_t pass) override {
    (void)pass;
    FleetResult result = FleetRunner(config_).Run();
    Pass p;
    p.seed = config_.seed;
    p.units = config_.devices;
    p.failed = CountBadDevices(result, &p.first_error);
    p.digest = Fnv1aHex(FleetReportJson(kName, result));
    return p;
  }

  void CheckAfterPasses(Result& out) override {
    bool stable = true;
    for (const PassRecord& p : out.passes) {
      stable = stable && p.digest == out.passes.front().digest;
    }
    out.Require("digest_stable_across_passes", stable, "sim_digest differs between passes");
    FleetConfig c = config_;
    c.devices = 40;
    const std::string templated = FleetReportJson(kName, FleetRunner(c).Run());
    c.use_templates = false;
    const std::string cold = FleetReportJson(kName, FleetRunner(c).Run());
    out.Require("templated_equals_cold", templated == cold,
                "40-device fleet reports differ with templates on and off");
  }

  // The first replay_devices_ devices of the fleet, chunked as the full fleet
  // chunks them, each as donor boot -> save -> template restore -> trace.
  Replayed Replay(Recorder* rec) override {
    FleetRunner runner(ReplayConfig());
    const FleetConfig& c = runner.config();
    Replayed r;
    FleetResult result;
    result.config = c;
    result.groups = FleetAccumulators(c);
    std::vector<Donor> donors(runner.num_groups());
    Scope root(rec, "replay", -1);
    for (uint64_t chunk = 0; chunk < runner.num_chunks(); ++chunk) {
      std::vector<FleetGroupStats> partial = FleetAccumulators(c);
      const uint64_t begin = chunk * runner.chunk_size();
      const uint64_t end = std::min<uint64_t>(begin + runner.chunk_size(), c.devices);
      for (uint64_t i = begin; i < end; ++i) {
        const size_t g = runner.GroupOf(i);
        Scope unit(rec, "unit", static_cast<int64_t>(i));
        try {
          ReplayDevice(c, g, i, donors[g], rec, partial[g], r.totals);
        } catch (const std::exception& e) {
          donors[g].live.Reset();
          donors[g].bytes.clear();
          donors[g].apps.clear();
          ++partial[g].failures;
          if (i < partial[g].first_error_device) {
            partial[g].first_error_device = i;
            partial[g].first_error = e.what();
          }
        }
      }
      Scope fold(rec, "fold", static_cast<int64_t>(chunk));
      for (size_t g = 0; g < result.groups.size(); ++g) {
        result.groups[g].MergeFrom(partial[g]);
      }
    }
    for (const FleetGroupStats& g : result.groups) {
      result.devices_failed += g.failures;
      result.peak_arena_bytes = std::max(result.peak_arena_bytes, g.peak_arena_bytes);
    }
    r.units = c.devices;
    r.failed = CountBadDevices(result, &r.first_error);
    Scope s(rec, "report", -1);
    r.report = FleetReportJson(kName, result);
    return r;
  }

  void CheckReplay(const Replayed& traced, Result& out) override {
    out.Require("replay_equals_fleet_runner",
                traced.report == FleetReportJson(kName, FleetRunner(ReplayConfig()).Run()),
                "replayed devices differ from FleetRunner::Run over the same devices");
  }

 private:
  FleetConfig ReplayConfig() const {
    FleetConfig c = config_;
    c.devices = replay_devices_;
    c.chunk = FleetRunner(config_).chunk_size();
    return c;
  }

  static constexpr const char* kName = "fleet-ladder";
  FleetConfig config_;
  uint64_t replay_devices_ = 0;
};

// Sequential single runs on the icesim_cli path, generation-clock aging with
// hotness-gated swap: full-pressure P20 S-B runs, each with the next seed, in
// passes of four (one run in smoke mode). The replay is pass 0.
class SingleSwap : public Workload {
 public:
  SingleSwap(uint64_t seed, bool smoke) : seed_(seed), runs_(smoke ? 1 : 4) {}

  std::vector<ExperimentConfig> BootConfigs() const override {
    return {CellsFor(seed_)[0].config};
  }

  bool SingleThreaded() const override { return true; }

  Pass RunPass(uint64_t pass) override {
    Pass p;
    p.seed = seed_ + pass * runs_;
    const std::vector<SweepCell> cells = CellsFor(p.seed);
    std::vector<CellOutcome> outcomes =
        RunCells(cells, nullptr, /*round_trip=*/false, 0, nullptr, &p.unit_seconds);
    p.units = cells.size();
    p.failed = CountBadCells(outcomes, &p.first_error);
    p.digest = Fnv1aHex(SweepReportJson(kName, 1, cells, outcomes));
    if (pass == 0) {
      first_run_ = SweepReportJson(kName, 1, {cells[0]}, {outcomes[0]});
    }
    return p;
  }

  void CheckAfterPasses(Result& out) override {
    const std::vector<SweepCell> cells = CellsFor(seed_);
    std::vector<CellOutcome> again =
        RunCells({cells[0]}, nullptr, /*round_trip=*/false, 0, nullptr, nullptr);
    out.Require("run_repeats", SweepReportJson(kName, 1, {cells[0]}, again) == first_run_,
                "re-running the first run gave a different result");
  }

  Replayed Replay(Recorder* rec) override {
    const std::vector<SweepCell> cells = CellsFor(seed_);
    Replayed r;
    Scope root(rec, "replay", -1);
    std::vector<CellOutcome> outcomes =
        RunCells(cells, rec, /*round_trip=*/false, 0, &r.totals, nullptr);
    r.units = cells.size();
    r.failed = CountBadCells(outcomes, &r.first_error);
    Scope s(rec, "report", -1);
    r.report = SweepReportJson(kName, 1, cells, outcomes);
    return r;
  }

 private:
  std::vector<SweepCell> CellsFor(uint64_t first_seed) const {
    std::vector<SweepCell> cells(runs_);
    for (uint64_t k = 0; k < runs_; ++k) {
      SweepCell& cell = cells[k];
      cell.config.device = P20Profile();
      cell.config.scheme = "lru_cfs";
      cell.config.aging = "gen_clock";
      cell.config.swap = "hotness";
      cell.config.seed = first_seed + k;
      cell.scenario = ScenarioKind::kShortVideo;
      cell.bg_apps = -1;
    }
    return cells;
  }

  static constexpr const char* kName = "single-swap";
  uint64_t seed_;
  uint64_t runs_;
  std::string first_run_;
};

// ---- Measurement ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

// Boots every config once (construct, then settle to quiescence); returns the
// host seconds spent, teardown excluded.
double SetupOnce(const std::vector<ExperimentConfig>& configs) {
  double total = 0.0;
  for (const ExperimentConfig& config : configs) {
    const Clock::time_point t0 = Clock::now();
    Experiment exp(config);
    exp.SettleToQuiescence();
    total += SecondsSince(t0);
  }
  return total;
}

void MeasureUntraced(Workload& w, const Options& opts, Result& out) {
  // A set-up takes a few milliseconds of host time, and on a shared host a
  // CPU can run at half speed for milliseconds to seconds while another
  // tenant loads its sibling. So a set-up round sets up once on every CPU
  // and keeps the fastest; rounds repeat before every pass, and setup_s is
  // their median. Set-up time is not part of any pass.
  const int setup_rounds_per_pass = opts.smoke ? 1 : 8;
  const std::vector<ExperimentConfig> boot_configs = w.BootConfigs();
  std::vector<double> setups;
  CpuRotation cpus;

  std::vector<double> rates;
  std::vector<double> pass_seconds;
  std::vector<double> unit_seconds;
  std::string first_error;
  const Clock::time_point t0 = Clock::now();
  do {
    for (int round = 0; round < setup_rounds_per_pass; ++round) {
      double fastest = std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < std::max<size_t>(cpus.size(), 1); ++k) {
        cpus.PinNext();
        fastest = std::min(fastest, SetupOnce(boot_configs));
      }
      setups.push_back(fastest);
    }
    if (w.SingleThreaded()) {
      cpus.PinNext();
    } else {
      cpus.Release();
    }
    const Clock::time_point p0 = Clock::now();
    Pass p = w.RunPass(out.passes.size());
    const double s = SecondsSince(p0);
    std::fprintf(stderr, "%s: pass %zu (seed %llu): %llu units in %.3f s\n",
                 opts.workload.c_str(), out.passes.size(),
                 static_cast<unsigned long long>(p.seed),
                 static_cast<unsigned long long>(p.units), s);
    out.passes.push_back({p.seed, s, p.units, p.failed, p.digest});
    out.units += p.units;
    out.units_failed += p.failed;
    if (first_error.empty()) {
      first_error = p.first_error;
    }
    rates.push_back(static_cast<double>(p.units) / s);
    pass_seconds.push_back(s);
    unit_seconds.insert(unit_seconds.end(), p.unit_seconds.begin(), p.unit_seconds.end());
    // Start another pass only if it is expected to end inside the window.
  } while (!opts.smoke && SecondsSince(t0) + Median(pass_seconds) <= opts.seconds);
  cpus.Release();

  out.Add("units_per_s", Median(rates), "units/s");
  out.Add("setup_s", Median(setups), "s");
  out.Add("peak_rss_mib", PeakRssMiB(), "MiB");
  if (!unit_seconds.empty()) {
    out.Add("run_s_p50", Median(unit_seconds), "s");
    out.Add("run_s_p75", Quantile(unit_seconds, 0.75), "s");
  }

  out.Require("units_sane", out.units_failed == 0, first_error);
  out.digest = out.passes.front().digest;
  w.CheckAfterPasses(out);
}

// Per-layer metrics from the traced replay. Counts are per unit; times are
// per call, per unit or per simulated second, as named.
void LayerMetrics(const Recorder& rec, const Replayed& r, double untraced_s, Result& out) {
  struct Agg {
    uint64_t count = 0;
    double ns = 0.0;
    uint64_t bytes = 0;
    e2e::SimDelta sim;
  };
  std::map<std::string, Agg> by;
  e2e::SimDelta sim;
  double tick_ns[e2e::kTickerSlots] = {0.0, 0.0};
  for (const e2e::Span& s : rec.spans()) {
    Agg& a = by[s.name];
    ++a.count;
    a.ns += static_cast<double>(s.duration_ns());
    a.bytes += s.bytes;
    if (s.has_sim) {
      a.sim.Add(s.sim);
      sim.Add(s.sim);
    }
    for (int k = 0; k < e2e::kTickerSlots; ++k) {
      tick_ns[k] += static_cast<double>(s.tick_ns[k]);
    }
  }
  const double wall_ns = by["replay"].ns;
  const double units = static_cast<double>(r.units);
  auto ms_each = [&by](const char* name) { return Per(by[name].ns / 1e6, by[name].count); };
  auto share = [wall_ns](double ns) { return Per(ns, wall_ns); };
  auto per_sim_s = [&by](const char* name) {
    return Per(by[name].ns / 1e3, static_cast<double>(by[name].sim.sim_us) / 1e6);
  };
  auto per_unit = [&sim, units](const char* stat_name) {
    return Per(static_cast<double>(sim.stat(stat_name)), units);
  };

  out.Add("harness.boot_ms", ms_each("boot"), "ms");
  out.Add("harness.cache_ms_per_app", ms_each("cache_app"), "ms");
  out.Add("harness.scenario_ms", ms_each("scenario"), "ms");
  out.Add("harness.scenario_us_per_sim_s", per_sim_s("scenario"), "us/s");
  out.Add("harness.report_ms", ms_each("report"), "ms");
  out.Add("harness.share.boot", share(by["boot"].ns), "ratio");
  out.Add("harness.share.cache", share(by["cache_app"].ns), "ratio");
  out.Add("harness.share.snapshot",
          share(by["snapshot_save"].ns + by["snapshot_restore"].ns +
                by["template_restore"].ns),
          "ratio");
  out.Add("harness.share.scenario", share(by["scenario"].ns), "ratio");
  out.Add("harness.share.usage_trace", share(by["usage_trace"].ns), "ratio");

  out.Add("snapshot.save_ms", ms_each("snapshot_save"), "ms");
  out.Add("snapshot.restore_ms", ms_each("snapshot_restore"), "ms");
  out.Add("snapshot.template_restore_ms", ms_each("template_restore"), "ms");
  out.Add("snapshot.mib",
          Per(static_cast<double>(by["snapshot_save"].bytes) / (1 << 20),
              by["snapshot_save"].count),
          "MiB");

  out.Add("workload.usage_trace_ms_per_device", ms_each("usage_trace"), "ms");
  out.Add("workload.usage_trace_us_per_sim_s", per_sim_s("usage_trace"), "us/s");
  out.Add("fleet.fold_us_per_chunk", Per(by["fold"].ns / 1e3, by["fold"].count), "us");

  const double sim_s = static_cast<double>(sim.sim_us) / 1e6;
  const double ticks_run = static_cast<double>(sim.ticks - sim.ticks_skipped);
  const double tick_total = tick_ns[e2e::kTickScheduler] + tick_ns[e2e::kTickLmk];
  out.Add("sim.sim_s_per_s", Per(sim_s, (wall_ns - by["probe"].ns) / 1e9), "s/s");
  out.Add("sim.tick_share", share(tick_total), "ratio");
  out.Add("sim.ns_per_tick_run", Per(tick_total, ticks_run), "ns");
  out.Add("sim.ticks_run_per_sim_s", Per(ticks_run, sim_s), "1/s");
  out.Add("sim.skip_ratio",
          Per(static_cast<double>(sim.ticks_skipped), static_cast<double>(sim.ticks)),
          "ratio");

  out.Add("proc.cpu_util",
          Per(static_cast<double>(sim.busy_us), static_cast<double>(sim.capacity_us)),
          "ratio");
  out.Add("proc.lmk_kills", per_unit(stat::kLmkKills), "count");
  out.Add("proc.lmk_tick_share", share(tick_ns[e2e::kTickLmk]), "ratio");

  out.Add("mem.page_faults", per_unit(stat::kPageFaults), "count");
  out.Add("mem.refaults", per_unit(stat::kRefaults), "count");
  out.Add("mem.pages_reclaimed", per_unit(stat::kPagesReclaimed), "count");
  out.Add("mem.direct_share",
          Per(static_cast<double>(sim.stat(stat::kPagesReclaimedDirect)),
              static_cast<double>(sim.stat(stat::kPagesReclaimed))),
          "ratio");
  out.Add("mem.kswapd_wakeups", per_unit(stat::kKswapdWakeups), "count");
  out.Add("mem.zram_stores", per_unit(stat::kZramStores), "count");
  out.Add("mem.zram_loads", per_unit(stat::kZramLoads), "count");
  out.Add("mem.zram_rejects", per_unit(stat::kZramRejects), "count");
  out.Add("mem.probe.reclaim_ns_per_page", r.totals.probe.reclaim_ns_per_page, "ns");
  out.Add("mem.probe.zram_fault_ns", r.totals.probe.zram_fault_ns, "ns");
  out.Add("mem.probe.io_fault_ns", r.totals.probe.io_fault_ns, "ns");
  out.Add("mem.probe.hit_ns", r.totals.probe.hit_ns, "ns");

  out.Add("swap.rejects_hot", per_unit(stat::kSwapRejectsHot), "count");
  out.Add("swap.stores_fast", per_unit(stat::kSwapStoresFast), "count");
  out.Add("swap.stores_dense", per_unit(stat::kSwapStoresDense), "count");
  out.Add("swap.writeback_pages", per_unit(stat::kSwapWritebackPages), "count");

  out.Add("storage.io_reads", per_unit(stat::kIoReads), "count");
  out.Add("storage.io_writes", per_unit(stat::kIoWrites), "count");
  out.Add("storage.io_mib",
          Per(static_cast<double>(sim.stat(stat::kIoReadBytes) +
                                  sim.stat(stat::kIoWriteBytes)) /
                  (1 << 20),
              units),
          "MiB");
  out.Add("android.frames", Per(static_cast<double>(r.totals.frames), units), "count");
  out.Add("android.cold_launches", per_unit(stat::kColdLaunches), "count");
  out.Add("android.hot_launches", per_unit(stat::kHotLaunches), "count");
  out.Add("ice.freezes", per_unit(stat::kFreezes), "count");
  out.Add("ice.thaws", per_unit(stat::kThaws), "count");

  const double traced_s = (wall_ns - by["probe"].ns) / 1e9;
  out.Add("trace.overhead_pct", 100.0 * Per(traced_s - untraced_s, untraced_s), "%");

  // Self time by layer; every probe.* span folds into "probe".
  std::map<std::string, int64_t> self;
  for (const auto& [name, ns] : rec.SelfTimes()) {
    self[name.rfind("probe", 0) == 0 ? "probe" : name] += ns;
    out.self_ns.emplace_back(name, ns);
  }
  out.Add("trace.attributed_pct", 100.0 * (1.0 - share(static_cast<double>(self["replay"]))),
          "%");
  for (const char* layer :
       {"replay", "unit", "boot", "plan", "settle", "cache_app", "snapshot_save",
        "snapshot_restore", "template_restore", "finish_caching", "scenario", "usage_trace",
        "fold", "report", "teardown", "probe", "tick_scheduler", "tick_lmk"}) {
    out.Add(std::string("self.") + layer, share(static_cast<double>(self[layer])), "ratio");
  }
}

void MeasureTraced(Workload& w, const Options& opts, Result& out) {
  // Both replays run on one CPU, so trace.overhead_pct compares like with like.
  CpuRotation cpus;
  cpus.PinNext();
  const Clock::time_point t0 = Clock::now();
  const Replayed untraced = w.Replay(nullptr);
  const double untraced_s = SecondsSince(t0);
  std::fprintf(stderr, "%s: untraced replay %.3f s\n", opts.workload.c_str(), untraced_s);

  Recorder rec;
  const Replayed traced = w.Replay(&rec);
  cpus.Release();
  const double traced_s = static_cast<double>(rec.spans().front().duration_ns()) / 1e9;
  std::fprintf(stderr, "%s: traced replay %.3f s\n", opts.workload.c_str(), traced_s);
  out.units = traced.units;
  out.units_failed = traced.failed;
  out.digest = Fnv1aHex(traced.report);
  out.passes.push_back({opts.seed, traced_s, traced.units, traced.failed, out.digest});
  out.Require("units_sane", traced.failed == 0, traced.first_error);
  out.Require("traced_equals_untraced", traced.report == untraced.report,
              "traced replay report differs from the untraced replay");
  w.CheckReplay(traced, out);
  LayerMetrics(rec, traced, untraced_s, out);

  if (!opts.spans_path.empty()) {
    std::ofstream file(opts.spans_path, std::ios::trunc);
    file << rec.ChromeTraceJson();
    out.Require("spans_written", static_cast<bool>(file), "cannot write " + opts.spans_path);
  }
}

void PrintJson(const Options& opts, const Result& out) {
  const uint64_t attempted = out.units + out.checks.size();
  const uint64_t failed = out.units_failed + out.checks_failed();
  std::string s = "{\"workload\": " + JsonString(opts.workload) +
                  ", \"seed\": " + std::to_string(opts.seed) +
                  ", \"trace\": " + (opts.trace ? "true" : "false") +
                  ", \"smoke\": " + (opts.smoke ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"fail_frac\": " + JsonNumber(Per(static_cast<double>(failed),
                                                       static_cast<double>(attempted))) +
                  ", \"sim_digest\": " + JsonString(out.digest) + ", \"metrics\": [";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Result::Metric& m = out.metrics[i];
    s += (i ? ", " : "") + std::string("{\"name\": ") + JsonString(m.name) +
         ", \"value\": " + JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  s += "], \"checks\": [";
  for (size_t i = 0; i < out.checks.size(); ++i) {
    const Result::Check& c = out.checks[i];
    s += (i ? ", " : "") + std::string("{\"name\": ") + JsonString(c.name) +
         ", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": " + JsonString(c.detail) +
         "}";
  }
  s += "], \"passes\": [";
  for (size_t i = 0; i < out.passes.size(); ++i) {
    const PassRecord& p = out.passes[i];
    s += (i ? ", " : "") + std::string("{\"seed\": ") + std::to_string(p.seed) +
         ", \"seconds\": " + JsonNumber(p.seconds) +
         ", \"units\": " + std::to_string(p.units) + ", \"failed\": " +
         std::to_string(p.failed) + ", \"digest\": " + JsonString(p.digest) + "}";
  }
  s += "], \"self_ms\": {";
  for (size_t i = 0; i < out.self_ns.size(); ++i) {
    s += (i ? ", " : "") + JsonString(out.self_ns[i].first) + ": " +
         JsonNumber(static_cast<double>(out.self_ns[i].second) / 1e6);
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

bool ParseFlag(const char* arg, const char* key, std::string* value) {
  const size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--workload", &value)) {
      opts.workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--spans", &value)) {
      opts.spans_path = value;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  std::unique_ptr<Workload> workload;
  if (opts.workload == "sweep-fig9") {
    workload = std::make_unique<SweepFig9>(opts.seed, opts.smoke);
  } else if (opts.workload == "fleet-ladder") {
    workload = std::make_unique<FleetLadder>(opts.seed, opts.smoke);
  } else if (opts.workload == "single-swap") {
    workload = std::make_unique<SingleSwap>(opts.seed, opts.smoke);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (known: sweep-fig9 fleet-ladder single-swap)\n",
                 opts.workload.c_str());
    return 2;
  }

  Result out;
  if (opts.trace) {
    MeasureTraced(*workload, opts, out);
  } else {
    MeasureUntraced(*workload, opts, out);
  }
  PrintJson(opts, out);
  return 0;
}
