// icesim — command-line front end for the simulator. Runs any scenario under
// any scheme on either device profile and prints the full metric set; handy
// for quick A/B checks without writing code.
//
//   $ ./icesim_cli --device=p20 --scheme=ice --scenario=s-b --bg=8
//   $ ./icesim_cli --device=pixel3 --scheme=lru_cfs --scenario=s-d
//         --bg=6 --duration=60 --warmup=300 --seed=7
//
// With --sweep, the list-valued flags (--device, --scheme, --scenario,
// --bg, --seed: comma-separated) form a grid that runs on a worker pool
// (--jobs) and is exported as JSON (--out names the report; see README
// "Running sweeps" for the schema):
//
//   $ ./icesim_cli --sweep --jobs=8 --scheme=lru_cfs,ice
//         --scenario=s-a,s-b,s-c,s-d --seed=1,2,3 --out=grid
//   $ ./icesim_cli --help
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/fleet.h"
#include "src/harness/fleet_report.h"
#include "src/harness/sweep.h"
#include "src/harness/sweep_report.h"
#include "src/ice/daemon.h"
#include "src/metrics/report.h"
#include "src/policy/registry.h"
#include "src/trace/chrome_export.h"
#include "src/trace/summary.h"

namespace {

using namespace ice;

struct CliOptions {
  std::string device = "p20";
  std::string scheme = "lru_cfs";
  std::string aging = "two_list";
  std::string swap = "baseline";
  std::string scenario = "s-b";
  std::string bg = "-1";  // -1 = the device's full-pressure count.
  int duration_s = 30;
  int warmup_s = 240;
  std::string seed = "42";
  bool series = false;
  bool sweep = false;
  bool fleet = false;
  uint64_t devices = 1000;
  std::string tiers;  // Empty = the full default ladder.
  int sessions = 3;
  uint32_t chunk = 0;
  int jobs = 0;  // 0 = ICE_JOBS env or hardware concurrency.
  std::string out = "cli_sweep";
  std::string snapshot_path;  // Save a post-caching snapshot here.
  std::string restore_path;   // Start from a saved snapshot instead of caching.
  bool trace = false;
  std::string trace_path = "results/trace.json";
  uint32_t trace_buffer_pages = kDefaultTraceBufferPages;
};

void PrintHelp() {
  std::printf(
      "icesim — ICE reproduction simulator\n\n"
      "  --device=p20|pixel3      device profile (default p20)\n"
      "  --scheme=NAME            lru_cfs | ucsg | acclaim | power | ice\n"
      "  --aging=NAME             page aging policy: two_list (classic LRU,\n"
      "                           default) | gen_clock (MGLRU-style generation\n"
      "                           clock); a comma-list sweep axis in sweep mode\n"
      "  --swap=NAME              swap-out policy: baseline (admit everything,\n"
      "                           default) | hotness (Ariadne-style hotness-gated\n"
      "                           admission, tiered compression, zram writeback);\n"
      "                           a comma-list sweep axis in sweep mode\n"
      "  --scenario=s-a|s-b|s-c|s-d   video call / short video / scrolling / game\n"
      "  --bg=N                   cached background apps (default: device full pressure)\n"
      "  --duration=SECONDS       measurement window (default 30)\n"
      "  --warmup=SECONDS         pre-measurement warmup (default 240)\n"
      "  --seed=N                 rng seed (default 42)\n"
      "  --series                 also print the per-second FPS series\n"
      "  --trace[=PATH]           record a simtrace; single runs export Chrome\n"
      "                           trace_event JSON (default results/trace.json,\n"
      "                           open with Perfetto), sweeps fold a per-cell\n"
      "                           trace summary into the report\n"
      "  --trace-buffer-pages=N   ring capacity in 4 KiB pages (default 1024;\n"
      "                           overflow drops the oldest events)\n"
      "\nsnapshots (single-run mode):\n"
      "  --snapshot=PATH          after caching the background apps, save the\n"
      "                           complete simulator state to PATH and continue\n"
      "  --restore=PATH           resume from a snapshot saved with the same\n"
      "                           configuration flags; the run is byte-identical\n"
      "                           to the uninterrupted one\n"
      "\nsweep mode:\n"
      "  --sweep                  run the cross product of the list-valued flags\n"
      "                           (--device/--scheme/--scenario/--bg/--seed take\n"
      "                           comma-separated lists) on a worker pool\n"
      "  --jobs=N                 sweep workers (default: ICE_JOBS or all cores)\n"
      "  --out=NAME               JSON report name: results/NAME.json\n"
      "\nfleet mode:\n"
      "  --fleet                  simulate a device population: every device is a\n"
      "                           (tier, scheme, seed) cell running a stochastic\n"
      "                           daily-usage trace; results stream into\n"
      "                           per-(scheme x tier) histograms\n"
      "  --devices=N              fleet size (default 1000)\n"
      "  --tiers=LIST             device tiers (default entry-2g,budget-3g,mid-4g,\n"
      "                           high-6g,flagship-8g)\n"
      "  --sessions=N             foreground sessions per device day (default 3)\n"
      "  --chunk=N                devices per work chunk (default: auto from N;\n"
      "                           part of the determinism contract — output is\n"
      "                           byte-identical for any --jobs at fixed chunk)\n"
      "  --jobs/--scheme/--seed/--out as in sweep mode; report:\n"
      "                           results/FLEET_NAME.json\n");
}

bool ParseArg(const char* arg, const char* key, std::string* out) {
  size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

ScenarioKind KindFromName(const std::string& name) {
  if (name == "s-a" || name == "videocall") {
    return ScenarioKind::kVideoCall;
  }
  if (name == "s-b" || name == "shortvideo") {
    return ScenarioKind::kShortVideo;
  }
  if (name == "s-c" || name == "scrolling") {
    return ScenarioKind::kScrolling;
  }
  if (name == "s-d" || name == "game") {
    return ScenarioKind::kGame;
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
  std::exit(2);
}

// Validates an aging-policy spelling, exiting like the other name parsers.
void CheckAgingName(const std::string& name) {
  AgingPolicy policy;
  if (!AgingPolicyFromName(name, &policy)) {
    std::fprintf(stderr, "unknown aging policy '%s' (known: two_list gen_clock)\n",
                 name.c_str());
    std::exit(2);
  }
}

// Validates a swap-policy spelling, exiting like the other name parsers.
void CheckSwapName(const std::string& name) {
  SwapPolicy policy;
  if (!SwapPolicyFromName(name, &policy)) {
    std::fprintf(stderr, "unknown swap policy '%s' (known: baseline hotness)\n",
                 name.c_str());
    std::exit(2);
  }
}

// Validates scheme names against the registry, exiting like the other name
// parsers and listing the known schemes.
void CheckSchemeNames(const std::vector<std::string>& schemes) {
  RegisterIceScheme();
  for (const std::string& s : schemes) {
    if (!SchemeRegistry::Instance().Contains(s)) {
      std::fprintf(stderr, "unknown scheme '%s' (known:", s.c_str());
      for (const std::string& k : SchemeRegistry::Instance().Keys()) {
        std::fprintf(stderr, " %s", k.c_str());
      }
      std::fprintf(stderr, ")\n");
      std::exit(2);
    }
  }
}

DeviceProfile DeviceFromName(const std::string& name) {
  if (name == "p20") {
    return P20Profile();
  }
  if (name == "pixel3") {
    return Pixel3Profile();
  }
  std::fprintf(stderr, "unknown device '%s'\n", name.c_str());
  std::exit(2);
}

int RunSweep(const CliOptions& opts) {
  SweepAxes axes;
  for (const std::string& d : SplitList(opts.device)) {
    axes.devices.push_back(DeviceFromName(d));
  }
  axes.schemes = SplitList(opts.scheme);
  CheckSchemeNames(axes.schemes);
  axes.agings = SplitList(opts.aging);
  for (const std::string& a : axes.agings) {
    CheckAgingName(a);
  }
  axes.swaps = SplitList(opts.swap);
  for (const std::string& s : axes.swaps) {
    CheckSwapName(s);
  }
  for (const std::string& s : SplitList(opts.scenario)) {
    axes.scenarios.push_back(KindFromName(s));
  }
  for (const std::string& b : SplitList(opts.bg)) {
    axes.bg_counts.push_back(std::atoi(b.c_str()));
  }
  for (const std::string& s : SplitList(opts.seed)) {
    axes.seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
  }
  axes.duration = Sec(static_cast<uint64_t>(opts.duration_s));
  axes.warmup = Sec(static_cast<uint64_t>(opts.warmup_s));
  if (opts.trace) {
    // Per-cell tracers; each cell's summary lands in the JSON report.
    axes.base.trace = true;
    axes.base.trace_buffer_pages = opts.trace_buffer_pages;
  }

  SweepRunner runner(opts.jobs);
  std::vector<SweepCell> cells = axes.Cells();
  std::printf("icesim sweep: %zu cells on %d workers\n", cells.size(), runner.jobs());
  std::vector<CellOutcome> outcomes = runner.Run(cells);

  Table table({"device", "scheme", "scenario", "bg", "seed", "fps", "RIA", "refaults",
               "reclaims", "CPU"});
  int failures = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    int bg = cell.bg_apps >= 0 ? cell.bg_apps : cell.config.device.full_pressure_bg_apps;
    if (!outcomes[i].ok) {
      ++failures;
      table.AddRow({cell.config.device.name, cell.config.scheme,
                    ScenarioLabel(cell.scenario), std::to_string(bg),
                    std::to_string(cell.config.seed), "FAILED: " + outcomes[i].error, "-",
                    "-", "-", "-"});
      continue;
    }
    const ScenarioResult& r = outcomes[i].value;
    table.AddRow({cell.config.device.name, cell.config.scheme,
                  ScenarioLabel(cell.scenario), std::to_string(bg),
                  std::to_string(cell.config.seed), Table::Num(r.avg_fps),
                  Table::Pct(r.ria, 0), std::to_string(r.refaults),
                  std::to_string(r.reclaims), Table::Pct(r.cpu_util, 0)});
  }
  table.Print();

  std::string path = WriteSweepReport(opts.out, runner.jobs(), cells, outcomes);
  if (!path.empty()) {
    std::printf("report: %s\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

int RunFleet(const CliOptions& opts) {
  FleetConfig config;
  config.devices = opts.devices;
  config.jobs = opts.jobs;
  config.chunk = opts.chunk;
  config.seed = std::strtoull(opts.seed.c_str(), nullptr, 10);
  config.sessions = opts.sessions;
  CheckAgingName(opts.aging);
  config.aging = opts.aging;
  CheckSwapName(opts.swap);
  config.swap = opts.swap;
  config.schemes = SplitList(opts.scheme);
  CheckSchemeNames(config.schemes);
  if (!opts.tiers.empty()) {
    config.tiers = SplitList(opts.tiers);
    for (const std::string& t : config.tiers) {
      if (!IsFleetTier(t)) {
        std::fprintf(stderr, "unknown tier '%s' (known:", t.c_str());
        for (const std::string& k : FleetTierNames()) {
          std::fprintf(stderr, " %s", k.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    }
  }

  FleetRunner runner(config);
  std::printf("icesim fleet: %llu devices, %zu groups, chunk=%u, %d workers\n",
              static_cast<unsigned long long>(runner.config().devices),
              runner.num_groups(), runner.chunk_size(), runner.config().jobs);
  FleetResult result = runner.Run();

  Table table({"tier", "scheme", "devices", "fps p50", "RIA p50", "lat p99 ms",
               "refaults/dev", "LMK/dev", "arena MiB"});
  for (const FleetGroupStats& g : result.groups) {
    table.AddRow({g.tier, g.scheme, std::to_string(g.devices),
                  Table::Num(g.fps.Percentile(0.5)),
                  Table::Pct(g.ria.Percentile(0.5), 1),
                  Table::Num(g.frame_latency_us.Percentile(0.99) / 1000.0),
                  Table::Num(g.devices ? static_cast<double>(g.total_refaults) /
                                             static_cast<double>(g.devices)
                                       : 0.0, 0),
                  Table::Num(g.devices ? static_cast<double>(g.total_lmk_kills) /
                                             static_cast<double>(g.devices)
                                       : 0.0),
                  Table::Num(static_cast<double>(g.peak_arena_bytes) / kMiB, 1)});
  }
  table.Print();
  std::printf("fleet wall time: %.1f s; peak metadata arena: %.1f MiB\n",
              result.wall_seconds,
              static_cast<double>(result.peak_arena_bytes) / kMiB);
  if (result.devices_failed > 0) {
    std::fprintf(stderr, "%llu device(s) failed\n",
                 static_cast<unsigned long long>(result.devices_failed));
  }

  std::string path = WriteFleetReport(opts.out, result);
  if (!path.empty()) {
    std::printf("report: %s\n", path.c_str());
  }
  return result.devices_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintHelp();
      return 0;
    } else if (std::strcmp(argv[i], "--series") == 0) {
      opts.series = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      opts.sweep = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      opts.fleet = true;
    } else if (ParseArg(argv[i], "--devices", &value)) {
      opts.devices = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--tiers", &value)) {
      opts.tiers = value;
    } else if (ParseArg(argv[i], "--sessions", &value)) {
      opts.sessions = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--chunk", &value)) {
      opts.chunk = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseArg(argv[i], "--device", &value)) {
      opts.device = value;
    } else if (ParseArg(argv[i], "--scheme", &value)) {
      opts.scheme = value;
    } else if (ParseArg(argv[i], "--aging", &value)) {
      opts.aging = value;
    } else if (ParseArg(argv[i], "--swap", &value)) {
      opts.swap = value;
    } else if (ParseArg(argv[i], "--scenario", &value)) {
      opts.scenario = value;
    } else if (ParseArg(argv[i], "--bg", &value)) {
      opts.bg = value;
    } else if (ParseArg(argv[i], "--duration", &value)) {
      opts.duration_s = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--warmup", &value)) {
      opts.warmup_s = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--seed", &value)) {
      opts.seed = value;
    } else if (ParseArg(argv[i], "--jobs", &value)) {
      opts.jobs = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--snapshot", &value)) {
      opts.snapshot_path = value;
    } else if (ParseArg(argv[i], "--restore", &value)) {
      opts.restore_path = value;
    } else if (ParseArg(argv[i], "--out", &value)) {
      opts.out = value;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (ParseArg(argv[i], "--trace-buffer-pages", &value)) {
      opts.trace_buffer_pages = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseArg(argv[i], "--trace", &value)) {
      opts.trace = true;
      opts.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }

  if (opts.fleet) {
    if (opts.out == "cli_sweep") {
      opts.out = "cli_fleet";
    }
    return RunFleet(opts);
  }
  if (opts.sweep) {
    return RunSweep(opts);
  }

  ExperimentConfig config;
  config.device = DeviceFromName(opts.device);
  CheckSchemeNames({opts.scheme});
  config.scheme = opts.scheme;
  CheckAgingName(opts.aging);
  config.aging = opts.aging;
  CheckSwapName(opts.swap);
  config.swap = opts.swap;
  config.seed = std::strtoull(opts.seed.c_str(), nullptr, 10);
  config.trace = opts.trace;
  config.trace_buffer_pages = opts.trace_buffer_pages;
  ScenarioKind kind = KindFromName(opts.scenario);
  int bg_opt = std::atoi(opts.bg.c_str());
  int bg = bg_opt >= 0 ? bg_opt : config.device.full_pressure_bg_apps;

  if (opts.restore_path.empty()) {
    std::printf("icesim: %s on %s, scheme=%s, %d BG apps, %ds after %ds warmup, seed=%llu\n",
                ScenarioName(kind), config.device.name.c_str(), opts.scheme.c_str(), bg,
                opts.duration_s, opts.warmup_s, static_cast<unsigned long long>(config.seed));
  } else {
    std::printf("icesim: %s on %s, scheme=%s, BG apps from %s, %ds after %ds warmup, seed=%llu\n",
                ScenarioName(kind), config.device.name.c_str(), opts.scheme.c_str(),
                opts.restore_path.c_str(), opts.duration_s, opts.warmup_s,
                static_cast<unsigned long long>(config.seed));
  }

  std::unique_ptr<Experiment> exp;
  if (!opts.restore_path.empty()) {
    // Resume from the saved post-caching boundary: the snapshot carries the
    // cached apps, so --bg is ignored and caching is skipped entirely.
    try {
      exp = Experiment::RestoreSnapshotFromFile(config, opts.restore_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "restore failed: %s\n", e.what());
      return 1;
    }
    exp->FinishCaching();
  } else {
    exp = std::make_unique<Experiment>(config);
    Uid fg = exp->UidOf(ScenarioPackage(kind));
    if (bg > 0) {
      // The decomposed caching loop so --snapshot can save at the quiescent
      // boundary after the last app, before FinishCaching.
      std::vector<Uid> pool = exp->PlanBackgroundPool({fg});
      if (static_cast<size_t>(bg) > pool.size()) {
        std::fprintf(stderr, "--bg=%d exceeds the catalog's %zu candidates\n", bg,
                     pool.size());
        return 2;
      }
      for (int i = 0; i < bg; ++i) {
        if (!exp->CacheOneBackgroundApp(pool[static_cast<size_t>(i)]) &&
            !opts.snapshot_path.empty()) {
          std::fprintf(stderr, "snapshot failed: system did not reach quiescence\n");
          return 1;
        }
      }
      if (!opts.snapshot_path.empty()) {
        exp->SaveSnapshotToFile(opts.snapshot_path);
        std::printf("snapshot: saved to %s\n", opts.snapshot_path.c_str());
      }
      exp->FinishCaching();
    } else if (!opts.snapshot_path.empty()) {
      if (!exp->SettleToQuiescence()) {
        std::fprintf(stderr, "snapshot failed: system did not reach quiescence\n");
        return 1;
      }
      exp->SaveSnapshotToFile(opts.snapshot_path);
      std::printf("snapshot: saved to %s\n", opts.snapshot_path.c_str());
      // Mirror the restored run, which always resumes through FinishCaching.
      exp->FinishCaching();
    }
  }
  ScenarioResult r = exp->RunScenario(kind, Sec(static_cast<uint64_t>(opts.duration_s)),
                                      Sec(static_cast<uint64_t>(opts.warmup_s)));

  Table table({"metric", "value"});
  table.AddRow({"avg FPS", Table::Num(r.avg_fps)});
  table.AddRow({"RIA", Table::Pct(r.ria)});
  table.AddRow({"reclaimed pages", std::to_string(r.reclaims)});
  table.AddRow({"refaults (total/bg/fg)", std::to_string(r.refaults) + " / " +
                                              std::to_string(r.refaults_bg) + " / " +
                                              std::to_string(r.refaults_fg)});
  table.AddRow({"I/O requests", std::to_string(r.io_requests)});
  table.AddRow({"I/O volume", Table::Num(static_cast<double>(r.io_bytes) / kMiB) + " MiB"});
  table.AddRow({"CPU utilization", Table::Pct(r.cpu_util)});
  table.AddRow({"freezes / thaws", std::to_string(r.freezes) + " / " + std::to_string(r.thaws)});
  table.AddRow({"LMK kills", std::to_string(r.lmk_kills)});
  table.AddRow({"free memory",
                Table::Num(PagesToMiB(exp->mm().free_pages() < 0
                                          ? 0
                                          : static_cast<PageCount>(exp->mm().free_pages())),
                           0) +
                    " MiB"});
  table.Print();

  if (opts.series) {
    std::printf("per-second FPS: ");
    for (double f : r.fps_series) {
      std::printf("%.0f ", f);
    }
    std::printf("\n");
  }

  if (opts.trace && exp->tracer() != nullptr) {
    std::string path = WriteChromeTrace(opts.trace_path, *exp->tracer());
    if (path.empty()) {
      std::fprintf(stderr, "trace export failed: %s\n", opts.trace_path.c_str());
      return 1;
    }
    const Tracer& t = *exp->tracer();
    std::printf("trace: %s (%llu events emitted, %zu retained, %llu dropped)\n",
                path.c_str(), static_cast<unsigned long long>(t.emitted()), t.retained(),
                static_cast<unsigned long long>(t.dropped()));
  }
  return 0;
}
