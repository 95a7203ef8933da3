#include "src/harness/sweep.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace ice {

std::vector<SweepCell> SweepAxes::Cells() const {
  std::vector<SweepCell> cells;
  cells.reserve(size());
  const std::vector<std::string> swap_axis =
      swaps.empty() ? std::vector<std::string>{base.swap} : swaps;
  const std::vector<std::string> aging_axis =
      agings.empty() ? std::vector<std::string>{base.aging} : agings;
  for (const std::string& swap : swap_axis) {
    for (const std::string& aging : aging_axis) {
      for (const DeviceProfile& device : devices) {
        for (const std::string& scheme : schemes) {
          for (ScenarioKind scenario : scenarios) {
            for (int bg : bg_counts) {
              for (uint64_t seed : seeds) {
                SweepCell cell;
                cell.config = base;
                cell.config.swap = swap;
                cell.config.aging = aging;
                cell.config.device = device;
                cell.config.scheme = scheme;
                cell.config.seed = seed;
                cell.scenario = scenario;
                cell.bg_apps = bg;
                cell.duration = duration;
                cell.warmup = warmup;
                cells.push_back(cell);
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

size_t SweepAxes::Index(size_t device, size_t scheme, size_t scenario, size_t bg,
                        size_t seed) const {
  return (((device * schemes.size() + scheme) * scenarios.size() + scenario) *
              bg_counts.size() +
          bg) *
             seeds.size() +
         seed;
}

int DefaultSweepJobs() {
  const char* env = std::getenv("ICE_JOBS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs > 0 ? jobs : DefaultSweepJobs()) {}

void SweepRunner::Dispatch(size_t n, const std::function<void(size_t)>& task) const {
  if (n == 0) {
    return;
  }
  size_t workers = std::min(static_cast<size_t>(jobs_), n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&next, &task, n] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      task(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::vector<CellOutcome> SweepRunner::Run(const std::vector<SweepCell>& cells,
                                          bool /*share_prefix*/) const {
  return Map<ScenarioResult>(cells.size(), [&cells](size_t i) { return RunCell(cells[i]); });
}

int SweepRunner::NormalizedBg(const SweepCell& cell) {
  return cell.bg_apps >= 0 ? cell.bg_apps : cell.config.device.full_pressure_bg_apps;
}

ScenarioResult SweepRunner::RunCell(const SweepCell& cell) {
  Experiment exp(cell.config);
  Uid fg = exp.UidOf(ScenarioPackage(cell.scenario));
  int bg = NormalizedBg(cell);
  if (bg > 0) {
    exp.CacheBackgroundApps(bg, {fg});
  }
  return exp.RunScenario(cell.scenario, cell.duration, cell.warmup);
}

}  // namespace ice
