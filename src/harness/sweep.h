// Parallel sweep runner for the experiment harness.
//
// Every figure and ablation in the paper is a grid of independent runs —
// scheme × scenario × background-app count × seed. Each cell owns its own
// Engine, Rng and StatsRegistry, so the grid is embarrassingly parallel.
// SweepRunner fans cells out to a worker pool and returns results in
// deterministic grid order regardless of scheduling: the metrics of a cell
// depend only on its own config (and seed), never on which thread ran it or
// in what order, so a parallel sweep is bit-for-bit identical to a serial
// one. CI asserts this invariant (tests/harness/sweep_test.cc).
#ifndef SRC_HARNESS_SWEEP_H_
#define SRC_HARNESS_SWEEP_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace ice {

// One fully-specified cell: an experiment configuration plus the scenario
// window to measure. `config.seed` carries the per-cell seed.
struct SweepCell {
  ExperimentConfig config;
  ScenarioKind scenario = ScenarioKind::kShortVideo;
  int bg_apps = 0;  // -1 = the device's full-pressure count.
  SimDuration duration = Sec(30);
  SimDuration warmup = Sec(240);
};

// Declarative grid specification. The cross product enumerates cells in
// row-major order with `devices` slowest and `seeds` fastest, which fixes
// the result ordering for reports and comparisons.
struct SweepAxes {
  std::vector<DeviceProfile> devices;
  std::vector<std::string> schemes;
  std::vector<ScenarioKind> scenarios;
  std::vector<int> bg_counts;  // -1 = device full-pressure count.
  std::vector<uint64_t> seeds;
  // Page aging policies ("two_list" / "gen_clock"); empty = base.aging only.
  // Outermost (slowest) axis, so a grid without it enumerates exactly as
  // before the axis existed.
  std::vector<std::string> agings;
  // Swap policies ("baseline" / "hotness"); empty = base.swap only. Sits
  // outside even `agings` under the same rule: a grid without it enumerates
  // exactly as before.
  std::vector<std::string> swaps;
  SimDuration duration = Sec(30);
  SimDuration warmup = Sec(240);
  // Applied to every cell before the per-axis fields; lets callers sweep
  // IceConfig knobs (ablations) while keeping the grid declarative.
  ExperimentConfig base;

  std::vector<SweepCell> Cells() const;
  // Flat index of (device, scheme, scenario, bg, seed) into Cells(), within
  // the first (or only) swap/aging block.
  size_t Index(size_t device, size_t scheme, size_t scenario, size_t bg,
               size_t seed) const;
  size_t size() const {
    return (swaps.empty() ? 1 : swaps.size()) * (agings.empty() ? 1 : agings.size()) *
           devices.size() * schemes.size() * scenarios.size() * bg_counts.size() *
           seeds.size();
  }
};

// Result slot for one unit of sweep work. A cell whose body throws is
// reported here (ok = false, error = what()) without poisoning siblings.
template <typename T>
struct SweepOutcome {
  T value{};
  bool ok = false;
  std::string error;
};

using CellOutcome = SweepOutcome<ScenarioResult>;

// Runs body(). If it throws, stores what() ("unknown exception" for a
// non-std exception) in *error and returns false. Sweep cells and fleet
// devices both fail through here, so one bad unit of work is reported
// without taking its worker or its siblings down.
template <typename Body>
bool CaptureFailure(Body&& body, std::string* error) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
  } catch (...) {
    *error = "unknown exception";
  }
  return false;
}

// Worker count: ICE_JOBS env override, else hardware concurrency (min 1).
int DefaultSweepJobs();

class SweepRunner {
 public:
  // jobs <= 0 selects DefaultSweepJobs().
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Deterministic parallel map: runs fn(i) for i in [0, n) on the pool and
  // returns outcomes indexed by i, independent of scheduling. fn must not
  // touch shared mutable state (each sweep cell builds its own Experiment).
  template <typename T>
  std::vector<SweepOutcome<T>> Map(size_t n, const std::function<T(size_t)>& fn) const {
    std::vector<SweepOutcome<T>> out(n);
    Dispatch(n, [&](size_t i) {
      out[i].ok = CaptureFailure([&] { out[i].value = fn(i); }, &out[i].error);
    });
    return out;
  }

  // Runs task(i) for every i in [0, n) on min(jobs, n) workers, which take
  // indices from one atomic counter, so they are handed out in increasing
  // order. task must not throw. Fleets run their chunks through this too.
  void Dispatch(size_t n, const std::function<void(size_t)>& task) const;

  // Runs every cell on the pool through RunCell.
  // `share_prefix` selects nothing; it remains only because bench/e2e passes it.
  std::vector<CellOutcome> Run(const std::vector<SweepCell>& cells,
                               bool share_prefix = true) const;

  // The one cell body shared by benches, the CLI and tests: build an
  // isolated Experiment, cache the background apps (each settled to
  // quiescence), run the scenario.
  static ScenarioResult RunCell(const SweepCell& cell);

  // The cell's effective background-app count (-1 resolves to the device's
  // full-pressure count).
  static int NormalizedBg(const SweepCell& cell);

 private:
  int jobs_;
};

}  // namespace ice

#endif  // SRC_HARNESS_SWEEP_H_
