// Figure 8: FPS and RIA for the four scenarios under LRU+CFS, UCSG, Acclaim
// and Ice, on Pixel3 (6 BG apps) and P20 (8 BG apps).
// Paper anchor (S-A, Pixel3): 25.4 / 29.3 / 24.1 / 37.2 fps; PUBG on P20:
// RIA 46% -> 28% with Ice.
//
// The whole grid (device x scheme x scenario x seed) runs as one parallel
// sweep; raw cells land in results/fig8_scheme_comparison.json.
#include "bench/bench_util.h"

using namespace ice;

int main() {
  PrintSection("Figure 8: scheme comparison (FPS / RIA)");
  int rounds = BenchRounds(3);

  SweepAxes axes;
  axes.devices = {Pixel3Profile(), P20Profile()};
  axes.schemes = {"lru_cfs", "ucsg", "acclaim", "ice"};
  axes.scenarios = {ScenarioKind::kVideoCall, ScenarioKind::kShortVideo,
                    ScenarioKind::kScrolling, ScenarioKind::kGame};
  axes.bg_counts = {-1};  // Each device's full-pressure count.
  axes.seeds = RoundSeeds(rounds);

  SweepRunner runner;
  std::vector<SweepCell> cells = axes.Cells();
  std::printf("running %zu cells on %d workers\n", cells.size(), runner.jobs());
  std::vector<CellOutcome> outcomes = runner.Run(cells);
  WriteSweepReport("fig8_scheme_comparison", runner.jobs(), cells, outcomes);

  for (size_t d = 0; d < axes.devices.size(); ++d) {
    const DeviceProfile& device = axes.devices[d];
    std::printf("\n--- %s (%d BG apps) ---\n", device.name.c_str(),
                device.full_pressure_bg_apps);
    for (size_t c = 0; c < axes.scenarios.size(); ++c) {
      Table table({"scheme", "fps", "RIA"});
      double lru_fps = 0.0, ice_fps = 0.0;
      for (size_t s = 0; s < axes.schemes.size(); ++s) {
        ScenarioAverages avg = AverageSeeds(axes, outcomes, d, s, c, 0);
        if (axes.schemes[s] == "lru_cfs") {
          lru_fps = avg.fps;
        }
        if (axes.schemes[s] == "ice") {
          ice_fps = avg.fps;
        }
        table.AddRow({axes.schemes[s], Table::Num(avg.fps), Table::Pct(avg.ria, 0)});
      }
      ScenarioKind kind = axes.scenarios[c];
      std::printf("%s (%s):\n", ScenarioLabel(kind), ScenarioName(kind));
      table.Print();
      // The paper gives a ratio only for S-A on Pixel3 (37.2 / 25.4 fps).
      const bool anchored =
          device.name == Pixel3Profile().name && kind == ScenarioKind::kVideoCall;
      std::printf("Ice/LRU+CFS fps ratio: %.2fx%s\n\n", lru_fps > 0 ? ice_fps / lru_fps : 0.0,
                  anchored ? " (paper: 1.46x)" : "");
    }
  }
  std::printf("Shape check: Ice wins every scenario; UCSG helps modestly; Acclaim\n"
              "is mixed (it shifts refaults to the BG; see bench_fig10).\n");
  return 0;
}
