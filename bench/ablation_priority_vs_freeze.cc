// Ablation (§4.3): "Before adopting the freezing/thawing approach, this
// paper explored various schemes, such as priority reduction. However, even
// the process with the lowest priority can still run frequently; the
// reduction of page refaults is not significant."
//
// We compare: LRU+CFS, UCSG (moderate deprioritization), a maximal
// priority-reduction variant (nice +19 for all BG tasks), and Ice. The
// scheme x seed grid runs as one parallel sweep; raw cells land in
// results/ablation_priority_vs_freeze.json.
#include "bench/bench_util.h"

using namespace ice;

int main() {
  PrintSection("Ablation: priority reduction vs freezing (S-B on P20, 8 BG apps)");
  int rounds = BenchRounds(3);
  SweepAxes axes;
  axes.devices = {P20Profile()};
  axes.schemes = {"lru_cfs", "ucsg", "nice19", "ice"};
  axes.scenarios = {ScenarioKind::kShortVideo};
  axes.bg_counts = {8};
  axes.seeds = RoundSeeds(rounds);

  SweepRunner runner;
  std::vector<SweepCell> cells = axes.Cells();
  std::printf("running %zu cells on %d workers\n", cells.size(), runner.jobs());
  std::vector<CellOutcome> outcomes = runner.Run(cells);
  WriteSweepReport("ablation_priority_vs_freeze", runner.jobs(), cells, outcomes);

  Table table({"scheme", "fps", "BG refaults", "reclaims"});
  for (size_t s = 0; s < axes.schemes.size(); ++s) {
    ScenarioAverages avg = AverageSeeds(axes, outcomes, 0, s, 0, 0);
    table.AddRow({axes.schemes[s], Table::Num(avg.fps), Table::Num(avg.refaults_bg, 0),
                  Table::Num(avg.reclaims, 0)});
  }
  table.Print();
  std::printf("\nPaper's point: even at the lowest priority, BG tasks still run and\n"
              "still refault; only freezing strictly constrains BG refaults.\n");
  return 0;
}
