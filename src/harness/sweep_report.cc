#include "src/harness/sweep_report.h"

#include <sstream>

#include "src/base/json.h"
#include "src/base/log.h"
#include "src/trace/summary.h"

namespace ice {

namespace {

void AppendCell(std::ostringstream& out, const SweepCell& cell,
                const CellOutcome& outcome) {
  const ExperimentConfig& c = cell.config;
  int bg = cell.bg_apps >= 0 ? cell.bg_apps : c.device.full_pressure_bg_apps;
  out << "    {\"device\": \"" << JsonEscape(c.device.name) << "\""
      << ", \"scheme\": \"" << JsonEscape(c.scheme) << "\"";
  // Emitted only off the default so pre-existing reports stay byte-identical.
  if (c.aging != "two_list") {
    out << ", \"aging\": \"" << JsonEscape(c.aging) << "\"";
  }
  if (c.swap != "baseline") {
    out << ", \"swap\": \"" << JsonEscape(c.swap) << "\"";
  }
  out << ", \"scenario\": \"" << ScenarioLabel(cell.scenario) << "\""
      << ", \"bg_apps\": " << bg << ", \"seed\": " << c.seed
      << ", \"duration_s\": " << JsonNum(ToSeconds(cell.duration))
      << ", \"warmup_s\": " << JsonNum(ToSeconds(cell.warmup))
      << ", \"ok\": " << (outcome.ok ? "true" : "false");
  if (!outcome.ok) {
    out << ", \"error\": \"" << JsonEscape(outcome.error) << "\"}";
    return;
  }
  const ScenarioResult& r = outcome.value;
  out << ", \"metrics\": {\"avg_fps\": " << JsonNum(r.avg_fps)
      << ", \"ria\": " << JsonNum(r.ria) << ", \"reclaims\": " << r.reclaims
      << ", \"refaults\": " << r.refaults << ", \"refaults_bg\": " << r.refaults_bg
      << ", \"refaults_fg\": " << r.refaults_fg
      << ", \"io_requests\": " << r.io_requests << ", \"io_bytes\": " << r.io_bytes
      << ", \"cpu_util\": " << JsonNum(r.cpu_util) << ", \"freezes\": " << r.freezes
      << ", \"thaws\": " << r.thaws << ", \"lmk_kills\": " << r.lmk_kills
      << ", \"arena_bytes_peak\": " << r.arena_bytes_peak;
  // Byte-compat rule: keys below appear only when they carry signal, so
  // baseline-swap reports do not change shape.
  if (r.zram_rejects > 0) {
    out << ", \"zram_rejects\": " << r.zram_rejects;
  }
  if (c.swap != "baseline") {
    out << ", \"swap_rejects_hot\": " << r.swap_rejects_hot
        << ", \"swap_writeback_pages\": " << r.swap_writeback_pages
        << ", \"swap_stores_fast\": " << r.swap_stores_fast
        << ", \"swap_stores_dense\": " << r.swap_stores_dense << ", ";
    AppendJsonHistogram(out, "zram_compressed_bytes", r.zram_compressed_bytes);
  }
  out << ", \"fps_series\": [";
  for (size_t i = 0; i < r.fps_series.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << JsonNum(r.fps_series[i]);
  }
  out << "]";
  if (r.trace.enabled) {
    out << ", \"trace\": " << TraceSummaryJson(r.trace);
  }
  out << "}}";
}

}  // namespace

std::string SweepReportJson(const std::string& name, int jobs,
                            const std::vector<SweepCell>& cells,
                            const std::vector<CellOutcome>& outcomes) {
  ICE_CHECK_EQ(cells.size(), outcomes.size());
  std::ostringstream out;
  out << "{\n  \"sweep\": \"" << JsonEscape(name) << "\",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCell(out, cells[i], outcomes[i]);
    out << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string WriteSweepReport(const std::string& name, int jobs,
                             const std::vector<SweepCell>& cells,
                             const std::vector<CellOutcome>& outcomes,
                             const std::string& dir) {
  return WriteJsonFile(dir + "/" + name + ".json",
                       SweepReportJson(name, jobs, cells, outcomes));
}

}  // namespace ice
