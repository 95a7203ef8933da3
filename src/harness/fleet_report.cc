#include "src/harness/fleet_report.h"

#include <sstream>

#include "src/base/json.h"

namespace ice {

namespace {

void AppendGroup(std::ostringstream& out, const FleetGroupStats& g,
                 bool include_swap) {
  out << "    {\"tier\": \"" << JsonEscape(g.tier) << "\", \"scheme\": \""
      << JsonEscape(g.scheme) << "\", \"devices\": " << g.devices
      << ", \"failures\": " << g.failures;
  if (g.failures > 0) {
    out << ", \"first_error_device\": " << g.first_error_device
        << ", \"first_error\": \"" << JsonEscape(g.first_error) << "\"";
  }
  out << ",\n     ";
  AppendJsonHistogram(out, "frame_latency_us", g.frame_latency_us);
  out << ",\n     ";
  AppendJsonHistogram(out, "fps", g.fps);
  out << ",\n     ";
  AppendJsonHistogram(out, "ria", g.ria);
  out << ",\n     ";
  AppendJsonHistogram(out, "refaults", g.refaults);
  out << ",\n     ";
  AppendJsonHistogram(out, "lmk_kills", g.lmk_kills);
  if (include_swap) {
    out << ",\n     ";
    AppendJsonHistogram(out, "zram_compressed_bytes", g.zram_compressed_bytes);
  }
  out << ",\n     \"total_frames\": " << g.total_frames
      << ", \"total_refaults\": " << g.total_refaults
      << ", \"total_lmk_kills\": " << g.total_lmk_kills
      << ", \"peak_arena_bytes\": " << g.peak_arena_bytes << "}";
}

}  // namespace

std::string FleetReportJson(const std::string& name, const FleetResult& result) {
  const FleetConfig& c = result.config;
  std::ostringstream out;
  out << "{\n  \"fleet\": \"" << JsonEscape(name) << "\",\n";
  // Emitted only off the default so pre-existing reports stay byte-identical.
  if (c.aging != "two_list") {
    out << "  \"aging\": \"" << JsonEscape(c.aging) << "\",\n";
  }
  if (c.swap != "baseline") {
    out << "  \"swap\": \"" << JsonEscape(c.swap) << "\",\n";
  }
  out << "  \"devices\": " << c.devices << ",\n"
      << "  \"chunk\": " << c.chunk << ",\n"
      << "  \"seed\": " << c.seed << ",\n"
      << "  \"sessions\": " << c.sessions << ",\n"
      << "  \"session_mean_s\": " << JsonNum(ToSeconds(c.session_mean)) << ",\n"
      << "  \"devices_failed\": " << result.devices_failed << ",\n"
      << "  \"peak_arena_bytes\": " << result.peak_arena_bytes << ",\n"
      << "  \"groups\": [\n";
  for (size_t i = 0; i < result.groups.size(); ++i) {
    AppendGroup(out, result.groups[i], /*include_swap=*/c.swap != "baseline");
    out << (i + 1 < result.groups.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string WriteFleetReport(const std::string& name, const FleetResult& result,
                             const std::string& dir) {
  return WriteJsonFile(dir + "/FLEET_" + name + ".json", FleetReportJson(name, result));
}

}  // namespace ice
