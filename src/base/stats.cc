#include "src/base/stats.h"

#include <algorithm>
#include <iterator>

#include "src/base/binary_stream.h"

namespace ice {

uint64_t* StatsRegistry::Counter(const std::string& name) { return &counters_[name]; }

uint64_t StatsRegistry::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> StatsRegistry::Snapshot() const { return counters_; }

std::map<std::string, uint64_t> StatsRegistry::Diff(
    const std::map<std::string, uint64_t>& before, const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t prev = it == before.end() ? 0 : it->second;
    out[name] = value - prev;
  }
  return out;
}

void StatsRegistry::Reset() {
  for (auto& [name, value] : counters_) {
    value = 0;
  }
}

void StatsRegistry::Transfer(SnapshotArchive& ar) {
  if (ar.loading()) {
    Reset();
  }
  ar.Entries(counters_, 16, [&ar](std::string& name, uint64_t& value) {
    ar.Str(name);
    if (ar.loading() &&
        std::find(std::begin(stat::kAll), std::end(stat::kAll), name) == std::end(stat::kAll)) {
      SnapshotArchive::Fail("unknown counter name \"" + name + "\"");
    }
    ar.U64(value);
  });
}

}  // namespace ice
