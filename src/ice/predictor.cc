#include "src/ice/predictor.h"

#include <algorithm>

#include "src/base/binary_stream.h"

namespace ice {

void AppUsagePredictor::Transfer(SnapshotArchive& ar) {
  ar.U64(transitions_);
  if (ar.loading()) {
    counts_.clear();
  }
  ar.Entries(counts_, 16, [&ar](Uid& from, std::map<Uid, uint64_t>& tos) {
    ar.I64(from);
    ar.Entries(tos, 16, [&ar](Uid& to, uint64_t& count) {
      ar.I64(to);
      ar.U64(count);
    });
  });
}

void AppUsagePredictor::RecordSwitch(Uid from, Uid to) {
  if (from == kInvalidUid || to == kInvalidUid || from == to) {
    return;
  }
  ++counts_[from][to];
  ++transitions_;
}

std::vector<Uid> AppUsagePredictor::PredictNext(Uid current, size_t k) const {
  std::vector<Uid> result;
  auto it = counts_.find(current);
  if (it == counts_.end()) {
    return result;
  }
  std::vector<std::pair<uint64_t, Uid>> ranked;
  ranked.reserve(it->second.size());
  for (const auto& [to, count] : it->second) {
    ranked.emplace_back(count, to);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;  // Deterministic tie-break.
  });
  for (size_t i = 0; i < ranked.size() && i < k; ++i) {
    result.push_back(ranked[i].second);
  }
  return result;
}

double AppUsagePredictor::TransitionProbability(Uid current, Uid next) const {
  auto it = counts_.find(current);
  if (it == counts_.end()) {
    return 0.0;
  }
  uint64_t total = 0;
  for (const auto& [to, count] : it->second) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  auto nit = it->second.find(next);
  return nit == it->second.end() ? 0.0
                                 : static_cast<double>(nit->second) / static_cast<double>(total);
}

}  // namespace ice
