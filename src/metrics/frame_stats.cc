#include "src/metrics/frame_stats.h"

#include <algorithm>

#include "src/base/log.h"

namespace ice {

void FrameStats::RecordFrame(SimTime enqueue_time, SimTime complete_time) {
  ICE_CHECK_GE(complete_time, enqueue_time);
  completions_.push_back(Completion{enqueue_time, complete_time});
  SimDuration latency = complete_time - enqueue_time;
  latency_us_.Add(static_cast<double>(latency));
  if (latency > kInteractionAlertUs) {
    ++late_;
  }
}

void FrameStats::Clear() {
  completions_.clear();
  dropped_ = 0;
  late_ = 0;
  latency_us_.Clear();
}

double FrameStats::AverageFps(SimTime begin, SimTime end) const {
  if (end <= begin) {
    return 0.0;
  }
  uint64_t n = 0;
  for (const Completion& c : completions_) {
    if (c.complete >= begin && c.complete < end) {
      ++n;
    }
  }
  return static_cast<double>(n) / ToSeconds(end - begin);
}

std::vector<double> FrameStats::FpsPerSecond(SimTime begin, SimTime end) const {
  std::vector<double> out;
  if (end <= begin) {
    return out;
  }
  size_t seconds = static_cast<size_t>((end - begin + kSecond - 1) / kSecond);
  out.assign(seconds, 0.0);
  for (const Completion& c : completions_) {
    if (c.complete >= begin && c.complete < end) {
      out[static_cast<size_t>((c.complete - begin) / kSecond)] += 1.0;
    }
  }
  return out;
}

double FrameStats::Ria() const {
  if (completions_.empty()) {
    return 0.0;
  }
  return static_cast<double>(late_) / static_cast<double>(completions_.size());
}

}  // namespace ice
