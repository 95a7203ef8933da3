// Frame-rate metrics: FPS (frames per second) and RIA (ratio of interaction
// alerts — frames that missed the 16.6 ms deadline, §6.1).
#ifndef SRC_METRICS_FRAME_STATS_H_
#define SRC_METRICS_FRAME_STATS_H_

#include <cstdint>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/units.h"

namespace ice {

// One vsync interval at 60 Hz.
inline constexpr SimDuration kVsyncPeriod = Us(16667);
// Systrace's interaction-alert threshold (§6.1).
inline constexpr SimDuration kInteractionAlertUs = Us(16600);

class FrameStats {
 public:
  FrameStats() = default;

  void RecordFrame(SimTime enqueue_time, SimTime complete_time);
  // A vsync for which no frame could be issued (pipeline backed up).
  void RecordDropped() { ++dropped_; }

  void Clear();

  uint64_t frames_completed() const { return completions_.size(); }
  uint64_t frames_dropped() const { return dropped_; }

  // Average FPS over [begin, end): completed frames / seconds.
  double AverageFps(SimTime begin, SimTime end) const;

  // Completed-frame count per wall-clock second over [begin, end).
  std::vector<double> FpsPerSecond(SimTime begin, SimTime end) const;

  // Ratio of interaction alerts: the fraction of *rendered* frames that
  // missed the 16.6 ms deadline (Systrace counts alerts on rendered frames;
  // dropped vsyncs show up in FPS instead).
  double Ria() const;

  const Histogram& latency_us() const { return latency_us_; }

 private:
  struct Completion {
    SimTime enqueue;
    SimTime complete;
  };
  std::vector<Completion> completions_;
  uint64_t dropped_ = 0;
  uint64_t late_ = 0;
  Histogram latency_us_;
};

}  // namespace ice

#endif  // SRC_METRICS_FRAME_STATS_H_
