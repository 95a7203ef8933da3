// Choreographer: the 60 Hz vsync-driven frame pipeline.
//
// At every vsync it asks the active FrameSource (set by the running
// scenario) for the next frame's work and enqueues it on the foreground
// app's render thread. If the pipeline is already two frames deep the vsync
// is dropped — the jank the user sees. Completed frames report their
// enqueue→complete latency to FrameStats, from which FPS and RIA (§6.1's
// metrics) are derived.
#ifndef SRC_ANDROID_CHOREOGRAPHER_H_
#define SRC_ANDROID_CHOREOGRAPHER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/android/activity_manager.h"
#include "src/metrics/frame_stats.h"
#include "src/sim/engine.h"

namespace ice {

struct FrameWork {
  SimDuration compute_us = Ms(8);
  // The pages the frame reads, in order (AppendVpn merges consecutive ones).
  std::vector<VpnRun> runs;
  AddressSpace* space = nullptr;
};

class FrameSource {
 public:
  virtual ~FrameSource() = default;
  // Work for the frame at `vsync`, or nullopt when the app is idle.
  virtual std::optional<FrameWork> NextFrame(SimTime vsync) = 0;
};

class Choreographer {
 public:
  explicit Choreographer(ActivityManager& am);
  ~Choreographer();

  // Starts the vsync clock (idempotent).
  void Start();

  // Sets the frame producer; nullptr idles the pipeline.
  void SetSource(FrameSource* source) { source_ = source; }

  // True once the vsync clock runs. Snapshots are only taken pre-scenario,
  // while the pipeline is still cold.
  bool started() const { return started_; }

  FrameStats& stats() { return stats_; }

  // Recycling support: stops the vsync clock and forgets all frame state, so
  // a reused pipeline matches a freshly constructed (pre-Start) one. The
  // trace runner starts the clock but never stops it, so the recycler must.
  void ResetForRecycle() {
    if (next_vsync_ != kInvalidEventId) {
      am_.engine().Cancel(next_vsync_);  // Stale after a queue clear: no-op.
      next_vsync_ = kInvalidEventId;
    }
    started_ = false;
    source_ = nullptr;
    frame_seq_ = 0;
    stats_.Clear();
  }

  // Frames in flight on the render thread beyond which vsyncs drop. Depth 1
  // means a slow frame causes dropped vsyncs (visible jank) rather than a
  // growing latency queue — matching how the Android pipeline invalidates.
  static constexpr size_t kMaxPipelineDepth = 1;

 private:
  void OnVsync();

  ActivityManager& am_;
  FrameSource* source_ = nullptr;
  FrameStats stats_;
  bool started_ = false;
  EventId next_vsync_ = kInvalidEventId;
  // Monotonic frame id for trace correlation; advances for every issued
  // frame regardless of tracing so traced runs replay identically.
  uint64_t frame_seq_ = 0;
};

}  // namespace ice

#endif  // SRC_ANDROID_CHOREOGRAPHER_H_
