#include "src/android/choreographer.h"

#include <utility>

#include "src/base/log.h"
#include "src/trace/trace.h"

namespace ice {

Choreographer::Choreographer(ActivityManager& am) : am_(am) {}

Choreographer::~Choreographer() {
  if (next_vsync_ != kInvalidEventId) {
    am_.engine().Cancel(next_vsync_);
  }
}

void Choreographer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  next_vsync_ = am_.engine().ScheduleAfter(kVsyncPeriod, [this]() { OnVsync(); });
}

void Choreographer::OnVsync() {
  Engine& engine = am_.engine();
  next_vsync_ = engine.ScheduleAfter(kVsyncPeriod, [this]() { OnVsync(); });

  if (source_ == nullptr) {
    return;
  }
  App* fg = am_.foreground_app();
  if (fg == nullptr || !am_.interactive(fg->uid())) {
    return;  // Nothing on screen / still launching.
  }
  WorkQueueBehavior* render = am_.render_thread(fg->uid());
  if (render == nullptr) {
    return;
  }
  if (render->pending() >= kMaxPipelineDepth) {
    // Pipeline saturated: this vsync produces no frame.
    stats_.RecordDropped();
    ICE_TRACE(engine, TraceEventType::kFrameDeadlineMiss,
              {.uid = fg->uid(), .flags = kTraceFlagDropped, .arg0 = frame_seq_});
    return;
  }
  std::optional<FrameWork> frame = source_->NextFrame(engine.now());
  if (!frame.has_value()) {
    return;
  }

  WorkItem item;
  item.compute_us = frame->compute_us;
  item.runs = std::move(frame->runs);
  item.space = frame->space;
  item.write = false;
  SimTime enqueue = engine.now();
  uint64_t seq = ++frame_seq_;
  Uid fg_uid = fg->uid();
  ICE_TRACE(engine, TraceEventType::kFrameBegin, {.uid = fg_uid, .arg0 = seq});
  item.on_complete = [this, enqueue, seq, fg_uid]() {
    SimTime done = am_.engine().now();
    stats_.RecordFrame(enqueue, done);
    SimDuration latency = done - enqueue;
    ICE_TRACE(am_.engine(), TraceEventType::kFrameEnd,
              {.uid = fg_uid, .arg0 = seq, .arg1 = latency});
    if (latency > kVsyncPeriod) {
      ICE_TRACE(am_.engine(), TraceEventType::kFrameDeadlineMiss,
                {.uid = fg_uid, .arg0 = seq, .arg1 = latency});
    }
  };
  render->Push(std::move(item));
}

}  // namespace ice
