// Fixed-capacity ring buffer of trace events, mirroring the per-CPU ftrace
// ring: when full, the oldest event is overwritten and a drop counter ticks —
// emission never allocates, fails, or corrupts newer events.
#ifndef SRC_TRACE_RING_BUFFER_H_
#define SRC_TRACE_RING_BUFFER_H_

#include <cstddef>
#include <vector>

#include "src/trace/trace_event.h"

namespace ice {

class SnapshotArchive;

class TraceRingBuffer {
 public:
  explicit TraceRingBuffer(size_t capacity) : buf_(capacity == 0 ? 1 : capacity) {}

  void Push(const TraceEvent& event) {
    size_t cap = buf_.size();
    if (size_ < cap) {
      buf_[(head_ + size_) % cap] = event;
      ++size_;
    } else {
      // Overwrite the oldest event.
      buf_[head_] = event;
      head_ = (head_ + 1) % cap;
      ++dropped_;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      out.push_back(buf_[(head_ + i) % buf_.size()]);
    }
    return out;
  }

  void Clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

  // Snapshot support (raw dump; TraceEvent is a fixed-size POD). Restore
  // requires an identically-sized buffer (same trace config).
  void Transfer(SnapshotArchive& ar);

 private:
  std::vector<TraceEvent> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace ice

#endif  // SRC_TRACE_RING_BUFFER_H_
