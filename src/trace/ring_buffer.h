// Fixed-capacity ring buffer of trace events, mirroring the per-CPU ftrace
// ring: when full, the oldest event is overwritten and a drop counter ticks —
// emission never allocates, fails, or corrupts newer events. The push count
// is the only cursor: push n lands in slot n mod capacity, so the ring holds
// min(pushes, capacity) events and dropped the rest.
#ifndef SRC_TRACE_RING_BUFFER_H_
#define SRC_TRACE_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/trace/trace_event.h"

namespace ice {

class SnapshotArchive;

class TraceRingBuffer {
 public:
  explicit TraceRingBuffer(size_t capacity) : buf_(capacity == 0 ? 1 : capacity) {}

  void Push(const TraceEvent& event) { buf_[pushes_++ % buf_.size()] = event; }

  uint64_t pushes() const { return pushes_; }
  size_t size() const { return static_cast<size_t>(std::min<uint64_t>(pushes_, buf_.size())); }
  size_t capacity() const { return buf_.size(); }
  uint64_t dropped() const { return pushes_ - size(); }

  // Retained events, oldest first. The oldest sits where the first
  // undropped push landed.
  std::vector<TraceEvent> Snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size());
    for (uint64_t n = dropped(); n < pushes_; ++n) {
      out.push_back(buf_[n % buf_.size()]);
    }
    return out;
  }

  // Snapshot support (raw dump; TraceEvent is a fixed-size POD). Format v2's
  // head, size and drop count are written as derived from the push count;
  // restoring throws where they disagree with one another. Restore requires
  // an identically-sized buffer (same trace config).
  void Transfer(SnapshotArchive& ar);

 private:
  std::vector<TraceEvent> buf_;
  uint64_t pushes_ = 0;
};

}  // namespace ice

#endif  // SRC_TRACE_RING_BUFFER_H_
