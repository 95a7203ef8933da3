// Tracer: one per experiment, owning the event ring buffer, per-type totals
// and the task-name table for scheduler tracks. Deterministic by
// construction: timestamps are SimTime, ids are sequence counters, and every
// container iterates in a seed-independent order.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/trace/ring_buffer.h"
#include "src/trace/trace_event.h"

namespace ice {

// Ring capacity is configured in 4 KiB "buffer pages" like
// /sys/kernel/tracing/buffer_size_kb: events per page = page / sizeof(event).
inline constexpr uint32_t kDefaultTraceBufferPages = 1024;

constexpr size_t TraceEventsPerPage() { return kPageSize / sizeof(TraceEvent); }

class Tracer {
 public:
  explicit Tracer(uint32_t buffer_pages = kDefaultTraceBufferPages)
      : ring_(static_cast<size_t>(buffer_pages == 0 ? 1 : buffer_pages) *
              TraceEventsPerPage()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Emit(SimTime ts, TraceEventType type, TraceArgs args = {}) {
    TraceEvent e;
    e.ts = ts;
    e.type = type;
    e.flags = static_cast<uint8_t>(args.flags);
    e.core = static_cast<uint16_t>(args.core);
    e.pid = args.pid;
    e.uid = args.uid;
    e.arg0 = args.arg0;
    e.arg1 = args.arg1;
    ++emitted_;
    ++counts_[static_cast<size_t>(type)];
    ring_.Push(e);
  }

  // Scheduler task tracks: trace id -> display name (id 0 is reserved for
  // "idle"). Registration order is creation order, hence deterministic.
  void RegisterTaskName(uint64_t trace_id, const std::string& name) {
    task_names_[trace_id] = name;
  }
  const std::string& TaskName(uint64_t trace_id) const;
  const std::map<uint64_t, std::string>& task_names() const { return task_names_; }

  std::vector<TraceEvent> Events() const { return ring_.Snapshot(); }
  uint64_t emitted() const { return emitted_; }
  uint64_t dropped() const { return ring_.dropped(); }
  size_t retained() const { return ring_.size(); }
  size_t capacity_events() const { return ring_.capacity(); }
  uint64_t count(TraceEventType type) const {
    return counts_[static_cast<size_t>(type)];
  }

  // Canonical line-per-event text form; what the determinism tests compare
  // byte-for-byte between serial and parallel sweeps.
  std::string Serialize() const;

  // Snapshot support. The ring content, totals and task-name table are all
  // part of the deterministic state a restored run must reproduce.
  void SaveTo(BinaryWriter& w) const;
  void RestoreFrom(BinaryReader& r);

 private:
  TraceRingBuffer ring_;
  uint64_t emitted_ = 0;
  uint64_t counts_[kTraceEventTypeCount] = {};
  std::map<uint64_t, std::string> task_names_;
};

}  // namespace ice

#endif  // SRC_TRACE_TRACER_H_
