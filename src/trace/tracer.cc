#include "src/trace/tracer.h"

#include <sstream>
#include <string>
#include <type_traits>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay raw-dumpable for snapshots");

void TraceRingBuffer::Transfer(SnapshotArchive& ar) {
  ar.Expect<uint64_t>(buf_.size(), "trace ring capacity");
  uint64_t head = dropped() % buf_.size();
  uint64_t held = size();
  uint64_t lost = dropped();
  ar.U64(head);
  ar.U64(held);
  ar.U64(lost);
  if (ar.loading()) {
    pushes_ = held + lost;
    if (held != size() || head != dropped() % buf_.size()) {
      SnapshotArchive::Fail("trace ring cursor (head " + std::to_string(head) + ", size " +
                            std::to_string(held) + ") disagrees with its " +
                            std::to_string(pushes_) + " pushes");
    }
  }
  ar.Bytes(buf_.data(), buf_.size() * sizeof(TraceEvent));
}

void Tracer::Transfer(SnapshotArchive& ar) {
  ring_.Transfer(ar);
  ar.Expect<uint64_t>(ring_.pushes(), "trace emitted count");
  uint64_t sum = 0;
  for (uint64_t& c : counts_) {
    ar.U64(c);
    sum += c;
  }
  if (ar.loading()) {
    if (sum != ring_.pushes()) {
      SnapshotArchive::Fail("trace event counts sum to " + std::to_string(sum) + ", not the " +
                            std::to_string(ring_.pushes()) + " emitted");
    }
    task_names_.clear();
  }
  ar.Entries(task_names_, 16, [&ar](uint64_t& id, std::string& name) {
    ar.U64(id);
    ar.Str(name);
  });
}

const char* TraceEventTypeName(TraceEventType type) {
#define ICE_TRACE_EVENT_NAME(id, name) name,
  static constexpr const char* kNames[] = {ICE_TRACE_EVENT_TYPES(ICE_TRACE_EVENT_NAME)};
#undef ICE_TRACE_EVENT_NAME
  size_t i = static_cast<size_t>(type);
  return i < kTraceEventTypeCount ? kNames[i] : "unknown";
}

const std::string& Tracer::TaskName(uint64_t trace_id) const {
  static const std::string kIdle = "idle";
  static const std::string kUnknown = "task";
  if (trace_id == 0) {
    return kIdle;
  }
  auto it = task_names_.find(trace_id);
  return it == task_names_.end() ? kUnknown : it->second;
}

std::string Tracer::Serialize() const {
  std::ostringstream out;
  for (const TraceEvent& e : ring_.Snapshot()) {
    out << e.ts << ' ' << TraceEventTypeName(e.type) << " flags=" << int{e.flags}
        << " core=" << e.core << " pid=" << e.pid << " uid=" << e.uid
        << " arg0=" << e.arg0 << " arg1=" << e.arg1 << '\n';
  }
  out << "emitted=" << emitted() << " dropped=" << dropped() << '\n';
  return out.str();
}

}  // namespace ice
