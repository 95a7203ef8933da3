// Typed trace events — the simulator's equivalent of ftrace tracepoints.
//
// Every event is a fixed-size POD stamped with SimTime (never wall clock), so
// a trace is a pure function of the experiment's config and seed: the same
// cell produces a byte-identical event sequence no matter which worker thread
// ran it. Events cross the five layers of the paper's interference chain
// (mem reclaim/zram/shadow, proc scheduler/freezer, storage, android frames,
// ice rpf/mdt) and are consumed by the Chrome trace_event exporter and the
// derived-counter summary (src/trace/chrome_export.h, src/trace/summary.h).
#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstddef>
#include <cstdint>

#include "src/base/units.h"

namespace ice {

// The one list of event types, X(enumerator, name) per type in wire order:
// it declares TraceEventType, the stable lower_snake_case names
// TraceEventTypeName returns and kTraceEventTypeCount. The comment above each
// entry gives the type's fields.
#define ICE_TRACE_EVENT_TYPES(X)                                                    \
  /* flags: direct; arg0 = target pages. */                                         \
  X(kReclaimBegin, "reclaim_begin")                                                 \
  /* flags: direct; arg0 = reclaimed, arg1 = scanned. */                            \
  X(kReclaimEnd, "reclaim_end")                                                     \
  /* uid = owner; flags: anon|direct; arg0 = vpn. */                                \
  X(kPageEvict, "page_evict")                                                       \
  /* pid/uid; flags: foreground|anon; arg0 = vpn. */                                \
  X(kRefault, "refault")                                                            \
  /* uid = owner; arg0 = compressed bytes. */                                       \
  X(kZramCompress, "zram_compress")                                                 \
  /* pid/uid; arg0 = compressed bytes freed. */                                     \
  X(kZramDecompress, "zram_decompress")                                             \
  /* pid; flags: foreground|write; arg0 = pages, arg1 = bio id. */                  \
  X(kBioSubmit, "bio_submit")                                                       \
  /* flags: foreground|write; arg0 = latency us, arg1 = bio id. */                  \
  X(kBioComplete, "bio_complete")                                                   \
  /* core; pid; arg0 = task trace id (0 = idle). */                                 \
  X(kSchedSwitch, "sched_switch")                                                   \
  /* uid. */                                                                        \
  X(kFreeze, "freeze")                                                              \
  /* uid. */                                                                        \
  X(kThaw, "thaw")                                                                  \
  /* pid/uid of the refaulting BG app RPF froze. */                                 \
  X(kRpfTrigger, "rpf_trigger")                                                     \
  /* arg0 = freeze duration E_f us, arg1 = epoch number. */                         \
  X(kMdtEpoch, "mdt_epoch")                                                         \
  /* uid = fg app; arg0 = frame sequence number. */                                 \
  X(kFrameBegin, "frame_begin")                                                     \
  /* arg0 = frame sequence, arg1 = latency us. */                                   \
  X(kFrameEnd, "frame_end")                                                         \
  /* flags: dropped (vsync with no frame issued);                                   \
     arg0 = frame sequence, arg1 = latency us (0 if dropped). */                    \
  X(kFrameDeadlineMiss, "frame_deadline_miss")                                      \
  /* uid = owner; flags: hot (admission gate) or none                               \
     (pool full); arg0 = vpn. */                                                    \
  X(kZramReject, "zram_reject")                                                     \
  /* arg0 = pages drained from zram to flash. */                                    \
  X(kZramWriteback, "zram_writeback")

enum class TraceEventType : uint8_t {
#define ICE_TRACE_EVENT_ENUMERATOR(id, name) id,
  ICE_TRACE_EVENT_TYPES(ICE_TRACE_EVENT_ENUMERATOR)
#undef ICE_TRACE_EVENT_ENUMERATOR
};

#define ICE_TRACE_EVENT_ONE(id, name) +1
inline constexpr size_t kTraceEventTypeCount = 0 ICE_TRACE_EVENT_TYPES(ICE_TRACE_EVENT_ONE);
#undef ICE_TRACE_EVENT_ONE

// Event flag bits. Meaning is per-type (documented above) but bits are
// globally unique so exporters can decode without a type switch.
inline constexpr int kTraceFlagForeground = 1 << 0;
inline constexpr int kTraceFlagDirect = 1 << 1;
inline constexpr int kTraceFlagAnon = 1 << 2;
inline constexpr int kTraceFlagWrite = 1 << 3;
inline constexpr int kTraceFlagDropped = 1 << 4;
inline constexpr int kTraceFlagHot = 1 << 5;

// Stable lower_snake_case names, used by both exporters and by tests.
const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  SimTime ts = 0;
  TraceEventType type = TraceEventType::kReclaimBegin;
  uint8_t flags = 0;
  uint16_t core = 0;
  int32_t pid = -1;
  int32_t uid = -1;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

// Named argument pack for Tracer::Emit / ICE_TRACE call sites. Fields are
// `int`/`uint64_t` (not the compact TraceEvent types) so designated
// initializers with runtime expressions don't trip narrowing rules.
struct TraceArgs {
  int pid = -1;
  int uid = -1;
  int flags = 0;
  int core = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

}  // namespace ice

#endif  // SRC_TRACE_TRACE_EVENT_H_
