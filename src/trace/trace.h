// ICE_TRACE — the tracepoint macro instrumented code uses.
//
//   ICE_TRACE(engine_, TraceEventType::kPageEvict,
//             {.uid = owner_uid, .flags = kTraceFlagAnon, .arg0 = vpn});
//
// The first argument is any expression yielding an Engine (the component's
// engine reference); the event is stamped with its current SimTime. When the
// engine has no tracer installed (tracing disabled — the default) the cost is
// one pointer load and branch.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include "src/sim/engine.h"
#include "src/trace/tracer.h"

// __VA_ARGS__ carries the event type plus an optional braced TraceArgs
// initializer; the preprocessor re-joins the designated initializers' commas.
#define ICE_TRACE(engine, ...)                              \
  do {                                                      \
    ::ice::Tracer* ice_trace_tracer_ = (engine).tracer();   \
    if (ice_trace_tracer_ != nullptr) {                     \
      ice_trace_tracer_->Emit((engine).now(), __VA_ARGS__); \
    }                                                       \
  } while (0)

#endif  // SRC_TRACE_TRACE_H_
