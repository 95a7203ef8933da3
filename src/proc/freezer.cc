#include "src/proc/freezer.h"

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/process.h"
#include "src/proc/task.h"
#include "src/trace/trace.h"

namespace ice {

void Freezer::FreezeApp(App& app) {
  if (app.frozen()) {
    return;
  }
  app.set_frozen(true);
  engine_.stats().Increment(stat::kFreezes);
  ICE_TRACE(engine_, TraceEventType::kFreeze, {.uid = app.uid()});
  for (Process* process : app.processes()) {
    for (Task* task : process->tasks()) {
      task->RequestFreeze();
    }
  }
}

void Freezer::ThawApp(App& app) {
  if (!app.frozen()) {
    return;
  }
  app.set_frozen(false);
  engine_.stats().Increment(stat::kThaws);
  ICE_TRACE(engine_, TraceEventType::kThaw, {.uid = app.uid()});
  for (Process* process : app.processes()) {
    for (Task* task : process->tasks()) {
      task->ThawNow();
    }
  }
}

void Freezer::Transfer(SnapshotArchive& ar) {
  ar.Expect<uint64_t>(engine_.stats().Get(stat::kFreezes), "freezer freeze count");
  ar.Expect<uint64_t>(engine_.stats().Get(stat::kThaws), "freezer thaw count");
}

}  // namespace ice
