#include "src/ice/rpf.h"

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/ice/mdt.h"
#include "src/proc/process.h"
#include "src/proc/task.h"
#include "src/trace/trace.h"

namespace ice {

Rpf::Rpf(const IceConfig& config, MappingTable& table, Whitelist& whitelist, Freezer& freezer,
         ActivityManager& am, Mdt* mdt)
    : config_(config),
      table_(table),
      whitelist_(whitelist),
      freezer_(freezer),
      am_(am),
      mdt_(mdt) {}

void Rpf::Transfer(SnapshotArchive& ar) {
  ar.U64(events_seen_);
  ar.U64(events_foreground_);
  ar.U64(events_sifted_);
  ar.U64(freezes_triggered_);
}

void Rpf::OnRefault(const RefaultEvent& event) {
  ++events_seen_;

  // Foreground refaults are not ICE's target; they are what ICE protects.
  if (event.foreground) {
    ++events_foreground_;
    return;
  }

  // Resolve the faulting process to an application through the mapping
  // table — the kernel-resident index (§4.2.2). A miss means the process is
  // a kernel thread or a system service: sifted.
  Uid uid = table_.UidOfPid(event.pid);
  if (uid == kInvalidUid) {
    ++events_sifted_;
    return;
  }
  App* app = am_.FindApp(uid);
  if (app == nullptr || !app->running()) {
    ++events_sifted_;
    return;
  }
  if (app->state() == AppState::kForeground) {
    ++events_foreground_;
    return;
  }
  // Whitelist: perceptible apps (adj <= 200) and vendor-pinned UIDs.
  if (whitelist_.Protects(uid, app->oom_adj())) {
    ++events_sifted_;
    return;
  }
  if (app->frozen()) {
    return;  // Already inhibited (tasks may drain in-flight I/O).
  }

  if (config_.application_grain) {
    freezer_.FreezeApp(*app);
  } else {
    // Ablation: freeze only the faulting process. Sibling processes of the
    // same app stay live (and keep refaulting — the reason §4.2.2 freezes
    // whole applications).
    for (Process* process : app->processes()) {
      if (process->pid() == event.pid) {
        for (Task* task : process->tasks()) {
          task->RequestFreeze();
        }
      }
    }
    app->set_frozen(true);  // Tracked for MDT cycling / thaw-on-launch.
  }
  table_.SetFrozen(uid, true);
  ++freezes_triggered_;
  ICE_TRACE(am_.engine(), TraceEventType::kRpfTrigger, {.pid = event.pid, .uid = uid});
  if (mdt_ != nullptr) {
    mdt_->OnAppFrozen(uid);
  }
}

}  // namespace ice
