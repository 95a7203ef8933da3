#include "src/ice/daemon.h"

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/process.h"

namespace ice {

IceDaemon::~IceDaemon() {
  if (installed_ && refs_.mm != nullptr && rpf_ != nullptr) {
    refs_.mm->shadow().RemoveListener(rpf_.get());
  }
}

void IceDaemon::SyncAppIntoTable(App& app) {
  table_.AddApp(app.uid());
  for (Process* process : app.processes()) {
    table_.AddProcess(app.uid(), process->pid(), app.oom_adj());
  }
  table_.SetScore(app.uid(), app.oom_adj());
}

void IceDaemon::Install(const SystemRefs& refs) {
  ICE_CHECK(!installed_);
  ICE_CHECK(refs.engine != nullptr && refs.mm != nullptr && refs.freezer != nullptr &&
            refs.am != nullptr);
  installed_ = true;
  refs_ = refs;
  whitelist_ = Whitelist(config_.whitelist_adj_threshold);

  mdt_ = std::make_unique<Mdt>(config_, *refs.engine, *refs.mm, *refs.freezer, *refs.am);
  rpf_ = std::make_unique<Rpf>(config_, table_, whitelist_, *refs.freezer, *refs.am,
                               mdt_.get());

  // Kernel-side hook: refault events flow straight into RPF (①–③ of Fig. 5).
  refs.mm->shadow().AddListener(rpf_.get());

  // Framework-side hooks: the mapping table and whitelist track lifecycle
  // and score changes (the cross-space /proc channel of §4.2.2).
  for (App* app : refs.am->apps()) {
    if (app->running()) {
      SyncAppIntoTable(*app);
    }
  }
  refs.am->AddStateListener([this](App& app, AppState old_state) {
    (void)old_state;
    if (app.running()) {
      SyncAppIntoTable(app);
    }
    if (app.state() == AppState::kForeground) {
      // Thaw-on-launch already happened inside the ActivityManager before
      // display; ICE stops managing the app.
      mdt_->Unmanage(app.uid());
      table_.SetFrozen(app.uid(), false);

      // §6.3.1 extension: learn the switch and pre-thaw the likely next
      // apps so a future hot launch never pays the frozen penalty.
      predictor_.RecordSwitch(last_foreground_, app.uid());
      last_foreground_ = app.uid();
      if (config_.enable_prediction) {
        for (Uid next : predictor_.PredictNext(
                 app.uid(), static_cast<size_t>(config_.prediction_fanout))) {
          App* candidate = refs_.am->FindApp(next);
          if (candidate != nullptr && candidate->frozen()) {
            refs_.freezer->ThawApp(*candidate);
          }
        }
      }
    }
  });
  refs.am->AddDeathListener([this](App& app) {
    mdt_->Unmanage(app.uid());
    table_.RemoveApp(app.uid());
  });

  mdt_->Start();
}

void IceDaemon::BeginRestore() {
  ICE_CHECK(installed_);
  mdt_->BeginRestore();
}

void IceDaemon::Transfer(SnapshotArchive& ar) {
  ICE_CHECK(installed_);
  ar.I64(last_foreground_);
  table_.Transfer(ar);
  predictor_.Transfer(ar);
  rpf_->Transfer(ar);
  mdt_->Transfer(ar);
}

}  // namespace ice
