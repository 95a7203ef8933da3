// The ICE daemon (Fig. 5): glues RPF and MDT to the rest of the system.
//
// It maintains the UID↔PID mapping table from framework lifecycle events
// (§4.2.2 delivers them through /proc/{pid}/ice-mp; the daemon updates the
// table directly), keeps the whitelist in sync with oom_score_adj changes,
// subscribes RPF to kernel refault events, runs MDT's heartbeat, and
// implements thaw-on-launch bookkeeping.
#ifndef SRC_ICE_DAEMON_H_
#define SRC_ICE_DAEMON_H_

#include <memory>

#include "src/ice/config.h"
#include "src/ice/mapping_table.h"
#include "src/ice/mdt.h"
#include "src/ice/predictor.h"
#include "src/ice/rpf.h"
#include "src/ice/whitelist.h"
#include "src/policy/scheme.h"

namespace ice {

class IceDaemon : public Scheme {
 public:
  explicit IceDaemon(const IceConfig& config) : config_(config) {}
  ~IceDaemon() override;

  std::string name() const override { return "Ice"; }
  void Install(const SystemRefs& refs) override;

  // Snapshot support: serializes the mapping table, predictor, RPF counters
  // and MDT (incl. its heartbeat event). The whitelist is config-derived.
  void BeginRestore() override;
  void Transfer(SnapshotArchive& ar) override;

  MappingTable& mapping_table() { return table_; }
  Whitelist& whitelist() { return whitelist_; }
  Rpf& rpf() { return *rpf_; }
  Mdt& mdt() { return *mdt_; }
  AppUsagePredictor& predictor() { return predictor_; }
  const IceConfig& config() const { return config_; }

 private:
  void SyncAppIntoTable(App& app);

  IceConfig config_;
  SystemRefs refs_;
  MappingTable table_;
  Whitelist whitelist_{200};
  std::unique_ptr<Mdt> mdt_;
  std::unique_ptr<Rpf> rpf_;
  AppUsagePredictor predictor_;
  Uid last_foreground_ = kInvalidUid;
  bool installed_ = false;
};

}  // namespace ice

#endif  // SRC_ICE_DAEMON_H_
