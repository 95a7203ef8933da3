// OEM power-manager process freezing (§6.2.1, Table 5): commercial
// smartphones freeze energy-hungry background apps to save battery. The
// policy is *power*-oriented, not memory-aware:
//  * it freezes periodically, whatever the memory pressure;
//  * the freezing target is the apps that burned the most CPU since the last
//    check (an energy proxy), not the apps causing refaults;
//  * the freezing intensity never adapts to memory pressure.
#ifndef SRC_POLICY_POWER_MANAGER_H_
#define SRC_POLICY_POWER_MANAGER_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "src/policy/scheme.h"

namespace ice {

class PowerManagerScheme : public Scheme {
 public:
  std::string name() const override { return "PowerMgr"; }
  void Install(const SystemRefs& refs) override;

  // Snapshot support: the periodic check and each scheduled fixed-duration
  // thaw are pending events, saved as (uid, deadline, seq) and re-armed.
  void BeginRestore() override;
  void Transfer(SnapshotArchive& ar) override;

 private:
  void PeriodicCheck();
  void ThawIfStillCached(Uid uid);
  void PruneFiredThaws();

  SystemRefs refs_;
  std::unordered_map<Uid, uint64_t> last_cpu_us_;
  EventId check_event_ = kInvalidEventId;
  // Outstanding fixed-duration thaws; fired entries are pruned lazily.
  std::vector<std::pair<Uid, EventId>> pending_thaws_;
};

}  // namespace ice

#endif  // SRC_POLICY_POWER_MANAGER_H_
