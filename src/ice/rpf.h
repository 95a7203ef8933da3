// RPF — Refault-driven Process Freezing (§4.2).
//
// RPF subscribes to the kernel's refault events (shadow-entry hits) and
// follows the event-condition-action rule: a background refault event whose
// process sifts through the freezability checks (not kernel, not a service,
// not whitelisted, not foreground) triggers application-grain freezing of
// the offending app, immediately, in the event's context.
#ifndef SRC_ICE_RPF_H_
#define SRC_ICE_RPF_H_

#include <cstdint>

#include "src/android/activity_manager.h"
#include "src/ice/config.h"
#include "src/ice/mapping_table.h"
#include "src/ice/whitelist.h"
#include "src/mem/shadow.h"
#include "src/proc/freezer.h"

namespace ice {

class SnapshotArchive;
class Mdt;

class Rpf : public RefaultListener {
 public:
  Rpf(const IceConfig& config, MappingTable& table, Whitelist& whitelist, Freezer& freezer,
      ActivityManager& am, Mdt* mdt);

  void OnRefault(const RefaultEvent& event) override;

  // Counters for overhead/effectiveness analysis.
  uint64_t events_seen() const { return events_seen_; }
  uint64_t events_foreground() const { return events_foreground_; }
  uint64_t events_sifted() const { return events_sifted_; }  // Unfreezable.
  uint64_t freezes_triggered() const { return freezes_triggered_; }

  // Snapshot support (counters only; RPF is otherwise event-driven).
  void Transfer(SnapshotArchive& ar);

 private:
  IceConfig config_;
  MappingTable& table_;
  Whitelist& whitelist_;
  Freezer& freezer_;
  ActivityManager& am_;
  Mdt* mdt_;

  uint64_t events_seen_ = 0;
  uint64_t events_foreground_ = 0;
  uint64_t events_sifted_ = 0;
  uint64_t freezes_triggered_ = 0;
};

}  // namespace ice

#endif  // SRC_ICE_RPF_H_
