// The UID↔PID mapping table (§4.2.2): ICE's kernel-resident index from
// applications to their processes, updated from the framework on install /
// launch / death, and consulted on every refault to resolve the faulting
// process to an application.
//
// Memory accounting follows §6.4.1 exactly: 64 B per UID entry, and per
// process 64 B (PID) + 1 B (freeze state) + 64 B (priority score). The table
// is capped at 32 KB; insertions beyond the bound are rejected.
#ifndef SRC_ICE_MAPPING_TABLE_H_
#define SRC_ICE_MAPPING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/units.h"

namespace ice {

class SnapshotArchive;

class MappingTable {
 public:
  static constexpr size_t kUidEntryBytes = 64;
  static constexpr size_t kPidEntryBytes = 64 + 1 + 64;
  static constexpr size_t kUpperBoundBytes = 32 * 1024;

  struct ProcessEntry {
    Pid pid = kInvalidPid;
    int score = 0;  // oom_score_adj replica.
  };
  struct AppEntry {
    Uid uid = kInvalidUid;
    bool frozen = false;
    std::vector<ProcessEntry> processes;
  };

  MappingTable() = default;

  // All mutators return false when the 32 KB bound would be exceeded or the
  // referenced entry is missing.
  bool AddApp(Uid uid);
  bool RemoveApp(Uid uid);
  bool AddProcess(Uid uid, Pid pid, int score);
  bool SetScore(Uid uid, int score);           // All processes of the app.
  bool SetFrozen(Uid uid, bool frozen);

  const AppEntry* Find(Uid uid) const;
  // Resolves a faulting PID to its application; kInvalidUid when unknown.
  Uid UidOfPid(Pid pid) const;

  size_t app_count() const { return entries_.size(); }
  size_t MemoryFootprintBytes() const;

  // Snapshot support.
  void Transfer(SnapshotArchive& ar);

 private:
  AppEntry* FindMutable(Uid uid);

  std::vector<AppEntry> entries_;
};

}  // namespace ice

#endif  // SRC_ICE_MAPPING_TABLE_H_
