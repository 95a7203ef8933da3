// Synthetic testers from §2.2.3's root-cause analysis:
//  * memtester — occupies memory but consumes almost no CPU (the open-source
//    tool the paper fills memory with);
//  * cputester — the paper's self-developed tool occupying a target CPU
//    share without memory pressure.
#ifndef SRC_WORKLOAD_SYNTHETIC_H_
#define SRC_WORKLOAD_SYNTHETIC_H_

#include "src/android/activity_manager.h"
#include "src/proc/behavior.h"

namespace ice {

// Touches every page of [begin, end) once, then sleeps forever.
class FillOnceBehavior : public Behavior {
 public:
  FillOnceBehavior(AddressSpace* space, uint32_t begin, uint32_t end)
      : space_(space), cursor_(begin), end_(end) {}

  void Run(TaskContext& ctx) override;

  bool done() const { return cursor_ >= end_; }

  void Transfer(SnapshotArchive& ar) override;

 private:
  AddressSpace* space_;
  uint32_t cursor_;
  uint32_t end_;
};

// Installs + launches a memtester app occupying `bytes` of anonymous memory.
// Returns its uid. The app is immediately backgroundable; it never refaults
// on its own because it touches each page exactly once.
Uid InstallMemtester(ActivityManager& am, uint64_t bytes);

// Installs + launches a cputester app whose tasks together occupy
// `cpu_fraction` of the device's total CPU capacity (e.g. 0.20 for the
// paper's 20 %). Returns its uid.
Uid InstallCputester(ActivityManager& am, double cpu_fraction, int num_cores);

}  // namespace ice

#endif  // SRC_WORKLOAD_SYNTHETIC_H_
