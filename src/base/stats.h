// Named monotonic counters, the simulator's equivalent of /proc/vmstat.
//
// Subsystems increment counters through a shared StatsRegistry owned by the
// simulation; experiments snapshot and diff them to produce table rows.
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ice {

class SnapshotArchive;

class StatsRegistry {
 public:
  StatsRegistry() = default;

  // Returns a stable pointer to the named counter; creating it (0) if absent.
  // Pointers remain valid for the registry's lifetime.
  uint64_t* Counter(const std::string& name);

  void Add(const std::string& name, uint64_t delta) { *Counter(name) += delta; }
  void Increment(const std::string& name) { Add(name, 1); }

  uint64_t Get(const std::string& name) const;

  // Snapshot of all counters (sorted by name).
  std::map<std::string, uint64_t> Snapshot() const;

  // Difference of two snapshots, counter-by-counter (new counters included).
  static std::map<std::string, uint64_t> Diff(const std::map<std::string, uint64_t>& before,
                                              const std::map<std::string, uint64_t>& after);

  void Reset();

  // Snapshot support. Restoring zeroes existing counters in place and
  // overwrites/creates from the stream — counters are never erased, so
  // pointers handed out by Counter() stay valid across a restore.
  void Transfer(SnapshotArchive& ar);

 private:
  // std::map keeps pointer stability on insert.
  std::map<std::string, uint64_t> counters_;
};

// Well-known counter names, shared between subsystems and experiments.
// ICE_STAT_COUNTERS is their one list, X(constant, name) per counter: it
// declares each stat:: constant and fills stat::kAll, so no counter can be
// left out of the names restore accepts.
//
// The reclaim counters split kswapd from direct reclaim (vmstat's
// pgsteal_kswapd/_direct analog), per pool and total. The "kswapd" buckets
// cover every non-direct context (kswapd batches and per-process reclaim);
// Fig 10's breakdown and the reclaim_begin/end trace events rely on the
// split. mem.zram_rejects counts Stores refused for lack of capacity (the
// pool hard-stopped mid-batch). The swap.* counters belong to the hotness
// swap policy: victims kept resident by the admission gate, pages written
// back from zram to flash, and stores by compression tier.
#define ICE_STAT_COUNTERS(X)                                      \
  X(kPagesReclaimed, "mem.pages_reclaimed")                       \
  X(kPagesReclaimedAnon, "mem.pages_reclaimed_anon")              \
  X(kPagesReclaimedFile, "mem.pages_reclaimed_file")              \
  X(kPagesReclaimedKswapd, "mem.pages_reclaimed_kswapd")          \
  X(kPagesReclaimedDirect, "mem.pages_reclaimed_direct")          \
  X(kPagesReclaimedAnonKswapd, "mem.pages_reclaimed_anon_kswapd") \
  X(kPagesReclaimedAnonDirect, "mem.pages_reclaimed_anon_direct") \
  X(kPagesReclaimedFileKswapd, "mem.pages_reclaimed_file_kswapd") \
  X(kPagesReclaimedFileDirect, "mem.pages_reclaimed_file_direct") \
  X(kRefaults, "mem.refaults")                                    \
  X(kRefaultsFg, "mem.refaults_fg")                               \
  X(kRefaultsBg, "mem.refaults_bg")                               \
  X(kRefaultsAnon, "mem.refaults_anon")                           \
  X(kRefaultsFile, "mem.refaults_file")                           \
  X(kRefaultsJavaHeap, "mem.refaults_java_heap")                  \
  X(kRefaultsNativeHeap, "mem.refaults_native_heap")              \
  X(kPageFaults, "mem.page_faults")                               \
  X(kDirectReclaims, "mem.direct_reclaims")                       \
  X(kKswapdWakeups, "mem.kswapd_wakeups")                         \
  X(kZramStores, "mem.zram_stores")                               \
  X(kZramLoads, "mem.zram_loads")                                 \
  X(kZramRejects, "mem.zram_rejects")                             \
  X(kSwapRejectsHot, "swap.rejects_hot")                          \
  X(kSwapWritebackPages, "swap.writeback_pages")                  \
  X(kSwapStoresFast, "swap.stores_fast")                          \
  X(kSwapStoresDense, "swap.stores_dense")                        \
  X(kIoReads, "io.reads")                                         \
  X(kIoWrites, "io.writes")                                       \
  X(kIoReadBytes, "io.read_bytes")                                \
  X(kIoWriteBytes, "io.write_bytes")                              \
  X(kLmkKills, "proc.lmk_kills")                                  \
  X(kFreezes, "ice.freezes")                                      \
  X(kThaws, "ice.thaws")                                          \
  X(kColdLaunches, "android.cold_launches")                       \
  X(kHotLaunches, "android.hot_launches")

namespace stat {
#define ICE_STAT_CONSTANT(id, name) inline constexpr const char* id = name;
ICE_STAT_COUNTERS(ICE_STAT_CONSTANT)
#undef ICE_STAT_CONSTANT

// Every name above. The simulator creates no other counter, so restore
// rejects any other name.
#define ICE_STAT_NAME(id, name) name,
inline constexpr const char* kAll[] = {ICE_STAT_COUNTERS(ICE_STAT_NAME)};
#undef ICE_STAT_NAME
}  // namespace stat

}  // namespace ice

#endif  // SRC_BASE_STATS_H_
