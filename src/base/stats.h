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

  std::string ToString() const;

  // Snapshot support. Restoring zeroes existing counters in place and
  // overwrites/creates from the stream — counters are never erased, so
  // pointers handed out by Counter() stay valid across a restore.
  void Transfer(SnapshotArchive& ar);

 private:
  // std::map keeps pointer stability on insert.
  std::map<std::string, uint64_t> counters_;
};

// Well-known counter names, shared between subsystems and experiments.
namespace stat {
inline constexpr const char* kPagesReclaimed = "mem.pages_reclaimed";
inline constexpr const char* kPagesReclaimedAnon = "mem.pages_reclaimed_anon";
inline constexpr const char* kPagesReclaimedFile = "mem.pages_reclaimed_file";
// kswapd vs direct-reclaim attribution (vmstat's pgsteal_kswapd/_direct
// analog), per pool and total. The "kswapd" buckets cover every non-direct
// context (kswapd batches and per-process reclaim); Fig 10's breakdown and
// the reclaim_begin/end trace events rely on the split.
inline constexpr const char* kPagesReclaimedKswapd = "mem.pages_reclaimed_kswapd";
inline constexpr const char* kPagesReclaimedDirect = "mem.pages_reclaimed_direct";
inline constexpr const char* kPagesReclaimedAnonKswapd = "mem.pages_reclaimed_anon_kswapd";
inline constexpr const char* kPagesReclaimedAnonDirect = "mem.pages_reclaimed_anon_direct";
inline constexpr const char* kPagesReclaimedFileKswapd = "mem.pages_reclaimed_file_kswapd";
inline constexpr const char* kPagesReclaimedFileDirect = "mem.pages_reclaimed_file_direct";
inline constexpr const char* kRefaults = "mem.refaults";
inline constexpr const char* kRefaultsFg = "mem.refaults_fg";
inline constexpr const char* kRefaultsBg = "mem.refaults_bg";
inline constexpr const char* kRefaultsAnon = "mem.refaults_anon";
inline constexpr const char* kRefaultsFile = "mem.refaults_file";
inline constexpr const char* kRefaultsJavaHeap = "mem.refaults_java_heap";
inline constexpr const char* kRefaultsNativeHeap = "mem.refaults_native_heap";
inline constexpr const char* kPageFaults = "mem.page_faults";
inline constexpr const char* kDirectReclaims = "mem.direct_reclaims";
inline constexpr const char* kKswapdWakeups = "mem.kswapd_wakeups";
inline constexpr const char* kZramStores = "mem.zram_stores";
inline constexpr const char* kZramLoads = "mem.zram_loads";
// A Store refused for lack of capacity (the pool hard-stopped mid-batch).
inline constexpr const char* kZramRejects = "mem.zram_rejects";
// Hotness swap policy: victims kept resident by the admission gate, pages
// written back from zram to flash, and stores by compression tier.
inline constexpr const char* kSwapRejectsHot = "swap.rejects_hot";
inline constexpr const char* kSwapWritebackPages = "swap.writeback_pages";
inline constexpr const char* kSwapStoresFast = "swap.stores_fast";
inline constexpr const char* kSwapStoresDense = "swap.stores_dense";
inline constexpr const char* kIoReads = "io.reads";
inline constexpr const char* kIoWrites = "io.writes";
inline constexpr const char* kIoReadBytes = "io.read_bytes";
inline constexpr const char* kIoWriteBytes = "io.write_bytes";
inline constexpr const char* kLmkKills = "proc.lmk_kills";
inline constexpr const char* kFreezes = "ice.freezes";
inline constexpr const char* kThaws = "ice.thaws";
inline constexpr const char* kColdLaunches = "android.cold_launches";
inline constexpr const char* kHotLaunches = "android.hot_launches";
}  // namespace stat

}  // namespace ice

#endif  // SRC_BASE_STATS_H_
