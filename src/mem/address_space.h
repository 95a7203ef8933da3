// A process address space: fixed-capacity page table with three regions
// (Java heap, native heap, file-backed), populated lazily on first touch.
//
// Page metadata lives in one contiguous arena (`pages_`) sized at
// construction, on a private anonymous mapping of its own, so a space's
// records are a single slab: the reclaim scan and LRU rotation walk packed
// 16-byte entries instead of pointer-chasing heap nodes. Capacity is fixed
// so PageInfo records never move — LRU index links and in-flight faults
// address pages by vpn for the AddressSpace lifetime. The all-zero record is
// the fresh one, so constructing a space writes no record, and a record's
// vpn (its arena index) and heap kind (its layout region) come from its
// position: VpnOf, KindOf.
// "Heap growth" is modeled by touching previously untouched pages, which is
// how the PUBG-style game workload allocates its 100 MB+ per battle round.
#ifndef SRC_MEM_ADDRESS_SPACE_H_
#define SRC_MEM_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/units.h"
#include "src/mem/lru.h"
#include "src/mem/page.h"

namespace ice {

class SnapshotArchive;

// A run of consecutive pages, vpns [begin, begin + count), touched in
// order. Work items carry their touches as an ordered list of runs: a launch
// prefix is one run, and a frame's sampled touches are mostly runs of one.
// Lists hold no zero-length run.
struct VpnRun {
  uint32_t begin = 0;
  uint32_t count = 0;
};

// Appends `vpn` to `runs`, extending the last run when `vpn` directly
// follows it.
inline void AppendVpn(std::vector<VpnRun>& runs, uint32_t vpn) {
  if (!runs.empty() && runs.back().begin + runs.back().count == vpn) {
    ++runs.back().count;
  } else {
    runs.push_back({vpn, 1});
  }
}

// A position in a run list: the page `offset` pages into run `run`. At the
// end of the list, run == runs.size() and offset == 0.
struct RunCursor {
  size_t run = 0;
  uint32_t offset = 0;

  bool done(std::span<const VpnRun> runs) const { return run == runs.size(); }
  uint32_t vpn(std::span<const VpnRun> runs) const { return runs[run].begin + offset; }
  // Steps past the current page.
  void Next(std::span<const VpnRun> runs) {
    if (++offset == runs[run].count) {
      ++run;
      offset = 0;
    }
  }
};

// How many touches ahead a loop that knows its upcoming vpns starts loading
// their page records (AddressSpace::Prefetch). A hit costs tens of
// nanoseconds, so eight touches cover most of a DRAM miss.
inline constexpr size_t kTouchPrefetchDistance = 8;

struct AddressSpaceLayout {
  PageCount java_pages = 0;
  PageCount native_pages = 0;
  PageCount file_pages = 0;

  PageCount total() const { return java_pages + native_pages + file_pages; }
};

// Deleter for the arena: PageInfo is trivially destructible, so this only
// unmaps the arena's mapping, `map_bytes` long.
struct PageArenaDeleter {
  size_t map_bytes = 0;
  void operator()(PageInfo* pages) const;
};

// Bytes one page record takes in snapshot format v2: the image of the
// format's first release, whatever sizeof(PageInfo) is now. The memory
// manager's arena counters are stored in these units too.
inline constexpr size_t kSnapshotRecordBytes = 32;

// The in-zram page records a restore stored: their compressed sizes and
// count, which must add up to the zram store's totals.
struct ZramUsage {
  uint64_t bytes = 0;
  uint64_t pages = 0;
};

// Value of space_id() before MemoryManager::Register assigns one.
inline constexpr uint32_t kInvalidSpaceId = UINT32_MAX;

class AddressSpace {
 public:
  AddressSpace(Pid pid, Uid uid, std::string name, const AddressSpaceLayout& layout);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  Pid pid() const { return pid_; }
  Uid uid() const { return uid_; }
  const std::string& name() const { return name_; }
  const AddressSpaceLayout& layout() const { return layout_; }

  // Per-MemoryManager registration id; half of the {space_id, vpn} handle
  // that names pages outside the space (see PageHandle).
  uint32_t space_id() const { return space_id_; }
  void set_space_id(uint32_t id) { space_id_ = id; }
  PageHandle handle_of(uint32_t vpn) const { return PageHandle(space_id_, vpn); }

  PageCount total_pages() const { return page_count_; }
  // Bytes of page-metadata arena this space pins for its lifetime; the
  // MemoryManager aggregates these into live/peak figures so device-memory
  // headroom claims (and the fleet's low-RAM tiers) are backed by data.
  size_t arena_bytes() const { return page_count_ * sizeof(PageInfo); }
  // Inline: every page access goes through here.
  PageInfo& page(uint32_t vpn) {
    ICE_CHECK_LT(vpn, page_count_);
    return pages_[vpn];
  }
  const PageInfo& page(uint32_t vpn) const {
    ICE_CHECK_LT(vpn, page_count_);
    return pages_[vpn];
  }
  // Cache hint for an access to `vpn` coming soon: starts loading its
  // PageInfo. Changes no state; a vpn outside the space is ignored.
  void Prefetch(uint32_t vpn) const {
#if defined(__GNUC__) || defined(__clang__)
    if (vpn < page_count_) {
      __builtin_prefetch(pages_.get() + vpn, /*rw=*/0, /*locality=*/3);
    }
#else
    (void)vpn;
#endif
  }

  // Region boundaries: [0, java) java heap, [java, java+native) native heap,
  // [java+native, total) file-backed.
  uint32_t java_begin() const { return 0; }
  uint32_t java_end() const { return static_cast<uint32_t>(layout_.java_pages); }
  uint32_t native_begin() const { return java_end(); }
  uint32_t native_end() const { return native_begin() + static_cast<uint32_t>(layout_.native_pages); }
  uint32_t file_begin() const { return native_end(); }
  uint32_t file_end() const { return static_cast<uint32_t>(page_count_); }

  HeapKind KindOf(uint32_t vpn) const {
    if (vpn < java_end()) {
      return HeapKind::kJavaHeap;
    }
    return vpn < native_end() ? HeapKind::kNativeHeap : HeapKind::kFile;
  }
  // The vpn of a record in this space's arena: its index.
  uint32_t VpnOf(const PageInfo& page) const {
    return static_cast<uint32_t>(&page - pages_.get());
  }

  // Resident (kPresent) page count, maintained by the MemoryManager.
  PageCount resident() const { return resident_; }
  // Pages in ZRAM or on flash (evicted but part of the working set).
  PageCount evicted() const { return evicted_; }

  // Bookkeeping used by MemoryManager only.
  void AddResident(int64_t delta) {
    int64_t next = static_cast<int64_t>(resident_) + delta;
    ICE_CHECK_GE(next, 0);
    resident_ = static_cast<PageCount>(next);
  }
  void AddEvicted(int64_t delta) {
    int64_t next = static_cast<int64_t>(evicted_) + delta;
    ICE_CHECK_GE(next, 0);
    evicted_ = static_cast<PageCount>(next);
  }

  // Iterates every page (for whole-process reclaim / teardown). The arena is
  // pinned for the AddressSpace lifetime (LRU links and fault handles
  // address into it), hence the fixed slab rather than a growable container.
  std::span<PageInfo> pages() { return {pages_.get(), page_count_}; }

  // Cumulative lifetime counters, maintained by the MemoryManager; used by
  // the per-app studies (Figures 3 and 4).
  uint64_t total_evictions = 0;
  uint64_t total_refaults = 0;

  // Readahead state: the last flash-faulting vpn. The memory manager only
  // opens a readahead window when faults are sequential, like the kernel.
  uint32_t last_flash_fault_vpn = UINT32_MAX;

  // Snapshot support: a sparse dump of the page-metadata arena in snapshot
  // format v2's record image (PageInfo holds no pointers — LRU links are vpn
  // indices) plus residency counters and LRU/gen-clock heads. Restoring
  // requires a structurally identical space (same layout, built by replaying
  // process creation) and overwrites its dynamic state; it throws on a
  // record whose vpn, heap kind, state, links, shadow cookie or zram size
  // cannot be this space's, and adds the restored in-zram records to
  // `restored_zram` when one is given.
  void Transfer(SnapshotArchive& ar, ZramUsage* restored_zram = nullptr);

  // Per-address-space LRU lists: the memcg model. Android places each app in
  // its own memory cgroup, and kswapd applies reclaim pressure to every
  // cgroup proportionally — the foreground app included. That proportional
  // scanning is what lets background churn displace foreground pages.
  LruLists& lru() { return lru_; }
  const LruLists& lru() const { return lru_; }

 private:
  Pid pid_;
  Uid uid_;
  std::string name_;
  AddressSpaceLayout layout_;
  uint32_t space_id_ = kInvalidSpaceId;
  // The arena comes zero-filled from the kernel, and zero bytes are fresh
  // records, so nothing writes a record until its page is touched. Null for
  // an empty layout, which maps nothing.
  std::unique_ptr<PageInfo[], PageArenaDeleter> pages_;
  size_t page_count_ = 0;
  PageCount resident_ = 0;
  PageCount evicted_ = 0;
  LruLists lru_;
};

}  // namespace ice

#endif  // SRC_MEM_ADDRESS_SPACE_H_
