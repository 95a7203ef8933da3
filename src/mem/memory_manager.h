// The memory manager: frame accounting, the page fault path, LRU reclaim
// (kswapd batches and direct reclaim), ZRAM swap and file writeback/fault-in.
//
// This is the substrate the whole reproduction stands on. The properties the
// paper depends on are modeled explicitly:
//  * memory reclaiming is non-preemptive: a task that allocates below the
//    min watermark performs direct reclaim *itself*, synchronously, no matter
//    its priority (the priority-inversion channel of §2.2.3);
//  * anonymous pages compress into ZRAM (CPU cost), dirty file pages write
//    back (I/O), clean file pages are discarded (refault = flash read);
//  * every eviction leaves a shadow entry, and a fault on a shadowed page
//    raises a RefaultEvent classified FG/BG — the signal driving ICE.
#ifndef SRC_MEM_MEMORY_MANAGER_H_
#define SRC_MEM_MEMORY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/base/units.h"
#include "src/mem/address_space.h"
#include "src/mem/lru.h"
#include "src/mem/page.h"
#include "src/mem/shadow.h"
#include "src/mem/watermark.h"
#include "src/mem/zram.h"
#include "src/sim/engine.h"
#include "src/storage/block_device.h"
#include "src/swap/governor.h"

namespace ice {

class SnapshotArchive;

struct MemConfig {
  // Page aging policy applied to every registered address space (see
  // src/mem/aging.h): the classic two-list LRU or the MGLRU-style
  // generation clock.
  AgingPolicy aging = AgingPolicy::kTwoList;
  PageCount total_pages = BytesToPages(4 * kGiB);
  // Kernel text/data + Android framework residency; never reclaimable.
  PageCount os_reserved_pages = BytesToPages(1200 * kMiB);
  Watermarks wm = Watermarks::FromHigh(BytesToPages(256 * kMiB));
  ZramConfig zram;
  // Swap-out policy (src/swap/swap_policy.h): baseline admit-everything or
  // the Ariadne-style hotness-aware, size-adaptive policy.
  SwapConfig swap;

  // Reclaim cost model (per page unless noted), calibrated to a mobile
  // little-core kswapd: ~70-80 MB/s sustained reclaim throughput. Slower
  // than demand spikes (a background GC sweep refaulting tens of MB in
  // under a second), which is what pushes the system through the min
  // watermark into direct reclaim.
  SimDuration scan_cost = Us(2);
  SimDuration unmap_cost = Us(3);
  SimDuration discard_cost = Us(1);
  SimDuration reclaim_batch_overhead = Us(400);
  SimDuration writeback_submit_cost = Us(4);
  SimDuration fault_fixed_cost = Us(8);
  SimDuration hit_cost = Us(1);

  // Mean extra fault latency (exponential) while reclaim is in progress:
  // the fault handler contends with kswapd/direct reclaim on the lru/zone
  // locks. This is the §2.2.3 "frame rendering tasks blocked by memory
  // reclaiming tasks" channel — it applies to every fault regardless of the
  // faulting task's priority (the reclaim path is non-preemptive).
  SimDuration reclaim_contention_mean = Us(450);

  // Pages per reclaim batch and per coalesced writeback bio.
  uint32_t reclaim_batch = 32;
  uint32_t writeback_batch = 8;

  // Readahead window for file fault-in: on a flash fault, up to this many
  // contiguous on-flash pages of the same space are read in one request —
  // bulk sequential restores (launches, content loads) then mostly hit.
  uint32_t readahead_pages = 16;
};

struct ReclaimResult {
  PageCount reclaimed = 0;
  // Per-pool attribution of `reclaimed` (anon + file == reclaimed).
  PageCount reclaimed_anon = 0;
  PageCount reclaimed_file = 0;
  PageCount scanned = 0;
  SimDuration cpu_us = 0;
  // True when this batch ran in an allocating task's context (direct
  // reclaim) rather than kswapd / per-process reclaim.
  bool direct = false;
};

// What a memory access cost the caller and whether it must block.
struct AccessOutcome {
  enum class Kind {
    kHit,         // Present: LRU touch only.
    kFirstTouch,  // Demand-zero / first file touch: minor fault.
    kZramFault,   // Decompressed synchronously from ZRAM.
    kIoFault,     // Flash read issued; caller must block until `waker` runs.
  };
  Kind kind = Kind::kHit;
  // Synchronous CPU the caller must account for (fault handling, zram
  // decompress, and any direct-reclaim work performed in its context).
  SimDuration cpu_us = 0;
  // True for kIoFault (and for faults that pile onto an in-flight read).
  bool blocked = false;
  // True when this access refaulted a previously evicted page.
  bool refault = false;
  // Pages reclaimed by direct reclaim in the caller's context (0 normally).
  PageCount direct_reclaimed = 0;
};

class MemoryManager {
 public:
  MemoryManager(Engine& engine, const MemConfig& config, BlockDevice* storage);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  // ---- Fault / access path -------------------------------------------------

  // Performs one page access by (space, vpn). `waker` is invoked when an
  // I/O-blocked fault completes; it may be empty for probe accesses. Taken by
  // const reference so the hot path never constructs a std::function per
  // access — only the (rare) I/O-blocking paths copy it into the wait list.
  AccessOutcome Access(AddressSpace& space, uint32_t vpn, bool write,
                       const std::function<void()>& waker);

  // Touches the pages of `runs` in order from `at`, taking each page that is
  // a hit or a first touch above the min watermark with exactly Access's
  // effects, and adds each page's CPU cost to `used`. Stops after the touch
  // that brings `used` to `budget`, before the first page that needs the
  // rest of the fault path (zram, flash, in flight, direct reclaim: the
  // caller passes it to Access), or at the end of the list. `at` ends on
  // the first page not touched. Entering a run, it prefetches the first
  // page record of the run kTouchPrefetchDistance runs ahead, which for a
  // frame's runs of one page is the touch that far ahead.
  void TouchRuns(AddressSpace& space, std::span<const VpnRun> runs, RunCursor& at, bool write,
                 SimDuration budget, SimDuration& used);

  // ---- Frame accounting ----------------------------------------------------

  int64_t free_pages() const { return free_pages_; }
  // MemAvailable analog: free + half the file LRU (cheaply reclaimable).
  PageCount available_pages() const;
  PageCount total_pages() const { return config_.total_pages; }
  const Watermarks& watermarks() const { return config_.wm; }
  const MemConfig& config() const { return config_; }

  // ---- Foreground tracking (set by the ActivityManager) --------------------

  void set_foreground_uid(Uid uid) { foreground_uid_ = uid; }
  Uid foreground_uid() const { return foreground_uid_; }

  // ---- Reclaim -------------------------------------------------------------

  // Pluggable victim filter (Acclaim's foreground-aware eviction). Returning
  // true skips the candidate.
  void set_victim_filter(LruLists::VictimFilter filter) { victim_filter_ = std::move(filter); }

  // kswapd protocol: the mm wakes the kswapd task through this hook whenever
  // free drops below the low watermark.
  void set_kswapd_waker(std::function<void()> waker) { kswapd_waker_ = std::move(waker); }
  // True while kswapd has been woken and free < high.
  bool KswapdShouldRun() const;
  // One background reclaim batch in kswapd context.
  ReclaimResult KswapdBatch();

  // Out-of-memory hook (LMK): invoked when reclaim cannot make progress.
  // Must return true if it freed memory.
  void set_oom_handler(std::function<bool()> handler) { oom_handler_ = std::move(handler); }

  // Per-process reclaim (Linux per-process reclaim patch, used by the Fig. 4
  // study and by tests): evicts every present page of `space`.
  ReclaimResult ReclaimAllOf(AddressSpace& space);

  // ---- Process lifecycle ---------------------------------------------------

  // Registers a new address space; its pages join the system lazily on first
  // touch. A space is registered once, before anything in it is resident or
  // evicted (ICE_CHECKed in O(1)).
  void Register(AddressSpace& space);
  // Releases every frame/zram slot held by `space` (process killed or exit)
  // and unregisters it. Walks the arena but writes only touched records; a
  // space this manager does not hold is left alone.
  void Release(AddressSpace& space);
  // Unregisters every space without walking a page, for an owner that
  // destroys the spaces together with this manager (Experiment's
  // destructor): their frames and zram slots die with the device. Nothing
  // reads a forgotten space afterwards, so it may be destroyed first.
  void ForgetSpaces();

  // ---- Introspection -------------------------------------------------------

  ShadowRegistry& shadow() { return shadow_; }
  Zram& zram() { return zram_; }
  const SwapGovernor& swap_governor() const { return swap_gov_; }
  Engine& engine() { return engine_; }

  // SWAM-style swap/LMK coordination signal in [0, 1]: how close the
  // compressed pool is to being unable to absorb further anon reclaim.
  // Pinned at 1.0 for a window after a capacity reject; 0.0 under the
  // baseline policy (which predates the signal).
  double SwapPressure() const;
  // All registered address spaces (the "memcg" set reclaim iterates).
  const std::vector<AddressSpace*>& spaces() const { return spaces_; }
  // Page-metadata arena accounting across registered spaces: the arenas are
  // sized at construction and pinned, so `live` moves only on
  // Register/Release and `peak` is the high-water mark — the simulator's own
  // metadata footprint for this device, surfaced per fleet group so low-RAM
  // tier claims are backed by data. Counted in page records; the byte
  // figures are those records at sizeof(PageInfo).
  uint64_t arena_pages_live() const { return arena_pages_live_; }
  uint64_t arena_bytes_live() const { return arena_pages_live_ * sizeof(PageInfo); }
  uint64_t arena_bytes_peak() const { return arena_pages_peak_ * sizeof(PageInfo); }
  // Total pages on file LRUs across spaces (for MemAvailable).
  PageCount file_lru_pages() const;

  // Entries on the in-flight read list: 0 exactly when no flash read is in
  // flight.
  uint64_t faults_in_flight() const { return in_flight_reads_.size(); }

  // ---- Snapshot ------------------------------------------------------------
  // Serializes every registered space (raw arena dumps + LRU state), the
  // zram store, shadow sequence, frame accounting, and the reclaim cursor.
  // Requires a quiescent point: no in-flight flash faults, no reclaim in
  // progress (ICE_CHECKed). Restoring expects `spaces_` to already hold
  // structurally identical spaces in the same registration order (process
  // creation replay) and overwrites their dynamic state. The arena counters
  // are stored in format v2's bytes (kSnapshotRecordBytes per page); restore
  // throws on counters that do not fit the replayed spaces, and on in-zram
  // records whose sizes or count disagree with the zram store's totals.
  void Transfer(SnapshotArchive& ar);

  // Recycling support: rewinds the manager to its just-constructed state so a
  // snapshot can be overlaid via Transfer. Requires every address space to
  // have been Released already (the recycler kills all apps first); keeps the
  // isolation scratch and waiter pool allocations.
  void ResetForRecycle();

 private:
  // Takes one free frame for `space`, entering direct reclaim below the min
  // watermark. Reclaim/OOM costs are accumulated into `outcome`.
  void TakeFrame(AddressSpace& space, AccessOutcome& outcome);
  // TakeFrame's reclaim in the allocating task's context, up to the min
  // watermark or 8 batches, falling back to the OOM handler.
  void DirectReclaim(AccessOutcome& outcome);

  // Core scan: isolates candidates from both pools (proportionally) and
  // evicts up to `target` pages. Shared by kswapd and direct reclaim.
  ReclaimResult ReclaimBatch(PageCount target, bool direct);

  // Why one isolated page could not (or could) be evicted. Only kZramFull
  // means the pool has hard-stopped; a hotness rejection is a policy choice
  // and anon planning continues.
  enum class EvictOutcome : uint8_t { kEvicted, kZramFull, kRejectedHot };

  // Evicts one isolated page of `space`, attributing it to kswapd or direct
  // reclaim. On a non-kEvicted outcome the page is put back on the LRU.
  EvictOutcome EvictPage(AddressSpace& space, PageInfo* page, ReclaimResult& result,
                         bool direct);

  // Hotness policy only: drains up to `max_pages` FIFO-oldest compressed
  // pages to flash (one coalesced write bio) so the pool self-cleans.
  // Returns the number written back.
  PageCount ZramWritebackBatch(PageCount max_pages);
  AddressSpace* FindSpaceById(uint32_t space_id) const;

  // The hit and first-touch cases of Access, which TouchRuns shares. A hit
  // is an LRU touch; a first touch is a minor fault that takes a frame
  // (entering direct reclaim below the min watermark) and makes the page
  // present. Both mark a written file page dirty.
  void Hit(AddressSpace& space, PageInfo& page, uint32_t vpn, bool write,
           AccessOutcome& outcome);
  void FirstTouch(AddressSpace& space, PageInfo& page, uint32_t vpn, bool write,
                  AccessOutcome& outcome);

  void MakePresent(AddressSpace& space, PageInfo* page);
  void RecordRefaultStats(AddressSpace& space, uint32_t vpn, bool foreground);
  void FinishIoFault(AddressSpace* space, uint32_t vpn);
  void FlushWritebackBatch();
  void MaybeWakeKswapd();

  // Lock-contention penalty applied to fault costs while reclaim is active.
  SimDuration ContentionPenalty();

  // Counter cells for the fault and reclaim hot paths, resolved once at
  // construction. StatsRegistry::Counter returns pointers that stay valid
  // (and that Reset() zeroes in place), so this turns millions of string-map
  // lookups per simulated second into plain increments.
  struct HotCounters {
    explicit HotCounters(StatsRegistry& st);
    uint64_t* page_faults;
    uint64_t* zram_loads;
    uint64_t* zram_stores;
    uint64_t* direct_reclaims;
    uint64_t* kswapd_wakeups;
    uint64_t* refaults;
    uint64_t* refaults_fg;
    uint64_t* refaults_bg;
    uint64_t* refaults_anon;
    uint64_t* refaults_file;
    uint64_t* refaults_java_heap;
    uint64_t* refaults_native_heap;
    uint64_t* pages_reclaimed;
    uint64_t* pages_reclaimed_kswapd;
    uint64_t* pages_reclaimed_direct;
    uint64_t* pages_reclaimed_anon;
    uint64_t* pages_reclaimed_anon_kswapd;
    uint64_t* pages_reclaimed_anon_direct;
    uint64_t* pages_reclaimed_file;
    uint64_t* pages_reclaimed_file_kswapd;
    uint64_t* pages_reclaimed_file_direct;
    uint64_t* zram_rejects;
    uint64_t* swap_rejects_hot;
    uint64_t* swap_writeback_pages;
    uint64_t* swap_stores_fast;
    uint64_t* swap_stores_dense;
  };

  Engine& engine_;
  MemConfig config_;
  BlockDevice* storage_;  // May be null in pure-memory unit tests.
  HotCounters ct_;
  Rng contention_rng_;

  // Keeps free_pages_ in sync with the RAM the zram store itself occupies
  // (compressed data lives in RAM — evicting an anonymous page only frees
  // the *uncompressed minus compressed* difference).
  void SyncZramFrames();

  std::vector<AddressSpace*> spaces_;
  uint32_t next_space_id_ = 0;  // Assigned at Register; never reused.
  size_t reclaim_cursor_ = 0;  // Rotates fairness across spaces.
  Zram zram_;
  PageCount zram_frames_held_ = 0;
  ShadowRegistry shadow_;
  SwapGovernor swap_gov_;
  // Last capacity reject, feeding SwapPressure()'s pinned window.
  SimTime last_zram_reject_time_ = 0;
  bool has_zram_reject_ = false;

  int64_t free_pages_ = 0;
  Uid foreground_uid_ = kInvalidUid;
  uint64_t arena_pages_live_ = 0;
  uint64_t arena_pages_peak_ = 0;

  LruLists::VictimFilter victim_filter_;
  std::function<void()> kswapd_waker_;
  std::function<bool()> oom_handler_;
  bool kswapd_woken_ = false;
  bool in_reclaim_ = false;  // Guards against reentrant reclaim.
  // Isolation scratch reused across reclaim batches (safe: in_reclaim_ bars
  // reentry, so only one batch uses it at a time).
  std::vector<PageInfo*> isolate_scratch_;

  // Flash reads in flight, as (page, waker) entries in the order they were
  // added: one per primary fault (its waker may be empty) and one per waker
  // that piled on. A page's entries leave when its read completes, waking in
  // that order, or when its space is released. Pages are named by their
  // {space_id, vpn} handle: space ids are per-manager and never reused, so a
  // stale handle can only miss, never alias. A few reads are in flight at a
  // time, so entries are found by a linear scan.
  struct InFlightRead {
    PageHandle page;
    std::function<void()> waker;
  };
  std::vector<InFlightRead> in_flight_reads_;

  // Dirty file pages coalesced into one writeback bio.
  PageCount writeback_pending_ = 0;
};

}  // namespace ice

#endif  // SRC_MEM_MEMORY_MANAGER_H_
