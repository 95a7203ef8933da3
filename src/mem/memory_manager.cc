#include "src/mem/memory_manager.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/trace/trace.h"

namespace ice {

MemoryManager::HotCounters::HotCounters(StatsRegistry& st)
    : page_faults(st.Counter(stat::kPageFaults)),
      zram_loads(st.Counter(stat::kZramLoads)),
      zram_stores(st.Counter(stat::kZramStores)),
      direct_reclaims(st.Counter(stat::kDirectReclaims)),
      kswapd_wakeups(st.Counter(stat::kKswapdWakeups)),
      refaults(st.Counter(stat::kRefaults)),
      refaults_fg(st.Counter(stat::kRefaultsFg)),
      refaults_bg(st.Counter(stat::kRefaultsBg)),
      refaults_anon(st.Counter(stat::kRefaultsAnon)),
      refaults_file(st.Counter(stat::kRefaultsFile)),
      refaults_java_heap(st.Counter(stat::kRefaultsJavaHeap)),
      refaults_native_heap(st.Counter(stat::kRefaultsNativeHeap)),
      pages_reclaimed(st.Counter(stat::kPagesReclaimed)),
      pages_reclaimed_kswapd(st.Counter(stat::kPagesReclaimedKswapd)),
      pages_reclaimed_direct(st.Counter(stat::kPagesReclaimedDirect)),
      pages_reclaimed_anon(st.Counter(stat::kPagesReclaimedAnon)),
      pages_reclaimed_anon_kswapd(st.Counter(stat::kPagesReclaimedAnonKswapd)),
      pages_reclaimed_anon_direct(st.Counter(stat::kPagesReclaimedAnonDirect)),
      pages_reclaimed_file(st.Counter(stat::kPagesReclaimedFile)),
      pages_reclaimed_file_kswapd(st.Counter(stat::kPagesReclaimedFileKswapd)),
      pages_reclaimed_file_direct(st.Counter(stat::kPagesReclaimedFileDirect)),
      zram_rejects(st.Counter(stat::kZramRejects)),
      swap_rejects_hot(st.Counter(stat::kSwapRejectsHot)),
      swap_writeback_pages(st.Counter(stat::kSwapWritebackPages)),
      swap_stores_fast(st.Counter(stat::kSwapStoresFast)),
      swap_stores_dense(st.Counter(stat::kSwapStoresDense)) {}

MemoryManager::MemoryManager(Engine& engine, const MemConfig& config, BlockDevice* storage)
    : engine_(engine),
      config_(config),
      storage_(storage),
      ct_(engine.stats()),
      // Contention jitter and zram compressibility are environment noise:
      // they fork from the noise stream so construction consumes zero draws
      // from the seeded stream (the warm-boot template contract). The
      // governor holds no RNG on purpose (see governor.h).
      contention_rng_(engine.noise_rng().Fork()),
      zram_(config.zram, engine.noise_rng().Fork()),
      swap_gov_(config.swap) {
  ICE_CHECK_GT(config_.total_pages, config_.os_reserved_pages);
  free_pages_ = static_cast<int64_t>(config_.total_pages - config_.os_reserved_pages);
}

PageCount MemoryManager::file_lru_pages() const {
  PageCount total = 0;
  for (const AddressSpace* space : spaces_) {
    total += space->lru().pool_size(LruPool::kFile);
  }
  return total;
}

PageCount MemoryManager::available_pages() const {
  int64_t avail = free_pages_ + static_cast<int64_t>(file_lru_pages()) / 2;
  return avail < 0 ? 0 : static_cast<PageCount>(avail);
}

void MemoryManager::SyncZramFrames() {
  PageCount held = BytesToPages(zram_.stored_bytes());
  if (held > zram_frames_held_) {
    free_pages_ -= static_cast<int64_t>(held - zram_frames_held_);
  } else {
    free_pages_ += static_cast<int64_t>(zram_frames_held_ - held);
  }
  zram_frames_held_ = held;
}

void MemoryManager::Register(AddressSpace& space) {
  // Lazy population: pages enter the system on first touch, so a new space
  // is registered once and holds nothing yet.
  ICE_CHECK(space.space_id() == kInvalidSpaceId)
      << "address space " << space.space_id() << " is already registered";
  ICE_CHECK(space.resident() == 0 && space.evicted() == 0)
      << "registering an address space that already holds pages";
  space.set_space_id(next_space_id_++);
  space.lru().set_aging(config_.aging);
  spaces_.push_back(&space);
  arena_pages_live_ += space.total_pages();
  arena_pages_peak_ = std::max(arena_pages_peak_, arena_pages_live_);
}

void MemoryManager::Release(AddressSpace& space) {
  auto it = std::find(spaces_.begin(), spaces_.end(), &space);
  if (it == spaces_.end()) {
    return;  // Never registered, or forgotten with the rest (ForgetSpaces).
  }
  spaces_.erase(it);
  arena_pages_live_ -= space.total_pages();
  // Abandon the space's in-flight reads; their completion handlers no-op once
  // the page states are reset, and their waiters belong to the dying process.
  std::erase_if(in_flight_reads_, [id = space.space_id()](const InFlightRead& r) {
    return r.page.space_id() == id;
  });
  for (PageInfo& p : space.pages()) {
    switch (p.state()) {
      case PageState::kPresent:
        space.lru().Remove(&p);
        ++free_pages_;
        break;
      case PageState::kInZram:
        // Frames-held sync is batched: one SyncZramFrames() after the loop.
        zram_.Drop(&p);
        break;
      case PageState::kFaultingIn:
        // The fault took a frame for this page (readahead pages too).
        ++free_pages_;
        break;
      case PageState::kOnFlash:
        break;
      case PageState::kUntouched:
        // Never touched, so still all zero: the resets below would only
        // write zeros over it (and commit its arena page).
        continue;
    }
    p.set_state(PageState::kUntouched);
    p.set_dirty(false);
    p.set_referenced(false);
    p.set_hotness(0);
    p.set_zram_dense(false);
    // An evicted page's shadow cookie; zero already on every other state.
    p.set_evict_cookie(0);
  }
  space.AddResident(-static_cast<int64_t>(space.resident()));
  space.AddEvicted(-static_cast<int64_t>(space.evicted()));
  SyncZramFrames();
}

void MemoryManager::ForgetSpaces() {
  spaces_.clear();
  arena_pages_live_ = 0;
}

void MemoryManager::ResetForRecycle() {
  ICE_CHECK(spaces_.empty()) << "recycle with address spaces still registered";
  ICE_CHECK(in_flight_reads_.empty()) << "recycle with in-flight faults";
  ICE_CHECK(!in_reclaim_);
  ICE_CHECK_EQ(zram_.stored_bytes(), 0u) << "recycle with pages still in zram";
  next_space_id_ = 0;
  reclaim_cursor_ = 0;
  zram_frames_held_ = 0;
  last_zram_reject_time_ = 0;
  has_zram_reject_ = false;
  free_pages_ = static_cast<int64_t>(config_.total_pages - config_.os_reserved_pages);
  foreground_uid_ = kInvalidUid;
  arena_pages_live_ = 0;
  arena_pages_peak_ = 0;
  kswapd_woken_ = false;
  writeback_pending_ = 0;
}

SimDuration MemoryManager::ContentionPenalty() {
  if (!kswapd_woken_ || config_.reclaim_contention_mean == 0) {
    return 0;
  }
  return static_cast<SimDuration>(
      contention_rng_.Exponential(static_cast<double>(config_.reclaim_contention_mean)));
}

// The fault path's per-page steps, inline: a work item's run loop takes
// every hit and first touch through them.
inline void MemoryManager::MaybeWakeKswapd() {
  PageCount free = free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_);
  if (config_.wm.NeedsKswapd(free) && !kswapd_woken_) {
    kswapd_woken_ = true;
    ++*ct_.kswapd_wakeups;
    if (kswapd_waker_) {
      kswapd_waker_();
    }
  }
}

inline void MemoryManager::TakeFrame(AddressSpace& space, AccessOutcome& outcome) {
  (void)space;
  if (config_.wm.NeedsDirectReclaim(free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_)) &&
      !in_reclaim_) {
    DirectReclaim(outcome);
  }
  --free_pages_;
  MaybeWakeKswapd();
}

inline void MemoryManager::MakePresent(AddressSpace& space, PageInfo* page) {
  ICE_CHECK(page->state() != PageState::kPresent);
  bool was_evicted =
      page->state() == PageState::kInZram || page->state() == PageState::kFaultingIn ||
      page->state() == PageState::kOnFlash;
  page->set_state(PageState::kPresent);
  space.AddResident(1);
  if (was_evicted) {
    space.AddEvicted(-1);
  }
  space.lru().Insert(page);
}

inline void MemoryManager::Hit(AddressSpace& space, PageInfo& page, uint32_t vpn, bool write,
                               AccessOutcome& outcome) {
  space.lru().Touch(&page);
  if (write && space.KindOf(vpn) == HeapKind::kFile) {
    page.set_dirty(true);
  }
  outcome.kind = AccessOutcome::Kind::kHit;
  outcome.cpu_us = config_.hit_cost;
}

inline void MemoryManager::FirstTouch(AddressSpace& space, PageInfo& page, uint32_t vpn,
                                      bool write, AccessOutcome& outcome) {
  ++*ct_.page_faults;
  outcome.kind = AccessOutcome::Kind::kFirstTouch;
  outcome.cpu_us = config_.fault_fixed_cost + ContentionPenalty();
  TakeFrame(space, outcome);
  MakePresent(space, &page);
  if (write && space.KindOf(vpn) == HeapKind::kFile) {
    page.set_dirty(true);
  }
}

void MemoryManager::TouchRuns(AddressSpace& space, std::span<const VpnRun> runs, RunCursor& at,
                              bool write, SimDuration budget, SimDuration& used) {
  // Locals, so stores into page records and counters cannot alias them.
  RunCursor c = at;
  SimDuration spent = used;
  while (!c.done(runs)) {
    if (c.offset == 0 && c.run + kTouchPrefetchDistance < runs.size()) {
      space.Prefetch(runs[c.run + kTouchPrefetchDistance].begin);
    }
    const uint32_t vpn = c.vpn(runs);
    PageInfo& p = space.page(vpn);
    AccessOutcome outcome;
    if (p.state() == PageState::kPresent) {
      Hit(space, p, vpn, write, outcome);
    } else if (p.state() == PageState::kUntouched &&
               !config_.wm.NeedsDirectReclaim(
                   free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_))) {
      FirstTouch(space, p, vpn, write, outcome);
    } else {
      break;
    }
    spent += outcome.cpu_us;
    c.Next(runs);
    if (spent >= budget) {
      break;
    }
  }
  at = c;
  used = spent;
}

AccessOutcome MemoryManager::Access(AddressSpace& space, uint32_t vpn, bool write,
                                    const std::function<void()>& waker) {
  AccessOutcome outcome;
  PageInfo& p = space.page(vpn);
  bool foreground = space.uid() == foreground_uid_ && foreground_uid_ != kInvalidUid;

  switch (p.state()) {
    case PageState::kPresent:
      Hit(space, p, vpn, write, outcome);
      return outcome;

    case PageState::kUntouched:
      FirstTouch(space, p, vpn, write, outcome);
      return outcome;

    case PageState::kInZram: {
      ++*ct_.page_faults;
      outcome.kind = AccessOutcome::Kind::kZramFault;
      // Decompress cost is per-tier under the hotness policy (the dense bit
      // remembers which codec stored the page); baseline keeps the single
      // device codec cost. The ContentionPenalty() RNG draw stays in the
      // same stream position either way.
      SimDuration decompress = swap_gov_.enabled() ? swap_gov_.DecompressCost(p)
                                                   : zram_.decompress_cost();
      outcome.cpu_us = config_.fault_fixed_cost + decompress + ContentionPenalty();
      outcome.refault = true;
      TakeFrame(space, outcome);
      ICE_TRACE(engine_, TraceEventType::kZramDecompress,
                {.pid = space.pid(), .uid = space.uid(), .arg0 = p.zram_bytes});
      zram_.Drop(&p);
      SyncZramFrames();
      if (swap_gov_.enabled()) {
        swap_gov_.OnRefault(&p);
        p.set_zram_dense(false);
      }
      ++*ct_.zram_loads;
      RecordRefaultStats(space, vpn, foreground);
      shadow_.RecordRefault(&p, space, engine_.now(), foreground);
      MakePresent(space, &p);
      return outcome;
    }

    case PageState::kOnFlash: {
      ++*ct_.page_faults;
      outcome.kind = AccessOutcome::Kind::kIoFault;
      outcome.cpu_us = config_.fault_fixed_cost + ContentionPenalty();
      outcome.blocked = true;
      outcome.refault = true;
      TakeFrame(space, outcome);
      // The paper's RPF detects the refault at page-fault time (PTE check),
      // before the I/O completes — so the event fires here.
      RecordRefaultStats(space, vpn, foreground);
      shadow_.RecordRefault(&p, space, engine_.now(), foreground);
      if (swap_gov_.enabled() && IsAnon(space.KindOf(vpn))) {
        // An anon page only reaches flash via zram writeback; refaulting it
        // is exactly the re-reference evidence the hotness counter tracks.
        swap_gov_.OnRefault(&p);
      }
      p.set_state(PageState::kFaultingIn);

      // The entry goes on even without a waker, so faults_in_flight() stays
      // nonzero until the read completes.
      in_flight_reads_.push_back({space.handle_of(vpn), waker});
      ICE_CHECK(storage_ != nullptr) << "flash fault without a storage device";

      // Readahead: only when the fault pattern is sequential (the kernel's
      // readahead heuristic) pull the following contiguous on-flash pages in
      // the same request. They complete together, so bulk restores (launch,
      // content streaming) mostly hit while random faults stay single-page.
      bool sequential = space.last_flash_fault_vpn != UINT32_MAX &&
                        vpn >= space.last_flash_fault_vpn &&
                        vpn - space.last_flash_fault_vpn <= 4;
      space.last_flash_fault_vpn = vpn;
      uint32_t window = sequential ? config_.readahead_pages : 1;
      // The readahead batch is the contiguous run [vpn, vpn + batch_pages):
      // the completion closure carries just the range, so a flash fault
      // allocates no per-fault vpn list.
      uint32_t batch_pages = 1;
      for (uint32_t next = vpn + 1;
           next < space.total_pages() && batch_pages < window; ++next) {
        PageInfo& np = space.page(next);
        if (np.state() != PageState::kOnFlash) {
          break;
        }
        ++*ct_.page_faults;
        RecordRefaultStats(space, next, foreground);
        shadow_.RecordRefault(&np, space, engine_.now(), foreground);
        if (swap_gov_.enabled() && IsAnon(space.KindOf(next))) {
          swap_gov_.OnRefault(&np);
        }
        TakeFrame(space, outcome);
        np.set_state(PageState::kFaultingIn);
        ++batch_pages;
      }

      Bio bio;
      bio.dir = IoDir::kRead;
      bio.pages = batch_pages;
      bio.foreground = foreground;
      bio.pid = space.pid();
      AddressSpace* sp = &space;
      bio.on_complete = [this, sp, vpn, batch_pages]() {
        for (uint32_t i = 0; i < batch_pages; ++i) {
          FinishIoFault(sp, vpn + i);
        }
      };
      storage_->Submit(bio);
      return outcome;
    }

    case PageState::kFaultingIn: {
      // Pile onto the in-flight read.
      outcome.kind = AccessOutcome::Kind::kIoFault;
      outcome.blocked = true;
      if (waker) {
        in_flight_reads_.push_back({space.handle_of(vpn), waker});
      }
      return outcome;
    }
  }
  ICE_CHECK(false) << "unreachable";
  return outcome;
}

void MemoryManager::RecordRefaultStats(AddressSpace& space, uint32_t vpn, bool foreground) {
  HeapKind kind = space.KindOf(vpn);
  ICE_TRACE(engine_, TraceEventType::kRefault,
            {.pid = space.pid(),
             .uid = space.uid(),
             .flags = (foreground ? kTraceFlagForeground : 0) |
                      (IsAnon(kind) ? kTraceFlagAnon : 0),
             .arg0 = vpn});
  ++*ct_.refaults;
  ++*(foreground ? ct_.refaults_fg : ct_.refaults_bg);
  ++*(IsAnon(kind) ? ct_.refaults_anon : ct_.refaults_file);
  if (kind == HeapKind::kJavaHeap) {
    ++*ct_.refaults_java_heap;
  } else if (kind == HeapKind::kNativeHeap) {
    ++*ct_.refaults_native_heap;
  }
  ++space.total_refaults;
}

void MemoryManager::FinishIoFault(AddressSpace* space, uint32_t vpn) {
  PageInfo& p = space->page(vpn);
  if (p.state() != PageState::kFaultingIn) {
    // Process released while the read was in flight.
    return;
  }
  MakePresent(*space, &p);
  // Wake the page's waiters in the order they were added; each entry leaves
  // the list before its waker runs.
  const PageHandle page = space->handle_of(vpn);
  auto next = [this, page] {
    return std::find_if(in_flight_reads_.begin(), in_flight_reads_.end(),
                        [page](const InFlightRead& r) { return r.page == page; });
  };
  for (auto it = next(); it != in_flight_reads_.end(); it = next()) {
    std::function<void()> waker = std::move(it->waker);
    in_flight_reads_.erase(it);
    if (waker) {
      waker();
    }
  }
}

void MemoryManager::DirectReclaim(AccessOutcome& outcome) {
  // Performed synchronously in the allocating task's context regardless of
  // its priority — the priority inversion of §2.2.3.
  ++*ct_.direct_reclaims;
  int attempts = 0;
  while (config_.wm.NeedsDirectReclaim(
             free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_)) &&
         attempts < 8) {
    ++attempts;
    ReclaimResult r = ReclaimBatch(config_.reclaim_batch, /*direct=*/true);
    outcome.cpu_us += r.cpu_us;
    outcome.direct_reclaimed += r.reclaimed;
    if (r.reclaimed == 0) {
      // Reclaim cannot make progress: fall back to the OOM path (LMK).
      if (!oom_handler_ || !oom_handler_()) {
        break;  // Emergency allocation from the reserve below.
      }
    }
  }
}

void MemoryManager::Transfer(SnapshotArchive& ar) {
  // Quiescent-point contract: no flash fault may be mid-flight (its I/O
  // completion closure would be lost) and no reclaim batch mid-run.
  ICE_CHECK(in_flight_reads_.empty()) << "snapshot with faults in flight";
  ICE_CHECK(!in_reclaim_) << "snapshot during a reclaim batch";
  ar.Expect<uint32_t>(next_space_id_, "space-id allocation");
  ar.U64(reclaim_cursor_);
  ar.I64(free_pages_);
  ar.U64(zram_frames_held_);
  ar.U64(writeback_pending_);
  ar.I64(foreground_uid_);
  // Format v2 counts arena bytes at its own record size, whatever
  // sizeof(PageInfo) is now. The spaces were registered by the lifecycle
  // replay, so the restored live figure must be theirs.
  uint64_t live_bytes = arena_pages_live_ * kSnapshotRecordBytes;
  uint64_t peak_bytes = arena_pages_peak_ * kSnapshotRecordBytes;
  ar.U64(live_bytes);
  ar.U64(peak_bytes);
  if (ar.loading()) {
    if (live_bytes != arena_pages_live_ * kSnapshotRecordBytes ||
        peak_bytes % kSnapshotRecordBytes != 0 || peak_bytes < live_bytes) {
      SnapshotArchive::Fail("arena bytes live " + std::to_string(live_bytes) + ", peak " +
                            std::to_string(peak_bytes) + " do not fit " +
                            std::to_string(arena_pages_live_) + " registered page records");
    }
    arena_pages_peak_ = peak_bytes / kSnapshotRecordBytes;
  }
  ar.Bool(kswapd_woken_);
  contention_rng_.Transfer(ar);
  zram_.Transfer(ar);
  shadow_.Transfer(ar);
  ar.Bool(has_zram_reject_);
  ar.U64(last_zram_reject_time_);
  swap_gov_.Transfer(ar);
  ar.Expect<uint64_t>(spaces_.size(), "registered space count");
  ZramUsage in_zram;
  for (AddressSpace* space : spaces_) {
    space->Transfer(ar, &in_zram);
  }
  if (ar.loading() &&
      (in_zram.bytes != zram_.stored_bytes() || in_zram.pages != zram_.stored_pages())) {
    SnapshotArchive::Fail("in-zram page records hold " + std::to_string(in_zram.pages) +
                          " pages, " + std::to_string(in_zram.bytes) + " bytes; zram stores " +
                          std::to_string(zram_.stored_pages()) + " pages, " +
                          std::to_string(zram_.stored_bytes()) + " bytes");
  }
  if (ar.loading()) {
    // The frame ledger MemAccountingProperty checks: with no fault in
    // flight, every usable frame is free, resident or holding zram data.
    int64_t resident = 0;
    for (const AddressSpace* space : spaces_) {
      resident += static_cast<int64_t>(space->resident());
    }
    const int64_t usable = static_cast<int64_t>(config_.total_pages - config_.os_reserved_pages);
    if (zram_frames_held_ != BytesToPages(zram_.stored_bytes()) ||
        free_pages_ + resident + static_cast<int64_t>(zram_frames_held_) != usable) {
      SnapshotArchive::Fail("frame ledger: free " + std::to_string(free_pages_) + " + resident " +
                            std::to_string(resident) + " + zram " +
                            std::to_string(zram_frames_held_) + " != usable " +
                            std::to_string(usable) + " (zram stores " +
                            std::to_string(zram_.stored_bytes()) + " bytes)");
    }
  }
}

AddressSpace* MemoryManager::FindSpaceById(uint32_t space_id) const {
  for (AddressSpace* space : spaces_) {
    if (space->space_id() == space_id) {
      return space;
    }
  }
  return nullptr;
}

double MemoryManager::SwapPressure() const {
  if (!swap_gov_.enabled()) {
    return 0.0;
  }
  if (has_zram_reject_ &&
      engine_.now() - last_zram_reject_time_ <= config_.swap.reject_pressure_window) {
    return 1.0;
  }
  // Between rejects the signal ramps with how far utilization has pushed
  // past the writeback threshold — the pool is compressing, but poorly
  // enough that writeback cannot keep it comfortable.
  const double lo = config_.swap.writeback_util;
  const double util = zram_.utilization();
  if (util <= lo || lo >= 1.0) {
    return 0.0;
  }
  return std::min(1.0, (util - lo) / (1.0 - lo));
}

bool MemoryManager::KswapdShouldRun() const {
  if (!kswapd_woken_) {
    return false;
  }
  PageCount free = free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_);
  return !config_.wm.KswapdDone(free);
}

ReclaimResult MemoryManager::KswapdBatch() {
  ReclaimResult r = ReclaimBatch(config_.reclaim_batch, /*direct=*/false);
  PageCount free = free_pages_ < 0 ? 0 : static_cast<PageCount>(free_pages_);
  if (config_.wm.KswapdDone(free) || r.reclaimed == 0) {
    kswapd_woken_ = false;
  }
  return r;
}

}  // namespace ice
