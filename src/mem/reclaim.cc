// Reclaim half of the MemoryManager: per-memcg proportional LRU scanning,
// page eviction, kswapd batches, direct reclaim and per-process reclaim.
//
// Mirrors Android's shrink_node(): every registered address space ("memory
// cgroup") receives reclaim pressure proportional to its LRU size — the
// foreground app included. This proportional pressure is why background
// memory churn displaces foreground pages on real devices, and it is the
// exact behavior Acclaim's foreground-aware eviction filter modifies.
#include <algorithm>

#include "src/base/log.h"
#include "src/mem/memory_manager.h"
#include "src/trace/trace.h"

namespace ice {

namespace {
// Linux-style swappiness: how strongly anonymous pages are preferred
// relative to file pages (0..200 scale, 100 = proportional). Android ships
// with a high value because ZRAM makes anon reclaim cheap.
constexpr uint32_t kSwappiness = 100;
}  // namespace

ReclaimResult MemoryManager::ReclaimBatch(PageCount target, bool direct) {
  ReclaimResult result;
  result.direct = direct;
  if (target == 0 || spaces_.empty()) {
    return result;
  }
  ICE_CHECK(!in_reclaim_) << "reentrant reclaim";
  in_reclaim_ = true;
  ICE_TRACE(engine_, TraceEventType::kReclaimBegin,
            {.flags = direct ? kTraceFlagDirect : 0, .arg0 = target});

  // Total LRU size across spaces, for proportional pressure.
  uint64_t total_lru = 0;
  for (AddressSpace* space : spaces_) {
    total_lru += space->lru().total_size();
  }
  if (total_lru == 0) {
    ICE_TRACE(engine_, TraceEventType::kReclaimEnd,
              {.flags = direct ? kTraceFlagDirect : 0, .arg0 = 0, .arg1 = 0});
    in_reclaim_ = false;
    return result;
  }

  bool anon_ok = zram_.HasRoom();
  if (swap_gov_.enabled() &&
      (!anon_ok || zram_.utilization() >= config_.swap.writeback_util)) {
    // Self-clean before planning: drain FIFO-oldest compressed pages to
    // flash so this batch's anon share has room to land.
    PageCount written = ZramWritebackBatch(config_.swap.writeback_batch);
    result.cpu_us += written * config_.writeback_submit_cost;
    anon_ok = zram_.HasRoom();
  }
  size_t n = spaces_.size();
  size_t spaces_scanned = 0;
  // Rotate the starting space so rounding leftovers spread fairly.
  for (size_t i = 0; i < n && result.reclaimed < target; ++i) {
    spaces_scanned = i + 1;
    AddressSpace* space = spaces_[(reclaim_cursor_ + i) % n];
    LruLists& lru = space->lru();
    uint64_t space_lru = lru.total_size();
    if (space_lru == 0) {
      continue;
    }
    // This space's proportional share (at least one page so small spaces
    // still age).
    PageCount share = std::max<PageCount>(1, target * space_lru / total_lru);
    share = std::min(share, target - result.reclaimed);

    lru.Balance(LruPool::kAnon);
    lru.Balance(LruPool::kFile);

    size_t anon_avail = anon_ok ? lru.inactive_size(LruPool::kAnon) : 0;
    size_t file_avail = lru.inactive_size(LruPool::kFile);
    uint64_t anon_weight = static_cast<uint64_t>(anon_avail) * kSwappiness;
    uint64_t file_weight = static_cast<uint64_t>(file_avail) * 100;
    uint64_t total_weight = anon_weight + file_weight;
    if (total_weight == 0) {
      continue;
    }
    PageCount anon_share = static_cast<PageCount>(share * anon_weight / total_weight);
    PageCount file_share = share - anon_share;

    struct PoolPlan {
      LruPool pool;
      PageCount want;
    };
    PoolPlan plans[2] = {{LruPool::kFile, file_share}, {LruPool::kAnon, anon_share}};
    for (const PoolPlan& plan : plans) {
      if (plan.want == 0) {
        continue;
      }
      uint32_t want = static_cast<uint32_t>(plan.want);
      // Charge the true pages-examined count: second-chance promotions and
      // filter rotations consume scan budget even though they isolate
      // nothing, so `scanned` (and the scan_cost charged from it) must come
      // from the scan itself, not from the victims it yielded.
      result.scanned +=
          lru.IsolateCandidates(plan.pool, want, want * 4, victim_filter_, isolate_scratch_);
      bool store_failed = false;
      for (PageInfo* page : isolate_scratch_) {
        if (store_failed && plan.pool == LruPool::kAnon) {
          // A store already failed in this batch: the remaining anonymous
          // victims cannot fit either, so put them back without burning a
          // compression attempt (Zram::Store draws its ratio before the
          // capacity check).
          lru.PutBackInactive(page);
          continue;
        }
        if (EvictPage(*space, page, result, direct) == EvictOutcome::kZramFull) {
          store_failed = true;
        }
      }
      if (store_failed) {
        // ZRAM filled up mid-batch: give writeback (hotness policy only) a
        // chance to reopen the pool, then re-check instead of trusting the
        // value computed before the space loop, so later spaces stop
        // planning anon shares and churning isolate/put-back on unstorable
        // pages.
        if (swap_gov_.enabled()) {
          PageCount written = ZramWritebackBatch(config_.swap.writeback_batch);
          result.cpu_us += written * config_.writeback_submit_cost;
        }
        anon_ok = zram_.HasRoom();
      }
    }
  }
  // Advance the cursor past the last space scanned: when the batch hit its
  // target early, the next batch starts at the first unscanned space instead
  // of re-draining the same early spaces every time. A full cycle (or a
  // no-progress pass) still rotates by one so rounding leftovers spread.
  size_t advance = spaces_scanned % n;
  reclaim_cursor_ = (reclaim_cursor_ + std::max<size_t>(1, advance)) % n;

  result.cpu_us += result.scanned * config_.scan_cost + config_.reclaim_batch_overhead;
  // One zram-frame sync per batch instead of per evicted page: nothing reads
  // free_pages_ between evictions of a batch, so deferring the stored-bytes →
  // frames-held reconciliation to the batch boundary is observation-
  // equivalent and removes a division from the per-page eviction path.
  SyncZramFrames();
  FlushWritebackBatch();

  ICE_TRACE(engine_, TraceEventType::kReclaimEnd,
            {.flags = direct ? kTraceFlagDirect : 0,
             .arg0 = result.reclaimed,
             .arg1 = result.scanned});
  in_reclaim_ = false;
  return result;
}

MemoryManager::EvictOutcome MemoryManager::EvictPage(AddressSpace& space, PageInfo* page,
                                                     ReclaimResult& result, bool direct) {
  ICE_CHECK(page->state() == PageState::kPresent);
  const uint32_t vpn = space.VpnOf(*page);
  const bool anon = IsAnon(space.KindOf(vpn));

  if (anon) {
    if (swap_gov_.ShouldReject(*page)) {
      // Warm page: the admission gate keeps it resident rather than
      // round-tripping it through a compression it would immediately undo.
      // It also cools by one step, so sustained scan pressure eventually
      // wins over a page that stops refaulting.
      space.lru().PutBackInactive(page);
      swap_gov_.OnRejected(page);
      ++*ct_.swap_rejects_hot;
      ICE_TRACE(engine_, TraceEventType::kZramReject,
                {.uid = space.uid(),
                 .flags = kTraceFlagHot | (direct ? kTraceFlagDirect : 0),
                 .arg0 = vpn});
      return EvictOutcome::kRejectedHot;
    }
    SimDuration compress_cost = zram_.compress_cost();
    bool dense = false;
    bool stored;
    if (swap_gov_.enabled()) {
      dense = swap_gov_.UseDenseTier(*page);
      const ZramTierProfile& tier = swap_gov_.TierFor(dense);
      stored = zram_.StoreWithRatio(space, page, tier.mean_ratio, tier.ratio_sigma);
      compress_cost = tier.compress_us;
    } else {
      stored = zram_.Store(space, page);
    }
    if (!stored) {
      // ZRAM full: the page cannot be evicted; give it back. The reject is
      // visible — counter, trace event, and the SwapPressure() window the
      // LMK reads — instead of silently stopping anon planning.
      space.lru().PutBackInactive(page);
      ++*ct_.zram_rejects;
      last_zram_reject_time_ = engine_.now();
      has_zram_reject_ = true;
      ICE_TRACE(engine_, TraceEventType::kZramReject,
                {.uid = space.uid(),
                 .flags = direct ? kTraceFlagDirect : 0,
                 .arg0 = vpn});
      return EvictOutcome::kZramFull;
    }
    page->set_state(PageState::kInZram);
    if (swap_gov_.enabled()) {
      page->set_zram_dense(dense);
      ++*(dense ? ct_.swap_stores_dense : ct_.swap_stores_fast);
      swap_gov_.OnStored(page, space.handle_of(vpn).packed);
    }
    result.cpu_us += compress_cost + config_.unmap_cost;
    ++*ct_.zram_stores;
    ++*ct_.pages_reclaimed_anon;
    ++*(direct ? ct_.pages_reclaimed_anon_direct : ct_.pages_reclaimed_anon_kswapd);
    ++result.reclaimed_anon;
    ICE_TRACE(engine_, TraceEventType::kZramCompress,
              {.uid = space.uid(), .arg0 = page->zram_bytes});
  } else {
    if (page->dirty()) {
      ++writeback_pending_;
      page->set_dirty(false);
      result.cpu_us += config_.writeback_submit_cost + config_.unmap_cost;
      if (writeback_pending_ >= config_.writeback_batch) {
        FlushWritebackBatch();
      }
    } else {
      result.cpu_us += config_.discard_cost + config_.unmap_cost;
    }
    page->set_state(PageState::kOnFlash);
    ++*ct_.pages_reclaimed_file;
    ++*(direct ? ct_.pages_reclaimed_file_direct : ct_.pages_reclaimed_file_kswapd);
    ++result.reclaimed_file;
  }

  shadow_.RecordEviction(page);
  space.AddResident(-1);
  space.AddEvicted(1);
  ++space.total_evictions;
  ++free_pages_;
  ++result.reclaimed;
  ++*ct_.pages_reclaimed;
  ++*(direct ? ct_.pages_reclaimed_direct : ct_.pages_reclaimed_kswapd);
  ICE_TRACE(engine_, TraceEventType::kPageEvict,
            {.uid = space.uid(),
             .flags = (anon ? kTraceFlagAnon : 0) | (direct ? kTraceFlagDirect : 0),
             .arg0 = vpn});
  return EvictOutcome::kEvicted;
}

PageCount MemoryManager::ZramWritebackBatch(PageCount max_pages) {
  PageCount written = 0;
  uint64_t handle = 0;
  while (written < max_pages && swap_gov_.PopWritebackCandidate(&handle)) {
    PageHandle h;
    h.packed = handle;
    // Space ids are never reused, so a stale handle (refaulted page, dead
    // process, or a duplicate FIFO entry from a re-stored page) can only
    // miss; misses are skipped without consuming the page budget.
    AddressSpace* space = FindSpaceById(h.space_id());
    if (space == nullptr) {
      continue;
    }
    PageInfo& page = space->page(h.vpn());
    if (page.state() != PageState::kInZram) {
      continue;
    }
    zram_.Drop(&page);
    page.set_zram_dense(false);
    page.set_state(PageState::kOnFlash);
    ++written;
  }
  if (written == 0) {
    return 0;
  }
  *ct_.swap_writeback_pages += written;
  SyncZramFrames();
  ICE_TRACE(engine_, TraceEventType::kZramWriteback, {.arg0 = written});
  if (storage_ != nullptr) {
    Bio bio;
    bio.dir = IoDir::kWrite;
    bio.pages = written;
    bio.foreground = false;
    storage_->Submit(bio);
  }
  return written;
}

void MemoryManager::FlushWritebackBatch() {
  if (writeback_pending_ == 0 || storage_ == nullptr) {
    writeback_pending_ = 0;
    return;
  }
  Bio bio;
  bio.dir = IoDir::kWrite;
  bio.pages = writeback_pending_;
  bio.foreground = false;
  storage_->Submit(bio);
  writeback_pending_ = 0;
}

ReclaimResult MemoryManager::ReclaimAllOf(AddressSpace& space) {
  ReclaimResult result;
  ICE_CHECK(!in_reclaim_);
  in_reclaim_ = true;
  for (PageInfo& page : space.pages()) {
    if (page.state() != PageState::kPresent) {
      continue;
    }
    ++result.scanned;
    space.lru().Remove(&page);
    // Per-process reclaim runs in a daemon context, not an allocating task's:
    // attribute to the non-direct (kswapd-side) buckets.
    if (EvictPage(space, &page, result, /*direct=*/false) != EvictOutcome::kEvicted) {
      // Put back happened inside EvictPage (zram full or hotness-rejected);
      // nothing more to do.
      continue;
    }
  }
  result.cpu_us += result.scanned * config_.scan_cost;
  SyncZramFrames();
  FlushWritebackBatch();
  in_reclaim_ = false;
  return result;
}

}  // namespace ice
