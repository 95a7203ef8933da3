// Reclaim-specific behavior: proportional per-space pressure, victim
// filtering (the Acclaim hook), zram-full fallback to file, writeback I/O,
// kswapd-vs-direct attribution and cursor fairness.
#include <gtest/gtest.h>

#include "src/mem/memory_manager.h"
#include "src/storage/flash_profiles.h"
#include "src/trace/tracer.h"

namespace ice {
namespace {

MemConfig TinyConfig() {
  MemConfig config;
  config.total_pages = 2000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.zram.capacity_bytes = 8 * kMiB;
  config.reclaim_contention_mean = 0;
  return config;
}

AddressSpaceLayout Layout(PageCount java, PageCount native, PageCount file) {
  AddressSpaceLayout layout;
  layout.java_pages = java;
  layout.native_pages = native;
  layout.file_pages = file;
  return layout;
}

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : storage_(engine_, Ufs21Profile()), mm_(engine_, TinyConfig(), &storage_) {}

  void TouchAll(AddressSpace& space, uint32_t count) {
    for (uint32_t vpn = 0; vpn < count; ++vpn) {
      mm_.Access(space, vpn, false, nullptr);
    }
  }

  void DrainKswapd() {
    int guard = 0;
    while (mm_.KswapdShouldRun() && guard++ < 500) {
      if (mm_.KswapdBatch().reclaimed == 0) {
        break;
      }
    }
  }

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
};

TEST_F(ReclaimTest, PressureIsProportionalAcrossSpaces) {
  // Two idle spaces of very different sizes: the bigger one should donate
  // proportionally more.
  AddressSpace big(1, 1, "big", Layout(600, 600, 0));
  AddressSpace small(2, 2, "small", Layout(150, 150, 0));
  mm_.Register(big);
  mm_.Register(small);
  TouchAll(big, 1200);
  TouchAll(small, 300);  // free = 300, below low (100)? 1800-1500=300: above.
  // Force reclaim directly.
  int64_t freed_target = 200;
  int64_t before = mm_.free_pages();
  while (mm_.free_pages() < before + freed_target) {
    if (mm_.KswapdBatch().reclaimed == 0) {
      break;
    }
  }
  EXPECT_GT(big.total_evictions, small.total_evictions * 2);
  EXPECT_GT(small.total_evictions, 0u);
  mm_.Release(big);
  mm_.Release(small);
}

TEST_F(ReclaimTest, VictimFilterProtectsForeground) {
  AddressSpace fg(1, 100, "fg", Layout(400, 400, 0));
  AddressSpace bg(2, 200, "bg", Layout(400, 400, 0));
  mm_.Register(fg);
  mm_.Register(bg);
  mm_.set_foreground_uid(100);
  // Acclaim's FAE: skip foreground-owned pages.
  mm_.set_victim_filter([this](const AddressSpace& space, const PageInfo&) {
    return space.uid() == mm_.foreground_uid();
  });
  TouchAll(fg, 800);
  TouchAll(bg, 800);
  for (int i = 0; i < 50; ++i) {
    mm_.KswapdBatch();
  }
  EXPECT_EQ(fg.total_evictions, 0u);
  EXPECT_GT(bg.total_evictions, 0u);
  mm_.Release(fg);
  mm_.Release(bg);
}

TEST_F(ReclaimTest, ZramFullFallsBackToFile) {
  MemConfig config = TinyConfig();
  config.zram.capacity_bytes = 64 * 1024;  // ~45 compressed pages.
  MemoryManager mm(engine_, config, &storage_);
  AddressSpace space(1, 1, "a", Layout(400, 400, 800));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 1600; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  for (int i = 0; i < 200; ++i) {
    mm.KswapdBatch();
  }
  uint64_t anon_evicted = engine_.stats().Get(stat::kPagesReclaimedAnon);
  uint64_t file_evicted = engine_.stats().Get(stat::kPagesReclaimedFile);
  EXPECT_GT(file_evicted, anon_evicted);
  EXPECT_LE(mm.zram().stored_bytes(), config.zram.capacity_bytes);
  mm.Release(space);
}

TEST_F(ReclaimTest, DirtyFilePagesWriteBack) {
  AddressSpace space(1, 1, "a", Layout(0, 0, 200));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    mm_.Access(space, vpn, /*write=*/true, nullptr);
  }
  mm_.ReclaimAllOf(space);
  engine_.RunFor(Ms(100));
  EXPECT_GT(engine_.stats().Get(stat::kIoWrites), 0u);
  EXPECT_GT(engine_.stats().Get(stat::kIoWriteBytes), PagesToBytes(100));
  mm_.Release(space);
}

TEST_F(ReclaimTest, CleanFilePagesDiscardWithoutIo) {
  AddressSpace space(1, 1, "a", Layout(0, 0, 200));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    mm_.Access(space, vpn, /*write=*/false, nullptr);
  }
  mm_.ReclaimAllOf(space);
  engine_.RunFor(Ms(100));
  EXPECT_EQ(engine_.stats().Get(stat::kIoWrites), 0u);
  mm_.Release(space);
}

TEST_F(ReclaimTest, ReclaimAllEvictsEverythingPresent) {
  AddressSpace space(1, 1, "a", Layout(100, 100, 100));
  mm_.Register(space);
  TouchAll(space, 300);
  ReclaimResult r = mm_.ReclaimAllOf(space);
  EXPECT_EQ(r.reclaimed, 300u);
  EXPECT_EQ(space.resident(), 0u);
  EXPECT_EQ(space.evicted(), 300u);
  EXPECT_GT(r.cpu_us, Us(300));
  mm_.Release(space);
}

TEST_F(ReclaimTest, EvictionRecordsShadowEntries) {
  AddressSpace space(1, 1, "a", Layout(10, 10, 10));
  mm_.Register(space);
  TouchAll(space, 30);
  mm_.ReclaimAllOf(space);
  for (uint32_t vpn = 0; vpn < 30; ++vpn) {
    EXPECT_GT(space.page(vpn).evict_cookie(), 0u);
  }
  EXPECT_EQ(mm_.shadow().eviction_sequence(), 30u);
  mm_.Release(space);
}

// vmstat-style pgsteal attribution: a watermark breach must populate BOTH
// the kswapd and the direct buckets, and the buckets must reconcile with the
// totals and with the per-access AccessOutcome.direct_reclaimed counts.
TEST_F(ReclaimTest, WatermarkBreachAttributesKswapdAndDirectSeparately) {
  // More pages than usable frames (1800): allocations push free through the
  // min watermark and enter direct reclaim inside Access.
  AddressSpace space(1, 1, "a", Layout(900, 900, 900));
  mm_.Register(space);
  uint64_t outcome_direct_total = 0;
  for (uint32_t vpn = 0; vpn < 2700; ++vpn) {
    outcome_direct_total += mm_.Access(space, vpn, false, nullptr).direct_reclaimed;
  }
  DrainKswapd();

  StatsRegistry& st = engine_.stats();
  uint64_t kswapd = st.Get(stat::kPagesReclaimedKswapd);
  uint64_t direct = st.Get(stat::kPagesReclaimedDirect);
  EXPECT_GT(kswapd, 0u);
  EXPECT_GT(direct, 0u);
  EXPECT_EQ(kswapd + direct, st.Get(stat::kPagesReclaimed));
  EXPECT_EQ(st.Get(stat::kPagesReclaimedAnonKswapd) + st.Get(stat::kPagesReclaimedAnonDirect),
            st.Get(stat::kPagesReclaimedAnon));
  EXPECT_EQ(st.Get(stat::kPagesReclaimedFileKswapd) + st.Get(stat::kPagesReclaimedFileDirect),
            st.Get(stat::kPagesReclaimedFile));
  // The sum the allocators saw is exactly what the direct bucket recorded.
  EXPECT_EQ(outcome_direct_total, direct);
  mm_.Release(space);
}

TEST_F(ReclaimTest, ReclaimResultCarriesContextAndPoolSplit) {
  AddressSpace space(1, 1, "a", Layout(400, 400, 400));
  mm_.Register(space);
  TouchAll(space, 1200);
  ReclaimResult r = mm_.KswapdBatch();
  EXPECT_FALSE(r.direct);
  EXPECT_EQ(r.reclaimed_anon + r.reclaimed_file, r.reclaimed);
  EXPECT_GT(r.reclaimed, 0u);
  mm_.Release(space);
}

TEST_F(ReclaimTest, PerProcessReclaimIsNotDirect) {
  AddressSpace space(1, 1, "a", Layout(100, 100, 100));
  mm_.Register(space);
  TouchAll(space, 300);
  ReclaimResult r = mm_.ReclaimAllOf(space);
  EXPECT_FALSE(r.direct);
  // Daemon-context reclaim lands in the non-direct (kswapd-side) buckets.
  EXPECT_EQ(engine_.stats().Get(stat::kPagesReclaimedDirect), 0u);
  EXPECT_EQ(engine_.stats().Get(stat::kPagesReclaimedKswapd),
            engine_.stats().Get(stat::kPagesReclaimed));
  mm_.Release(space);
}

// Cursor regression: a batch that meets its target after scanning spaces
// [A, B] must start the next batch at C (the first unscanned space), not
// re-drain B. Verified through the eviction order in the trace.
TEST_F(ReclaimTest, CursorAdvancesPastAllScannedSpaces) {
  MemConfig config;
  config.total_pages = 16000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.reclaim_contention_mean = 0;
  Tracer tracer(16);
  engine_.set_tracer(&tracer);
  MemoryManager mm(engine_, config, &storage_);

  // File-only spaces: clean discards, no zram/writeback noise. B dominates
  // the LRU so batch 1 (target 32) fills within A (share 1) + B (share 31).
  AddressSpace a(1, 1, "a", Layout(0, 0, 100));
  AddressSpace b(2, 2, "b", Layout(0, 0, 10000));
  AddressSpace c(3, 3, "c", Layout(0, 0, 100));
  mm.Register(a);
  mm.Register(b);
  mm.Register(c);
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm.Access(a, vpn, false, nullptr);
  }
  for (uint32_t vpn = 0; vpn < 10000; ++vpn) {
    mm.Access(b, vpn, false, nullptr);
  }
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm.Access(c, vpn, false, nullptr);
  }

  ReclaimResult first = mm.KswapdBatch();
  ASSERT_EQ(first.reclaimed, 32u);
  EXPECT_EQ(c.total_evictions, 0u) << "batch 1 should stop before reaching C";
  mm.KswapdBatch();
  EXPECT_GT(c.total_evictions, 0u);

  // The first eviction of batch 2 must come from C: the cursor moved past
  // every space batch 1 scanned (the old advance-by-one restarted at B).
  int begins = 0;
  bool checked = false;
  for (const TraceEvent& e : tracer.Events()) {
    if (e.type == TraceEventType::kReclaimBegin) {
      ++begins;
    } else if (begins == 2 && e.type == TraceEventType::kPageEvict) {
      EXPECT_EQ(e.uid, 3) << "batch 2 started at the wrong space";
      checked = true;
      break;
    }
  }
  EXPECT_TRUE(checked);
  engine_.set_tracer(nullptr);
  mm.Release(a);
  mm.Release(b);
  mm.Release(c);
}

// Scan-accounting regression: second-chance promotions consume scan budget
// but isolate nothing, so a batch over a referenced-heavy inactive list must
// report scanned > reclaimed. The pre-fix code charged isolate_scratch_.size()
// (== reclaimed for clean file pages), hiding the promotion work entirely.
TEST_F(ReclaimTest, ScannedCountsSecondChancePromotions) {
  AddressSpace space(1, 1, "a", Layout(0, 0, 600));  // Clean file pages only.
  mm_.Register(space);
  TouchAll(space, 600);
  // Demote a third of the pool (pages 0..199, with page 0 at the scan tail),
  // then re-touch the 50 tail-most: the batch must wade through 50
  // second-chance promotions before it can isolate a single victim.
  space.lru().Balance(LruPool::kFile);
  ASSERT_GT(space.lru().inactive_size(LruPool::kFile), 49u);
  TouchAll(space, 50);
  ReclaimResult r = mm_.KswapdBatch();
  ASSERT_GT(r.reclaimed, 0u);
  EXPECT_GT(r.scanned, r.reclaimed);
  mm_.Release(space);
}

// Same accounting through the Acclaim victim filter: rotated pages are
// examined work even though they are never isolated.
TEST_F(ReclaimTest, ScannedCountsVictimFilterRotations) {
  AddressSpace space(1, 1, "a", Layout(0, 0, 400));
  mm_.Register(space);
  TouchAll(space, 400);
  // Protect even vpns: half the scanned tail rotates instead of evicting.
  mm_.set_victim_filter(
      [](const AddressSpace& s, const PageInfo& page) { return s.VpnOf(page) % 2 == 0; });
  ReclaimResult r = mm_.KswapdBatch();
  ASSERT_GT(r.reclaimed, 0u);
  EXPECT_GT(r.scanned, r.reclaimed);
  mm_.Release(space);
}

// ZRAM filling up mid-batch must stop anon planning for the rest of the
// batch: before the fix, anon_ok was computed once before the space loop, so
// later spaces kept isolating anonymous pages only to put every one of them
// back when Store failed — pure churn charged to the batch.
TEST_F(ReclaimTest, ZramFullMidBatchStopsAnonPlanningForLaterSpaces) {
  MemConfig config = TinyConfig();
  config.zram.capacity_bytes = 16 * 1024;  // ~11 compressed pages.
  MemoryManager mm(engine_, config, &storage_);
  AddressSpace a(1, 1, "a", Layout(100, 0, 0));  // Anon-only.
  AddressSpace b(2, 2, "b", Layout(100, 0, 0));  // Anon-only.
  mm.Register(a);
  mm.Register(b);
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm.Access(a, vpn, false, nullptr);
  }
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm.Access(b, vpn, false, nullptr);
  }
  // Batch target 32: A's share (16) overflows the zram partway through, so
  // B's share must be re-planned with zero anon weight — B contributes no
  // scanning at all (its pool is entirely anonymous).
  ReclaimResult r = mm.KswapdBatch();
  ASSERT_GT(r.reclaimed, 0u);
  ASSERT_LT(r.reclaimed, 16u) << "zram unexpectedly fit the whole share";
  EXPECT_LE(r.scanned, 16u) << "later space was scanned after the store failure";
  mm.Release(a);
  mm.Release(b);
}

// Batched zram-frame accounting: free_pages_ must reconcile with the frames
// the compressed store occupies at every batch boundary.
TEST_F(ReclaimTest, FreePagesReconcileWithZramFramesAfterBatch) {
  AddressSpace space(1, 1, "a", Layout(400, 0, 0));
  mm_.Register(space);
  TouchAll(space, 400);
  int64_t before = mm_.free_pages();
  ReclaimResult r = mm_.KswapdBatch();
  ASSERT_GT(r.reclaimed, 0u);
  // Every reclaimed anon page frees one frame but the compressed copies
  // re-occupy BytesToPages(stored) frames, synced once per batch.
  int64_t expected = before + static_cast<int64_t>(r.reclaimed) -
                     static_cast<int64_t>(BytesToPages(mm_.zram().stored_bytes()));
  EXPECT_EQ(mm_.free_pages(), expected);
  mm_.Release(space);
}

TEST_F(ReclaimTest, ReclaimedCounterSplitsByType) {
  AddressSpace space(1, 1, "a", Layout(50, 50, 100));
  mm_.Register(space);
  TouchAll(space, 200);
  mm_.ReclaimAllOf(space);
  uint64_t total = engine_.stats().Get(stat::kPagesReclaimed);
  uint64_t anon = engine_.stats().Get(stat::kPagesReclaimedAnon);
  uint64_t file = engine_.stats().Get(stat::kPagesReclaimedFile);
  EXPECT_EQ(total, 200u);
  EXPECT_EQ(anon, 100u);
  EXPECT_EQ(file, 100u);
  mm_.Release(space);
}

}  // namespace
}  // namespace ice
