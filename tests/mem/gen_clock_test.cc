// Generation-clock aging policy: counter bookkeeping, clock advancement,
// arena-order sweep isolation, touch rejuvenation, second chance, victim
// filter protection, and an end-to-end reclaim pass through MemoryManager
// with MemConfig::aging = kGenClock.
#include <gtest/gtest.h>

#include "src/mem/lru.h"
#include "src/mem/memory_manager.h"
#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

class GenClockTest : public ::testing::Test {
 protected:
  GenClockTest() : space_(1, 1, "t", Layout()) {
    lru_.BindArena(&space_, space_.pages().data(),
                   static_cast<uint32_t>(space_.pages().size()));
    lru_.set_aging(AgingPolicy::kGenClock);
  }

  static AddressSpaceLayout Layout() {
    AddressSpaceLayout layout;
    layout.java_pages = 8;
    layout.native_pages = 0;
    layout.file_pages = 16;
    return layout;
  }

  PageInfo* AnonPage(uint32_t i) { return &space_.page(i); }       // Java region.
  PageInfo* FilePage(uint32_t i) { return &space_.page(8 + i); }   // File region.

  AddressSpace space_;
  LruLists lru_;
};

TEST_F(GenClockTest, InsertCountsYoungAndPoolsStaySeparate) {
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Insert(FilePage(0));
  // Freshly inserted pages are young: all "active", none "inactive".
  EXPECT_EQ(lru_.active_size(LruPool::kAnon), 4u);
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 0u);
  EXPECT_EQ(lru_.pool_size(LruPool::kFile), 1u);
  EXPECT_EQ(lru_.total_size(), 5u);
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Remove(AnonPage(i));
  }
  lru_.Remove(FilePage(0));
  EXPECT_EQ(lru_.total_size(), 0u);
}

TEST_F(GenClockTest, BalanceAdvancesClockWhenAllYoung) {
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Insert(AnonPage(i));
  }
  ASSERT_EQ(lru_.inactive_size(LruPool::kAnon), 0u);
  lru_.Balance(LruPool::kAnon);
  // young(6) > 2*old(0): the clock opens a fresh generation, the cohort ages.
  EXPECT_EQ(lru_.active_size(LruPool::kAnon), 0u);
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 6u);
  // Already balanced: a second call must not advance again (old dominates).
  lru_.Balance(LruPool::kAnon);
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 6u);
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(GenClockTest, IsolateSweepsArenaInAddressOrder) {
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  std::vector<PageInfo*> victims;
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 3, 16, nullptr, victims);
  // The hand starts at arena index 0 and sweeps upward.
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(scanned, 3u);
  EXPECT_EQ(space_.VpnOf(*victims[0]), 0u);
  EXPECT_EQ(space_.VpnOf(*victims[1]), 1u);
  EXPECT_EQ(space_.VpnOf(*victims[2]), 2u);
  for (PageInfo* v : victims) {
    EXPECT_FALSE(v->lru_linked());
  }
  // The persistent hand resumes where it stopped.
  scanned = lru_.IsolateCandidates(LruPool::kAnon, 3, 16, nullptr, victims);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(space_.VpnOf(*victims[0]), 3u);
  EXPECT_EQ(space_.VpnOf(*victims[2]), 5u);
  EXPECT_EQ(lru_.total_size(), 0u);
}

TEST_F(GenClockTest, TouchRejuvenatesIntoCurrentGeneration) {
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);  // All 4 now lag the clock.
  lru_.Touch(AnonPage(2));
  EXPECT_EQ(lru_.active_size(LruPool::kAnon), 1u);
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 3u);
  EXPECT_TRUE(AnonPage(2)->active());
  // A young page is not even examined by the sweep: only the three lagging
  // pages are isolated.
  std::vector<PageInfo*> victims;
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 4, 16, nullptr, victims);
  EXPECT_EQ(scanned, 3u);
  ASSERT_EQ(victims.size(), 3u);
  for (PageInfo* v : victims) {
    EXPECT_NE(space_.VpnOf(*v), 2u);
  }
  lru_.Remove(AnonPage(2));
}

TEST_F(GenClockTest, ReferencedLaggingPageGetsSecondChance) {
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Touch(AnonPage(1));  // Young + referenced.
  lru_.Balance(LruPool::kAnon);  // Everything lags; page 1 still referenced.
  std::vector<PageInfo*> victims;
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 4, 16, nullptr, victims);
  // Page 1 is examined but rejuvenated instead of isolated.
  EXPECT_EQ(scanned, 4u);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_TRUE(AnonPage(1)->lru_linked());
  EXPECT_TRUE(AnonPage(1)->active());
  EXPECT_FALSE(AnonPage(1)->referenced());
  EXPECT_EQ(lru_.active_size(LruPool::kAnon), 1u);
  lru_.Remove(AnonPage(1));
}

TEST_F(GenClockTest, VictimFilterLeavesPageLaggingAndRecharges) {
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  auto protect_low = [](const AddressSpace& s, const PageInfo& p) { return s.VpnOf(p) < 2; };
  std::vector<PageInfo*> victims;
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 4, 16, protect_low, victims);
  // All four examined; the two protected pages stay linked and lagging.
  EXPECT_EQ(scanned, 4u);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_TRUE(AnonPage(0)->lru_linked());
  EXPECT_TRUE(AnonPage(1)->lru_linked());
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 2u);
  // The next full pass re-examines (and re-charges) the protected pages —
  // the gen-clock analog of the two-list head rotation.
  scanned = lru_.IsolateCandidates(LruPool::kAnon, 4, 16, protect_low, victims);
  EXPECT_EQ(scanned, 2u);
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 2u);
  lru_.Remove(AnonPage(0));
  lru_.Remove(AnonPage(1));
}

TEST_F(GenClockTest, PutBackInactiveIsReIsolatable) {
  lru_.Insert(AnonPage(0));
  lru_.Insert(AnonPage(1));
  lru_.Balance(LruPool::kAnon);
  std::vector<PageInfo*> victims;
  lru_.IsolateCandidates(LruPool::kAnon, 1, 16, nullptr, victims);
  ASSERT_EQ(victims.size(), 1u);
  PageInfo* rejected = victims[0];
  lru_.PutBackInactive(rejected);
  EXPECT_TRUE(rejected->lru_linked());
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 2u);
  // A later sweep takes it again: it went back lagging, not young.
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 2, 16, nullptr, victims);
  EXPECT_EQ(scanned, 2u);
  EXPECT_EQ(victims.size(), 2u);
  EXPECT_EQ(lru_.total_size(), 0u);
}

TEST_F(GenClockTest, ScanBudgetBoundsChargedExaminations) {
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  for (uint32_t i = 0; i < 8; ++i) {
    AnonPage(i)->set_referenced(true);  // Everything rotates, nothing isolates.
  }
  std::vector<PageInfo*> victims;
  uint32_t scanned = lru_.IsolateCandidates(LruPool::kAnon, 8, 3, nullptr, victims);
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(scanned, 3u);
  // Only the 3 budgeted pages were rejuvenated; 5 still lag.
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 5u);
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

// ---------------------------------------------------------------------------
// End-to-end through MemoryManager: the reclaim batch, zram round-trip and
// refault bookkeeping all work when every registered space ages by clock.
// ---------------------------------------------------------------------------

class GenClockReclaimTest : public ::testing::Test {
 protected:
  static MemConfig Config() {
    MemConfig config;
    config.aging = AgingPolicy::kGenClock;
    config.total_pages = 2000;
    config.os_reserved_pages = 200;
    config.wm = Watermarks::FromHigh(120);
    config.zram.capacity_bytes = 8 * kMiB;
    config.reclaim_contention_mean = 0;
    return config;
  }

  GenClockReclaimTest() : storage_(engine_, Ufs21Profile()), mm_(engine_, Config(), &storage_) {}

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
};

TEST_F(GenClockReclaimTest, ReclaimBatchFreesPagesAndChargesScan) {
  AddressSpaceLayout layout;
  layout.java_pages = 300;
  layout.native_pages = 300;
  layout.file_pages = 0;
  AddressSpace space(1, 1, "a", layout);
  mm_.Register(space);
  EXPECT_EQ(space.lru().aging(), AgingPolicy::kGenClock);
  for (uint32_t vpn = 0; vpn < 600; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  int64_t free_before = mm_.free_pages();
  ReclaimResult r = mm_.KswapdBatch();
  EXPECT_GT(r.reclaimed, 0u);
  EXPECT_GE(r.scanned, r.reclaimed);
  EXPECT_GT(mm_.free_pages(), free_before);
  // Refaulting an evicted anon page round-trips through zram.
  for (int i = 0; i < 20 && space.total_refaults == 0; ++i) {
    for (uint32_t vpn = 0; vpn < 600; ++vpn) {
      mm_.Access(space, vpn, false, nullptr);
    }
    mm_.KswapdBatch();
  }
  EXPECT_GT(space.total_refaults, 0u);
  mm_.Release(space);
}

TEST_F(GenClockReclaimTest, VictimFilterStillProtectsForeground) {
  AddressSpaceLayout layout;
  layout.java_pages = 400;
  layout.native_pages = 400;
  layout.file_pages = 0;
  AddressSpace fg(1, 100, "fg", layout);
  AddressSpace bg(2, 200, "bg", layout);
  mm_.Register(fg);
  mm_.Register(bg);
  mm_.set_foreground_uid(100);
  mm_.set_victim_filter([this](const AddressSpace& space, const PageInfo&) {
    return space.uid() == mm_.foreground_uid();
  });
  for (uint32_t vpn = 0; vpn < 800; ++vpn) {
    mm_.Access(fg, vpn, false, nullptr);
  }
  for (uint32_t vpn = 0; vpn < 800; ++vpn) {
    mm_.Access(bg, vpn, false, nullptr);
  }
  for (int i = 0; i < 50; ++i) {
    mm_.KswapdBatch();
  }
  EXPECT_EQ(fg.total_evictions, 0u);
  EXPECT_GT(bg.total_evictions, 0u);
  mm_.Release(fg);
  mm_.Release(bg);
}

}  // namespace
}  // namespace ice
