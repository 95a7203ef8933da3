#include "src/mem/memory_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/binary_stream.h"
#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

MemConfig TinyConfig() {
  MemConfig config;
  config.total_pages = 2000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);  // low=100, min=80.
  config.zram.capacity_bytes = 4 * kMiB;
  config.reclaim_contention_mean = 0;  // Deterministic costs for tests.
  return config;
}

AddressSpaceLayout Layout(PageCount java, PageCount native, PageCount file) {
  AddressSpaceLayout layout;
  layout.java_pages = java;
  layout.native_pages = native;
  layout.file_pages = file;
  return layout;
}

class MemoryManagerTest : public ::testing::Test {
 protected:
  MemoryManagerTest()
      : storage_(engine_, Ufs21Profile()), mm_(engine_, TinyConfig(), &storage_) {}

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
};

TEST_F(MemoryManagerTest, FreePagesStartAtUsable) {
  EXPECT_EQ(mm_.free_pages(), 1800);
}

TEST_F(MemoryManagerTest, ArenaAccountingTracksLiveAndPeak) {
  EXPECT_EQ(mm_.arena_bytes_live(), 0u);
  EXPECT_EQ(mm_.arena_bytes_peak(), 0u);

  AddressSpace a(1, 1, "a", Layout(10, 10, 10));
  AddressSpace b(2, 2, "b", Layout(100, 50, 50));
  mm_.Register(a);
  EXPECT_EQ(mm_.arena_bytes_live(), a.arena_bytes());
  EXPECT_EQ(mm_.arena_bytes_peak(), a.arena_bytes());
  mm_.Register(b);
  const uint64_t both = a.arena_bytes() + b.arena_bytes();
  EXPECT_EQ(mm_.arena_bytes_live(), both);
  EXPECT_EQ(mm_.arena_bytes_peak(), both);

  // Releasing shrinks the live figure but the peak is a high-water mark.
  mm_.Release(a);
  EXPECT_EQ(mm_.arena_bytes_live(), b.arena_bytes());
  EXPECT_EQ(mm_.arena_bytes_peak(), both);
  // Releasing an unregistered space must not double-subtract.
  mm_.Release(a);
  EXPECT_EQ(mm_.arena_bytes_live(), b.arena_bytes());
  mm_.Release(b);
  EXPECT_EQ(mm_.arena_bytes_live(), 0u);
  EXPECT_EQ(mm_.arena_bytes_peak(), both);
}

// A second Register of the same space would give it a second id and leave
// arena_bytes_live() one arena too high after Release.
TEST(MemoryManagerDeathTest, DoubleRegistrationIsRejected) {
  Engine engine{1};
  BlockDevice storage(engine, Ufs21Profile());
  MemoryManager mm(engine, TinyConfig(), &storage);
  AddressSpace space(1, 1, "a", Layout(40, 40, 20));
  mm.Register(space);
  EXPECT_DEATH(mm.Register(space), "already registered");
  mm.Release(space);
  EXPECT_EQ(mm.arena_bytes_live(), 0u);
}

TEST_F(MemoryManagerTest, FirstTouchConsumesFrame) {
  AddressSpace space(1, 1, "a", Layout(10, 10, 10));
  mm_.Register(space);
  AccessOutcome out = mm_.Access(space, 0, false, nullptr);
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kFirstTouch);
  EXPECT_FALSE(out.blocked);
  EXPECT_FALSE(out.refault);
  EXPECT_EQ(mm_.free_pages(), 1799);
  EXPECT_EQ(space.resident(), 1u);
  EXPECT_EQ(space.page(0).state(), PageState::kPresent);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, HitIsCheapAndTouchesLru) {
  AddressSpace space(1, 1, "a", Layout(10, 10, 10));
  mm_.Register(space);
  mm_.Access(space, 3, false, nullptr);
  AccessOutcome out = mm_.Access(space, 3, false, nullptr);
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kHit);
  EXPECT_EQ(mm_.free_pages(), 1799);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, WriteMarksFilePageDirty) {
  AddressSpace space(1, 1, "a", Layout(4, 4, 8));
  mm_.Register(space);
  uint32_t file_vpn = space.file_begin();
  mm_.Access(space, file_vpn, /*write=*/true, nullptr);
  EXPECT_TRUE(space.page(file_vpn).dirty());
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, ZramFaultRoundTrip) {
  AddressSpace space(1, 1, "a", Layout(10, 10, 10));
  mm_.Register(space);
  mm_.Access(space, 0, false, nullptr);
  ReclaimResult r = mm_.ReclaimAllOf(space);
  EXPECT_EQ(r.reclaimed, 1u);
  EXPECT_EQ(space.page(0).state(), PageState::kInZram);
  EXPECT_EQ(space.resident(), 0u);
  EXPECT_EQ(space.evicted(), 1u);

  AccessOutcome out = mm_.Access(space, 0, false, nullptr);
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kZramFault);
  EXPECT_TRUE(out.refault);
  EXPECT_FALSE(out.blocked);
  EXPECT_EQ(space.page(0).state(), PageState::kPresent);
  EXPECT_EQ(engine_.stats().Get(stat::kRefaults), 1u);
  EXPECT_EQ(engine_.stats().Get(stat::kRefaultsBg), 1u);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, FileFaultBlocksUntilIoCompletes) {
  AddressSpace space(1, 1, "a", Layout(4, 4, 8));
  mm_.Register(space);
  uint32_t file_vpn = space.file_begin();
  mm_.Access(space, file_vpn, false, nullptr);
  mm_.ReclaimAllOf(space);
  ASSERT_EQ(space.page(file_vpn).state(), PageState::kOnFlash);

  bool woken = false;
  AccessOutcome out = mm_.Access(space, file_vpn, false, [&] { woken = true; });
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kIoFault);
  EXPECT_TRUE(out.blocked);
  EXPECT_TRUE(out.refault);
  EXPECT_EQ(space.page(file_vpn).state(), PageState::kFaultingIn);
  EXPECT_FALSE(woken);
  engine_.RunFor(Ms(50));
  EXPECT_TRUE(woken);
  EXPECT_EQ(space.page(file_vpn).state(), PageState::kPresent);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, ConcurrentFaultersPileOnOneRead) {
  AddressSpace space(1, 1, "a", Layout(4, 4, 8));
  mm_.Register(space);
  uint32_t file_vpn = space.file_begin();
  mm_.Access(space, file_vpn, false, nullptr);
  mm_.ReclaimAllOf(space);

  // The primary fault and two tasks that pile on share one read and wake in
  // the order they faulted; a probe access (no waker) waits for nothing.
  std::vector<int> woken;
  mm_.Access(space, file_vpn, false, [&] { woken.push_back(1); });
  mm_.Access(space, file_vpn, false, [&] { woken.push_back(2); });
  mm_.Access(space, file_vpn, false, nullptr);
  mm_.Access(space, file_vpn, false, [&] { woken.push_back(3); });
  EXPECT_EQ(engine_.stats().Get(stat::kIoReads), 1u);
  EXPECT_NE(mm_.faults_in_flight(), 0u);
  engine_.RunFor(Ms(50));
  EXPECT_EQ(woken, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(mm_.faults_in_flight(), 0u);
  mm_.Release(space);
}

// A process killed while its flash read is in flight (an LMK kill of a
// cached app blocked on a read) gives back the frames that read took,
// readahead pages included, so a later snapshot still balances the frame
// ledger and restores.
TEST_F(MemoryManagerTest, ReleaseDuringFlashReadReturnsItsFrames) {
  AddressSpace kept(1, 1, "kept", Layout(10, 10, 0));
  AddressSpace killed(2, 2, "killed", Layout(0, 0, 32));
  mm_.Register(kept);
  mm_.Register(killed);
  for (uint32_t vpn = 0; vpn < 20; ++vpn) {
    mm_.Access(kept, vpn, false, nullptr);
  }
  for (uint32_t vpn = 0; vpn < 32; ++vpn) {
    mm_.Access(killed, vpn, false, nullptr);
  }
  mm_.ReclaimAllOf(killed);
  mm_.Access(killed, 0, false, nullptr);
  engine_.RunFor(Ms(50));
  // Two pages on from the last fault is sequential: the read pulls ahead.
  bool woken = false;
  mm_.Access(killed, 2, false, [&] { woken = true; });
  PageCount reading = 0;
  for (const PageInfo& p : killed.pages()) {
    reading += p.state() == PageState::kFaultingIn ? 1 : 0;
  }
  ASSERT_GT(reading, 1u);
  EXPECT_EQ(mm_.free_pages(), static_cast<int64_t>(1800 - 20 - 1 - reading));

  mm_.Release(killed);
  EXPECT_EQ(mm_.faults_in_flight(), 0u);
  engine_.RunFor(Ms(50));
  EXPECT_FALSE(woken);
  EXPECT_EQ(mm_.free_pages(), 1800 - 20);

  BinaryWriter w;
  SnapshotArchive save(w);
  mm_.Transfer(save);
  std::vector<uint8_t> bytes = w.Finish();
  mm_.Release(kept);
  EXPECT_EQ(mm_.free_pages(), 1800);

  // The restoring side replays the same lifecycle: two spaces registered,
  // the second released.
  Engine engine(1);
  MemoryManager mm(engine, TinyConfig(), nullptr);
  AddressSpace kept_again(1, 1, "kept", Layout(10, 10, 0));
  AddressSpace killed_again(2, 2, "killed", Layout(0, 0, 32));
  mm.Register(kept_again);
  mm.Register(killed_again);
  mm.Release(killed_again);
  BinaryReader r(bytes);
  SnapshotArchive load(r);
  ASSERT_NO_THROW(mm.Transfer(load));
  EXPECT_EQ(mm.free_pages(), 1800 - 20);
  EXPECT_EQ(kept_again.resident(), 20u);
  mm.Release(kept_again);
  EXPECT_EQ(mm.free_pages(), 1800);
}

TEST_F(MemoryManagerTest, ForegroundClassification) {
  AddressSpace fg_space(1, 100, "fg", Layout(10, 10, 10));
  AddressSpace bg_space(2, 200, "bg", Layout(10, 10, 10));
  mm_.Register(fg_space);
  mm_.Register(bg_space);
  mm_.set_foreground_uid(100);

  mm_.Access(fg_space, 0, false, nullptr);
  mm_.Access(bg_space, 0, false, nullptr);
  mm_.ReclaimAllOf(fg_space);
  mm_.ReclaimAllOf(bg_space);
  mm_.Access(fg_space, 0, false, nullptr);
  mm_.Access(bg_space, 0, false, nullptr);

  EXPECT_EQ(engine_.stats().Get(stat::kRefaultsFg), 1u);
  EXPECT_EQ(engine_.stats().Get(stat::kRefaultsBg), 1u);
  mm_.Release(fg_space);
  mm_.Release(bg_space);
}

TEST_F(MemoryManagerTest, KswapdWakesBelowLowWatermark) {
  AddressSpace space(1, 1, "a", Layout(900, 900, 100));
  mm_.Register(space);
  bool woken = false;
  mm_.set_kswapd_waker([&] { woken = true; });
  // Consume frames until free < low (1800 - 100 => touch 1701 pages).
  for (uint32_t vpn = 0; vpn < 1701 && !woken; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  EXPECT_TRUE(woken);
  EXPECT_TRUE(mm_.KswapdShouldRun());
  EXPECT_EQ(engine_.stats().Get(stat::kKswapdWakeups), 1u);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, KswapdBatchReclaimsTowardHigh) {
  AddressSpace space(1, 1, "a", Layout(900, 900, 100));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 1705; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  ASSERT_TRUE(mm_.KswapdShouldRun());
  int64_t free_before = mm_.free_pages();
  int guard = 0;
  while (mm_.KswapdShouldRun() && guard++ < 100) {
    ReclaimResult r = mm_.KswapdBatch();
    if (r.reclaimed == 0) {
      break;
    }
  }
  EXPECT_GT(mm_.free_pages(), free_before);
  EXPECT_GE(mm_.free_pages(), static_cast<int64_t>(mm_.watermarks().high));
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, DirectReclaimBelowMin) {
  AddressSpace space(1, 1, "a", Layout(1000, 900, 100));
  mm_.Register(space);
  // Touch up to exactly min watermark (free = 80 => touched 1720).
  for (uint32_t vpn = 0; vpn < 1720; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  ASSERT_LE(mm_.free_pages(), static_cast<int64_t>(mm_.watermarks().min));
  AccessOutcome out = mm_.Access(space, 1750, false, nullptr);
  EXPECT_GT(out.direct_reclaimed, 0u);
  EXPECT_GT(out.cpu_us, Us(100));  // Reclaim work charged to the faulter.
  EXPECT_EQ(engine_.stats().Get(stat::kDirectReclaims), 1u);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, OomHandlerInvokedWhenReclaimStuck) {
  // No reclaimable pages: a single huge space entirely... actually fill
  // memory with present pages and make them unreclaimable by filling zram
  // and having no file pages.
  MemConfig config = TinyConfig();
  config.zram.capacity_bytes = 0;  // Anonymous pages cannot swap.
  MemoryManager mm(engine_, config, &storage_);
  AddressSpace space(1, 1, "a", Layout(1000, 900, 0));
  mm.Register(space);
  int oom_calls = 0;
  mm.set_oom_handler([&] {
    ++oom_calls;
    return false;  // Nothing to kill.
  });
  for (uint32_t vpn = 0; vpn < 1750; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  EXPECT_GT(oom_calls, 0);
  mm.Release(space);
}

TEST_F(MemoryManagerTest, ReleaseReturnsFrames) {
  AddressSpace space(1, 1, "a", Layout(50, 50, 50));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  EXPECT_EQ(mm_.free_pages(), 1700);
  mm_.Release(space);
  EXPECT_EQ(mm_.free_pages(), 1800);
  EXPECT_EQ(space.resident(), 0u);
  for (uint32_t vpn = 0; vpn < 150; ++vpn) {
    EXPECT_EQ(space.page(vpn).state(), PageState::kUntouched);
  }
}

TEST_F(MemoryManagerTest, ReleaseDropsZramEntries) {
  AddressSpace space(1, 1, "a", Layout(50, 50, 0));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  mm_.ReclaimAllOf(space);
  EXPECT_GT(mm_.zram().stored_pages(), 0u);
  mm_.Release(space);
  EXPECT_EQ(mm_.zram().stored_pages(), 0u);
}

// The shadow cookie shares the LRU link word: eviction stamps it on an
// unlinked page, a refault consumes it before the page is relinked (before
// the read is even issued on the flash path), and afterwards the word holds
// the page's links under two-list aging and stays zero under gen-clock.
TEST(SharedLinkWord, EvictStampsCookieAndRefaultRelinks) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    SCOPED_TRACE(aging == AgingPolicy::kTwoList ? "two_list" : "gen_clock");
    const bool two_list = aging == AgingPolicy::kTwoList;
    Engine engine(1);
    BlockDevice storage(engine, Ufs21Profile());
    MemConfig config = TinyConfig();
    config.aging = aging;
    MemoryManager mm(engine, config, &storage);
    // vpns 0-1 are Java heap (evicted to zram), 2-3 file (discarded to flash).
    AddressSpace space(1, 1, "a", Layout(2, 0, 2));
    mm.Register(space);
    for (uint32_t vpn = 0; vpn < 4; ++vpn) {
      mm.Access(space, vpn, /*write=*/false, nullptr);
    }
    mm.ReclaimAllOf(space);  // Evicts in vpn order: cookies 1-4.
    for (uint32_t vpn = 0; vpn < 4; ++vpn) {
      EXPECT_FALSE(space.page(vpn).lru_linked());
      EXPECT_EQ(space.page(vpn).evict_cookie(), vpn + 1u);
    }
    PageInfo& a = space.page(0);
    PageInfo& b = space.page(1);
    PageInfo& f = space.page(2);
    ASSERT_EQ(a.state(), PageState::kInZram);
    ASSERT_EQ(f.state(), PageState::kOnFlash);

    // Zram refaults: `a` alone on the anon list, then `b` pushed before it.
    mm.Access(space, 0, /*write=*/false, nullptr);
    EXPECT_EQ(a.state(), PageState::kPresent);
    EXPECT_EQ(a.lru.prev, two_list ? kNoPage : 0u);
    EXPECT_EQ(a.lru.next, two_list ? kNoPage : 0u);
    mm.Access(space, 1, /*write=*/false, nullptr);
    EXPECT_EQ(b.lru.prev, two_list ? kNoPage : 0u);
    EXPECT_EQ(b.lru.next, 0u);  // `a`, vpn 0, under two-list.
    EXPECT_EQ(a.lru.prev, two_list ? 1u : 0u);

    // Flash refault: the cookie is gone while the read is in flight.
    mm.Access(space, 2, /*write=*/false, nullptr);
    EXPECT_EQ(f.state(), PageState::kFaultingIn);
    EXPECT_EQ(f.evict_cookie(), 0u);
    engine.RunFor(Ms(50));
    EXPECT_EQ(f.state(), PageState::kPresent);
    EXPECT_EQ(f.lru.prev, two_list ? kNoPage : 0u);
    EXPECT_EQ(f.lru.next, two_list ? kNoPage : 0u);
    EXPECT_EQ(space.page(3).evict_cookie(), 4u);  // Still on flash.

    // Release leaves every word zero: links unlinked, cookies dropped.
    mm.Release(space);
    for (const PageInfo& p : space.pages()) {
      EXPECT_EQ(p.evict_cookie(), 0u);
    }
  }
}

TEST_F(MemoryManagerTest, AvailableCountsFileLru) {
  AddressSpace space(1, 1, "a", Layout(0, 0, 100));
  mm_.Register(space);
  PageCount before = mm_.available_pages();
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  // free dropped by 100 but file LRU grew by 100; available drops by ~50.
  EXPECT_GT(mm_.available_pages(), before - 100);
  EXPECT_EQ(mm_.file_lru_pages(), 100u);
  mm_.Release(space);
}

TEST_F(MemoryManagerTest, SpacesRegistryTracksLifecycles) {
  AddressSpace a(1, 1, "a", Layout(4, 4, 4));
  AddressSpace b(2, 2, "b", Layout(4, 4, 4));
  mm_.Register(a);
  mm_.Register(b);
  EXPECT_EQ(mm_.spaces().size(), 2u);
  mm_.Release(a);
  EXPECT_EQ(mm_.spaces().size(), 1u);
  EXPECT_EQ(mm_.spaces()[0], &b);
  mm_.Release(b);
}

}  // namespace
}  // namespace ice
