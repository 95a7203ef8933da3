// The swap policy axis: PageInfo hotness/dense bit-packing, SwapGovernor
// decision logic, and the MemoryManager integration — tiered stores, refault
// boosts, hot-rejection, pool writeback, the SWAM-style pressure signal, and
// snapshot round-tripping of all of it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/mem/memory_manager.h"
#include "src/swap/governor.h"
#include "src/swap/swap_policy.h"

namespace ice {
namespace {

// The flag word (state:3 | free:2 | dirty | referenced | active | linked |
// generation:3 | hotness:3 | zram_dense): adding the swap bits must not have
// grown the record past its four-per-cache-line budget.
static_assert(sizeof(PageInfo) == 16, "PageInfo must stay exactly 16 bytes");
static_assert(alignof(PageInfo) == 16);

AddressSpaceLayout AnonLayout(PageCount pages) {
  AddressSpaceLayout layout;
  layout.native_pages = pages;
  return layout;
}

SwapConfig HotnessConfig() {
  SwapConfig config;
  config.policy = SwapPolicy::kHotness;
  return config;
}

// ---- PageInfo bit-packing ---------------------------------------------------

TEST(PageBits, HotnessCannotClobberNeighbours) {
  PageInfo p;
  p.zram_bytes = 0xdeadbeef;
  p.set_evict_cookie(0x1234567890abcdefull);
  p.set_state(PageState::kInZram);
  p.set_dirty(true);
  p.set_referenced(true);
  p.set_active(true);
  p.set_lru_linked(true);
  p.set_generation(5);

  for (uint8_t h = 0; h <= 7; ++h) {
    p.set_hotness(h);
    EXPECT_EQ(p.hotness(), h);
    EXPECT_EQ(p.generation(), 5);
    EXPECT_EQ(p.zram_bytes, 0xdeadbeefu);
    EXPECT_EQ(p.evict_cookie(), 0x1234567890abcdefull);
    EXPECT_EQ(p.state(), PageState::kInZram);
    EXPECT_TRUE(p.dirty());
    EXPECT_TRUE(p.referenced());
    EXPECT_TRUE(p.active());
    EXPECT_TRUE(p.lru_linked());
    EXPECT_FALSE(p.zram_dense());
  }
  // Out-of-range values are masked to the 3-bit field, not smeared into the
  // dense bit above it.
  p.set_hotness(0xff);
  EXPECT_EQ(p.hotness(), 7);
  EXPECT_FALSE(p.zram_dense());
}

TEST(PageBits, DenseBitIndependentOfHotnessAndGeneration) {
  PageInfo p;
  p.set_zram_dense(true);
  EXPECT_TRUE(p.zram_dense());
  EXPECT_EQ(p.hotness(), 0);
  p.set_hotness(7);
  p.set_generation(7);
  EXPECT_TRUE(p.zram_dense());
  p.set_zram_dense(false);
  EXPECT_EQ(p.hotness(), 7);
  EXPECT_EQ(p.generation(), 7);
  EXPECT_FALSE(p.zram_dense());
}

// ---- SwapGovernor -----------------------------------------------------------

TEST(SwapGovernor, BaselineIsInert) {
  SwapGovernor gov{SwapConfig{}};
  EXPECT_FALSE(gov.enabled());
  PageInfo p;
  p.set_hotness(7);
  EXPECT_FALSE(gov.ShouldReject(p));
}

TEST(SwapGovernor, AdmissionGateAndTierSelection) {
  SwapGovernor gov(HotnessConfig());
  ASSERT_TRUE(gov.enabled());
  PageInfo p;
  for (uint8_t h = 0; h <= 7; ++h) {
    p.set_hotness(h);
    EXPECT_EQ(gov.ShouldReject(p), h >= gov.config().hot_reject_threshold);
    EXPECT_EQ(gov.UseDenseTier(p), h < gov.config().fast_tier_min_hotness);
  }
  EXPECT_EQ(gov.TierFor(true).compress_us, gov.config().dense.compress_us);
  EXPECT_EQ(gov.TierFor(false).compress_us, gov.config().fast.compress_us);
  p.set_zram_dense(true);
  EXPECT_EQ(gov.DecompressCost(p), gov.config().dense.decompress_us);
  p.set_zram_dense(false);
  EXPECT_EQ(gov.DecompressCost(p), gov.config().fast.decompress_us);
}

TEST(SwapGovernor, StoreDecaysHotnessAndQueuesForWriteback) {
  SwapGovernor gov(HotnessConfig());
  PageInfo p;
  p.set_hotness(5);
  p.zram_bytes = 1400;
  gov.OnStored(&p, /*handle=*/42);
  EXPECT_EQ(p.hotness(), 2);
  EXPECT_EQ(gov.writeback_queue_depth(), 1u);
  EXPECT_EQ(gov.compressed_bytes().count(), 1u);
  EXPECT_DOUBLE_EQ(gov.compressed_bytes().Sum(), 1400.0);
  uint64_t handle = 0;
  ASSERT_TRUE(gov.PopWritebackCandidate(&handle));
  EXPECT_EQ(handle, 42u);
  EXPECT_FALSE(gov.PopWritebackCandidate(&handle));
}

TEST(SwapGovernor, RefaultBoostSaturatesAndRejectCools) {
  SwapGovernor gov(HotnessConfig());
  PageInfo p;
  gov.OnRefault(&p);
  EXPECT_EQ(p.hotness(), gov.config().refault_hotness_boost);
  p.set_hotness(6);
  gov.OnRefault(&p);
  EXPECT_EQ(p.hotness(), 7);  // Saturates at the 3-bit ceiling.
  gov.OnRejected(&p);
  EXPECT_EQ(p.hotness(), 6);
  p.set_hotness(0);
  gov.OnRejected(&p);
  EXPECT_EQ(p.hotness(), 0);  // Floor, no wrap.
}

// The default tuning contract: a page that refaults after every store
// follows h -> floor(h/2) + boost, and that trajectory must cross the
// rejection threshold — otherwise the admission gate is dead config.
TEST(SwapGovernor, PersistentThrasherReachesRejectThreshold) {
  SwapGovernor gov(HotnessConfig());
  PageInfo p;
  bool rejected = false;
  for (int cycle = 0; cycle < 10 && !rejected; ++cycle) {
    gov.OnRefault(&p);  // The page comes back immediately...
    if (gov.ShouldReject(p)) {
      rejected = true;
      break;
    }
    gov.OnStored(&p, /*handle=*/0);  // ...and is evicted again.
  }
  EXPECT_TRUE(rejected) << "threshold unreachable under the decay schedule";
}

TEST(SwapGovernor, SaveRestoreRoundTrip) {
  SwapGovernor gov(HotnessConfig());
  PageInfo p;
  p.zram_bytes = 900;
  gov.OnStored(&p, 7);
  p.zram_bytes = 2100;
  gov.OnStored(&p, 11);
  BinaryWriter w;
  SnapshotArchive save(w);
  gov.Transfer(save);
  std::vector<uint8_t> buf = w.Finish();

  SwapGovernor restored(HotnessConfig());
  BinaryReader r(buf);
  SnapshotArchive load(r);
  restored.Transfer(load);
  EXPECT_EQ(restored.writeback_queue_depth(), 2u);
  EXPECT_EQ(restored.compressed_bytes().count(), 2u);
  EXPECT_DOUBLE_EQ(restored.compressed_bytes().Sum(), 3000.0);
  uint64_t handle = 0;
  ASSERT_TRUE(restored.PopWritebackCandidate(&handle));
  EXPECT_EQ(handle, 7u);  // FIFO order survives the round trip.
  ASSERT_TRUE(restored.PopWritebackCandidate(&handle));
  EXPECT_EQ(handle, 11u);
}

// ---- MemoryManager integration ----------------------------------------------

MemConfig HotnessMemConfig() {
  MemConfig config;
  config.total_pages = 2000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.zram.capacity_bytes = 8 * kMiB;
  config.reclaim_contention_mean = 0;  // Deterministic fault costs.
  config.swap.policy = SwapPolicy::kHotness;
  return config;
}

TEST(SwapMm, ColdPagesTakeDenseTierAndRefaultBoosts) {
  Engine engine(1);
  MemConfig config = HotnessMemConfig();
  MemoryManager mm(engine, config, nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(100));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 100; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  ReclaimResult r = mm.ReclaimAllOf(space);
  ASSERT_EQ(r.reclaimed, 100u);
  // Every victim was cold (hotness 0): all dense-tier, and the dense bit is
  // set on the compressed copy.
  EXPECT_EQ(engine.stats().Get(stat::kSwapStoresDense), 100u);
  EXPECT_EQ(engine.stats().Get(stat::kSwapStoresFast), 0u);
  EXPECT_TRUE(space.page(0).zram_dense());
  // The dense eviction charged the dense codec, not the device default.
  EXPECT_EQ(mm.swap_governor().compressed_bytes().count(), 100u);

  // Refault: charged the *dense* decompress cost, boosted, dense bit cleared.
  AccessOutcome out = mm.Access(space, 0, false, nullptr);
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kZramFault);
  EXPECT_EQ(out.cpu_us, config.fault_fixed_cost + config.swap.dense.decompress_us);
  EXPECT_EQ(space.page(0).hotness(), config.swap.refault_hotness_boost);
  EXPECT_FALSE(space.page(0).zram_dense());

  // Now warm enough for the fast tier: re-evicting stores fast, and the next
  // refault is charged the fast decompress cost.
  ASSERT_GE(space.page(0).hotness(), config.swap.fast_tier_min_hotness);
  mm.ReclaimAllOf(space);
  EXPECT_EQ(engine.stats().Get(stat::kSwapStoresFast), 1u);
  out = mm.Access(space, 0, false, nullptr);
  EXPECT_EQ(out.cpu_us, config.fault_fixed_cost + config.swap.fast.decompress_us);
  mm.Release(space);
}

TEST(SwapMm, HotPagesAreRejectedAndCooled) {
  Engine engine(2);
  MemoryManager mm(engine, HotnessMemConfig(), nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(10));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 10; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  space.page(3).set_hotness(6);  // Above the default threshold of 5.
  ReclaimResult r = mm.ReclaimAllOf(space);
  EXPECT_EQ(r.reclaimed, 9u);
  EXPECT_EQ(space.page(3).state(), PageState::kPresent);
  EXPECT_EQ(space.page(3).hotness(), 5);  // Cooled by the rejection.
  EXPECT_EQ(engine.stats().Get(stat::kSwapRejectsHot), 1u);
  mm.Release(space);
}

TEST(SwapMm, BaselineNeverRejectsHotPages) {
  Engine engine(3);
  MemConfig config = HotnessMemConfig();
  config.swap.policy = SwapPolicy::kBaseline;
  MemoryManager mm(engine, config, nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(10));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 10; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  space.page(3).set_hotness(7);
  ReclaimResult r = mm.ReclaimAllOf(space);
  EXPECT_EQ(r.reclaimed, 10u);
  EXPECT_EQ(engine.stats().Get(stat::kSwapRejectsHot), 0u);
  EXPECT_EQ(engine.stats().Get(stat::kSwapStoresDense), 0u);
  EXPECT_EQ(mm.swap_governor().compressed_bytes().count(), 0u);
  EXPECT_DOUBLE_EQ(mm.SwapPressure(), 0.0);
  mm.Release(space);
}

TEST(SwapMm, WritebackDrainsFullPoolAndPressureSignals) {
  Engine engine(4);
  MemConfig config = HotnessMemConfig();
  config.zram.capacity_bytes = 16 * 1024;  // ~11 compressed pages.
  // Anon-only memory large enough to hold free below the high watermark.
  MemoryManager mm(engine, config, nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(1700));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 1700; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  // Fill the pool until a store fails: the capacity reject pins the
  // SWAM-style pressure signal at 1.0.
  mm.ReclaimAllOf(space);
  ASSERT_GT(engine.stats().Get(stat::kZramRejects), 0u);
  EXPECT_DOUBLE_EQ(mm.SwapPressure(), 1.0);
  ASSERT_FALSE(mm.zram().HasRoom());

  // The next batch self-cleans: FIFO-oldest compressed pages are written
  // back to flash, reopening the pool.
  uint64_t in_zram_before = mm.zram().stored_pages();
  ReclaimResult r = mm.KswapdBatch();
  uint64_t written = engine.stats().Get(stat::kSwapWritebackPages);
  EXPECT_GT(written, 0u);
  EXPECT_LE(written, config.swap.writeback_batch);
  EXPECT_LT(mm.zram().stored_pages(), in_zram_before + r.reclaimed_anon);
  // Written-back pages moved to flash; their dense bit is gone.
  uint64_t on_flash = 0;
  for (uint32_t vpn = 0; vpn < 1700; ++vpn) {
    if (space.page(vpn).state() == PageState::kOnFlash) {
      EXPECT_FALSE(space.page(vpn).zram_dense());
      ++on_flash;
    }
  }
  EXPECT_GE(on_flash, written);
  mm.Release(space);
}

TEST(SwapMm, SnapshotRoundTripPreservesHotnessState) {
  Engine engine(5);
  MemConfig config = HotnessMemConfig();
  MemoryManager mm(engine, config, nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(60));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 60; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  mm.ReclaimAllOf(space);
  // Refault a few pages so hotness, dense bits and the FIFO diverge from
  // their defaults.
  for (uint32_t vpn = 0; vpn < 10; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  mm.ReclaimAllOf(space);
  BinaryWriter w;
  SnapshotArchive save(w);
  mm.Transfer(save);
  std::vector<uint8_t> buf = w.Finish();

  Engine engine2(5);
  MemoryManager mm2(engine2, config, nullptr);
  AddressSpace space2(1, 1, "a", AnonLayout(60));
  mm2.Register(space2);
  BinaryReader r(buf);
  SnapshotArchive load(r);
  mm2.Transfer(load);

  for (uint32_t vpn = 0; vpn < 60; ++vpn) {
    EXPECT_EQ(space2.page(vpn).hotness(), space.page(vpn).hotness()) << vpn;
    EXPECT_EQ(space2.page(vpn).zram_dense(), space.page(vpn).zram_dense()) << vpn;
    EXPECT_EQ(space2.page(vpn).state(), space.page(vpn).state()) << vpn;
  }
  EXPECT_EQ(mm2.swap_governor().writeback_queue_depth(),
            mm.swap_governor().writeback_queue_depth());
  EXPECT_EQ(mm2.swap_governor().compressed_bytes().count(),
            mm.swap_governor().compressed_bytes().count());
  EXPECT_DOUBLE_EQ(mm2.swap_governor().compressed_bytes().Sum(),
                   mm.swap_governor().compressed_bytes().Sum());
  EXPECT_DOUBLE_EQ(mm2.SwapPressure(), mm.SwapPressure());
  mm.Release(space);
  mm2.Release(space2);
}

// A structural mismatch in the stream is bad input, not a programmer error:
// restoring a two_list manager's state into a gen_clock one throws.
TEST(SwapMm, SnapshotIntoOtherAgingPolicyThrows) {
  Engine engine(5);
  MemConfig config = HotnessMemConfig();
  MemoryManager mm(engine, config, nullptr);
  AddressSpace space(1, 1, "a", AnonLayout(60));
  mm.Register(space);
  for (uint32_t vpn = 0; vpn < 60; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  BinaryWriter w;
  SnapshotArchive save(w);
  mm.Transfer(save);
  std::vector<uint8_t> buf = w.Finish();

  Engine engine2(5);
  MemConfig gen_clock = config;
  gen_clock.aging = AgingPolicy::kGenClock;
  MemoryManager mm2(engine2, gen_clock, nullptr);
  AddressSpace space2(1, 1, "a", AnonLayout(60));
  mm2.Register(space2);
  BinaryReader r(buf);
  SnapshotArchive load(r);
  try {
    mm2.Transfer(load);
    ADD_FAILURE() << "restore into another aging policy did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("aging policy mismatch"), std::string::npos)
        << e.what();
  }
  mm.Release(space);
  mm2.Release(space2);
}

}  // namespace
}  // namespace ice
