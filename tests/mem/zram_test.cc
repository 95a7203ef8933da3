#include "src/mem/zram.h"

#include <gtest/gtest.h>

#include "src/mem/address_space.h"
#include "src/mem/memory_manager.h"

namespace ice {
namespace {

AddressSpaceLayout AnonLayout(PageCount pages) {
  AddressSpaceLayout layout;
  layout.native_pages = pages;
  return layout;
}

TEST(Zram, StoresAndDrops) {
  ZramConfig config;
  config.capacity_bytes = 1 * kMiB;
  Zram zram(config, Rng(1));
  AddressSpace space(1, 1, "t", AnonLayout(16));
  PageInfo* p = &space.page(0);

  EXPECT_TRUE(zram.Store(space, p));
  EXPECT_GT(p->zram_bytes, 0u);
  EXPECT_LT(p->zram_bytes, kPageSize);
  EXPECT_EQ(zram.stored_pages(), 1u);
  EXPECT_EQ(zram.stored_bytes(), p->zram_bytes);

  zram.Drop(p);
  EXPECT_EQ(p->zram_bytes, 0u);
  EXPECT_EQ(zram.stored_pages(), 0u);
  EXPECT_EQ(zram.stored_bytes(), 0u);
}

TEST(Zram, CompressionRatioIsPlausible) {
  ZramConfig config;
  config.capacity_bytes = 64 * kMiB;
  Zram zram(config, Rng(2));
  AddressSpace space(1, 1, "t", AnonLayout(1000));
  uint64_t total = 0;
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(zram.Store(space, &space.page(i)));
    total += space.page(i).zram_bytes;
  }
  double ratio = 1000.0 * kPageSize / total;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
  for (uint32_t i = 0; i < 1000; ++i) {
    zram.Drop(&space.page(i));
  }
}

TEST(Zram, CapacityBound) {
  ZramConfig config;
  config.capacity_bytes = 16 * 1024;  // ~10 compressed pages.
  Zram zram(config, Rng(3));
  AddressSpace space(1, 1, "t", AnonLayout(100));
  uint32_t stored = 0;
  for (uint32_t i = 0; i < 100; ++i) {
    if (!zram.Store(space, &space.page(i))) {
      break;
    }
    ++stored;
  }
  EXPECT_GT(stored, 4u);
  EXPECT_LT(stored, 40u);
  EXPECT_LE(zram.stored_bytes(), config.capacity_bytes);
  EXPECT_FALSE(zram.HasRoom());
}

TEST(Zram, DropMakesRoomAgain) {
  ZramConfig config;
  config.capacity_bytes = 16 * 1024;
  Zram zram(config, Rng(4));
  AddressSpace space(1, 1, "t", AnonLayout(100));
  std::vector<uint32_t> stored;
  for (uint32_t i = 0; i < 100; ++i) {
    if (!zram.Store(space, &space.page(i))) {
      break;
    }
    stored.push_back(i);
  }
  ASSERT_FALSE(zram.HasRoom());
  for (uint32_t i : stored) {
    zram.Drop(&space.page(i));
  }
  EXPECT_TRUE(zram.HasRoom());
  EXPECT_EQ(zram.stored_bytes(), 0u);
}

TEST(Zram, UtilizationReflectsFill) {
  ZramConfig config;
  config.capacity_bytes = 1 * kMiB;
  Zram zram(config, Rng(5));
  EXPECT_DOUBLE_EQ(zram.utilization(), 0.0);
  AddressSpace space(1, 1, "t", AnonLayout(10));
  zram.Store(space, &space.page(0));
  EXPECT_GT(zram.utilization(), 0.0);
  zram.Drop(&space.page(0));
}

TEST(Zram, CostsConfigured) {
  ZramConfig config;
  config.compress_us = Us(40);
  config.decompress_us = Us(12);
  Zram zram(config, Rng(6));
  EXPECT_EQ(zram.compress_cost(), Us(40));
  EXPECT_EQ(zram.decompress_cost(), Us(12));
}

// The compressed size and shadow cookie live outside the flag word of the
// packed 16-byte PageInfo; every flag mutation goes through the shared bit
// word. Regression for the bit-packing refactor: flipping every packed flag
// must leave zram accounting (and the cookie) untouched.
TEST(Zram, ZramBytesSurvivesBitPacking) {
  ZramConfig config;
  config.capacity_bytes = 1 * kMiB;
  Zram zram(config, Rng(7));
  AddressSpace space(1, 1, "t", AnonLayout(4));
  PageInfo* p = &space.page(0);
  ASSERT_TRUE(zram.Store(space, p));
  const uint32_t bytes = p->zram_bytes;
  ASSERT_GT(bytes, 0u);
  p->set_evict_cookie(0x1234567890abcdefull);

  p->set_state(PageState::kInZram);
  p->set_dirty(true);
  p->set_referenced(true);
  p->set_active(true);
  p->set_lru_linked(true);
  EXPECT_EQ(p->zram_bytes, bytes);
  EXPECT_EQ(p->evict_cookie(), 0x1234567890abcdefull);
  EXPECT_EQ(p->state(), PageState::kInZram);

  p->set_dirty(false);
  p->set_referenced(false);
  p->set_active(false);
  p->set_lru_linked(false);
  EXPECT_EQ(p->zram_bytes, bytes);
  EXPECT_EQ(zram.stored_bytes(), bytes);

  p->set_state(PageState::kPresent);
  zram.Drop(p);
  EXPECT_EQ(p->zram_bytes, 0u);
  EXPECT_EQ(zram.stored_bytes(), 0u);
}

// A fault on an in-zram page must charge the decompression latency to the
// faulting task's CPU time (the paper's motivation for limiting zram churn).
TEST(Zram, DecompressCostChargedOnZramFault) {
  Engine engine(1);
  MemConfig config;
  config.total_pages = 2000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.zram.capacity_bytes = 4 * kMiB;
  config.zram.decompress_us = Us(17);
  config.fault_fixed_cost = Us(8);
  config.reclaim_contention_mean = 0;  // Deterministic costs.
  MemoryManager mm(engine, config, nullptr);

  AddressSpaceLayout layout;
  layout.java_pages = 8;
  AddressSpace space(1, 1, "t", layout);
  mm.Register(space);
  mm.Access(space, 0, false, nullptr);
  ReclaimResult r = mm.ReclaimAllOf(space);
  ASSERT_EQ(r.reclaimed, 1u);
  ASSERT_EQ(space.page(0).state(), PageState::kInZram);

  AccessOutcome out = mm.Access(space, 0, false, nullptr);
  EXPECT_EQ(out.kind, AccessOutcome::Kind::kZramFault);
  EXPECT_EQ(out.cpu_us, Us(8) + Us(17));
  EXPECT_EQ(space.page(0).state(), PageState::kPresent);
  mm.Release(space);
}

}  // namespace
}  // namespace ice
