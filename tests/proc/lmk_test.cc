#include "src/proc/lmk.h"

#include <gtest/gtest.h>

#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

MemConfig TinyConfig() {
  MemConfig config;
  config.total_pages = 2000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);  // low=100, min=80.
  config.zram.capacity_bytes = 0;         // Nothing reclaimable to zram.
  config.reclaim_contention_mean = 0;
  return config;
}

TEST(Lmk, OomHandlerKills) {
  Engine engine(1);
  BlockDevice storage(engine, Ufs21Profile());
  MemoryManager mm(engine, TinyConfig(), &storage);
  Lmk lmk(engine, mm);
  lmk.InstallOomHandler();

  int kills = 0;
  AddressSpaceLayout layout;
  layout.native_pages = 1900;
  AddressSpace space(1, 1, "hog", layout);
  mm.Register(space);
  lmk.set_kill_fn([&] {
    ++kills;
    return true;  // "Killed" something; pressure relief comes separately.
  });
  for (uint32_t vpn = 0; vpn < 1790; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  EXPECT_GT(kills, 0);
  EXPECT_EQ(engine.stats().Get(stat::kLmkKills), static_cast<uint64_t>(kills));
  mm.Release(space);
}

TEST(Lmk, PeriodicCheckFiresUnderSustainedPressure) {
  Engine engine(1);
  BlockDevice storage(engine, Ufs21Profile());
  MemoryManager mm(engine, TinyConfig(), &storage);
  Lmk lmk(engine, mm);

  AddressSpaceLayout layout;
  layout.native_pages = 1900;
  AddressSpace space(1, 1, "hog", layout);
  mm.Register(space);
  int kills = 0;
  lmk.set_kill_fn([&] {
    ++kills;
    return true;
  });
  for (uint32_t vpn = 0; vpn < 1725; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  ASSERT_LE(mm.free_pages(), static_cast<int64_t>(mm.watermarks().min));
  engine.RunFor(Sec(2));
  EXPECT_GT(kills, 0);
  mm.Release(space);
}

TEST(Lmk, KillsAreThrottled) {
  Engine engine(1);
  BlockDevice storage(engine, Ufs21Profile());
  MemoryManager mm(engine, TinyConfig(), &storage);
  Lmk lmk(engine, mm);

  AddressSpaceLayout layout;
  layout.native_pages = 1900;
  AddressSpace space(1, 1, "hog", layout);
  mm.Register(space);
  int kills = 0;
  lmk.set_kill_fn([&] {
    ++kills;
    return true;  // Claims success but frees nothing: pressure persists.
  });
  for (uint32_t vpn = 0; vpn < 1725; ++vpn) {
    mm.Access(space, vpn, false, nullptr);
  }
  engine.RunFor(Sec(2));
  // At most ~4 kills in 2 s with the 500 ms throttle.
  EXPECT_LE(kills, 5);
  EXPECT_GE(kills, 2);
  mm.Release(space);
}

TEST(Lmk, NoKillsWithoutPressure) {
  Engine engine(1);
  BlockDevice storage(engine, Ufs21Profile());
  MemoryManager mm(engine, TinyConfig(), &storage);
  Lmk lmk(engine, mm);
  int kills = 0;
  lmk.set_kill_fn([&] {
    ++kills;
    return true;
  });
  engine.RunFor(Sec(2));
  EXPECT_EQ(kills, 0);
}

}  // namespace
}  // namespace ice
