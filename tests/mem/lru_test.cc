#include "src/mem/lru.h"

#include <gtest/gtest.h>

#include "src/mem/address_space.h"

namespace ice {
namespace {

class LruTest : public ::testing::Test {
 protected:
  LruTest() : space_(1, 1, "t", Layout()) {
    lru_.BindArena(&space_, space_.pages().data(),
                   static_cast<uint32_t>(space_.pages().size()));
  }

  static AddressSpaceLayout Layout() {
    AddressSpaceLayout layout;
    layout.java_pages = 8;
    layout.native_pages = 8;
    layout.file_pages = 16;
    return layout;
  }

  PageInfo* AnonPage(uint32_t i) { return &space_.page(i); }          // Java region.
  PageInfo* FilePage(uint32_t i) { return &space_.page(16 + i); }     // File region.

  AddressSpace space_;
  LruLists lru_;
};

TEST_F(LruTest, InsertGoesToActive) {
  lru_.Insert(AnonPage(0));
  EXPECT_EQ(lru_.active_size(LruPool::kAnon), 1u);
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 0u);
  EXPECT_TRUE(AnonPage(0)->active());
  lru_.Remove(AnonPage(0));
}

TEST_F(LruTest, PoolsAreSeparate) {
  lru_.Insert(AnonPage(0));
  lru_.Insert(FilePage(0));
  EXPECT_EQ(lru_.pool_size(LruPool::kAnon), 1u);
  EXPECT_EQ(lru_.pool_size(LruPool::kFile), 1u);
  EXPECT_EQ(lru_.total_size(), 2u);
  lru_.Remove(AnonPage(0));
  lru_.Remove(FilePage(0));
}

TEST_F(LruTest, BalanceDemotesToInactive) {
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  // inactive >= active / 2.
  EXPECT_GE(lru_.inactive_size(LruPool::kAnon) * 2, lru_.active_size(LruPool::kAnon));
  // Demotion clears the reference bit.
  for (uint32_t i = 0; i < 6; ++i) {
    if (!AnonPage(i)->active()) {
      EXPECT_FALSE(AnonPage(i)->referenced());
    }
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, IsolateTakesUnreferencedFromInactiveTail) {
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  size_t inactive = lru_.inactive_size(LruPool::kAnon);
  ASSERT_GT(inactive, 0u);
  std::vector<PageInfo*> victims;
  lru_.IsolateCandidates(LruPool::kAnon, 2, 8, nullptr, victims);
  EXPECT_EQ(victims.size(), std::min<size_t>(2, inactive));
  for (PageInfo* v : victims) {
    EXPECT_FALSE(v->lru_linked());
  }
  // Cleanup.
  for (PageInfo* v : victims) {
    lru_.PutBackInactive(v);
  }
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, SecondChancePromotesReferenced) {
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Insert(AnonPage(i));
  }
  lru_.Balance(LruPool::kAnon);
  // Touch every inactive page once: sets the reference bit.
  for (uint32_t i = 0; i < 6; ++i) {
    if (!AnonPage(i)->active()) {
      lru_.Touch(AnonPage(i));
    }
  }
  size_t active_before = lru_.active_size(LruPool::kAnon);
  std::vector<PageInfo*> victims;
  lru_.IsolateCandidates(LruPool::kAnon, 4, 16, nullptr, victims);
  // All inactive pages were referenced: none isolated, all promoted.
  EXPECT_TRUE(victims.empty());
  EXPECT_GT(lru_.active_size(LruPool::kAnon), active_before);
  for (uint32_t i = 0; i < 6; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, TouchPromotesInactiveOnSecondTouch) {
  lru_.Insert(AnonPage(0));
  lru_.Balance(LruPool::kAnon);
  // Force into inactive.
  if (AnonPage(0)->active()) {
    lru_.Remove(AnonPage(0));
    lru_.PutBackInactive(AnonPage(0));
  }
  ASSERT_FALSE(AnonPage(0)->active());
  lru_.Touch(AnonPage(0));  // Sets reference bit.
  EXPECT_FALSE(AnonPage(0)->active());
  lru_.Touch(AnonPage(0));  // Promotes.
  EXPECT_TRUE(AnonPage(0)->active());
  lru_.Remove(AnonPage(0));
}

TEST_F(LruTest, VictimFilterRotatesProtectedPages) {
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Insert(AnonPage(i));
    lru_.Remove(AnonPage(i));
    lru_.PutBackInactive(AnonPage(i));  // All inactive, unreferenced.
  }
  auto protect_all = [](const AddressSpace&, const PageInfo&) { return true; };
  std::vector<PageInfo*> victims;
  lru_.IsolateCandidates(LruPool::kAnon, 4, 16, protect_all, victims);
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 4u);  // Rotated, not evicted.
  for (uint32_t i = 0; i < 4; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, ScanBudgetBoundsWork) {
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Insert(AnonPage(i));
    lru_.Remove(AnonPage(i));
    lru_.PutBackInactive(AnonPage(i));
    AnonPage(i)->set_referenced(true);  // Everything referenced: all rotate.
  }
  std::vector<PageInfo*> victims;
  lru_.IsolateCandidates(LruPool::kAnon, 8, 3, nullptr, victims);
  EXPECT_TRUE(victims.empty());
  // Only 3 pages were scanned (promoted); 5 remain inactive.
  EXPECT_EQ(lru_.inactive_size(LruPool::kAnon), 5u);
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, IsolateReturnsPagesExaminedNotIsolated) {
  // Promotions, rotations and isolations must all count as examined pages,
  // not just the victims. 8 anon pages, all inactive, scan order 0..7.
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Insert(AnonPage(i));
    lru_.Remove(AnonPage(i));
    lru_.PutBackInactive(AnonPage(i));  // Head-insert: the tail is page 0.
  }
  // Pages 0 and 1 (scanned first, from the tail) are referenced.
  AnonPage(0)->set_referenced(true);
  AnonPage(1)->set_referenced(true);
  // Pages 2 and 3 are filter-protected.
  auto filter = [](const AddressSpace& s, const PageInfo& p) {
    return s.VpnOf(p) == 2 || s.VpnOf(p) == 3;
  };
  std::vector<PageInfo*> victims;
  uint32_t examined = lru_.IsolateCandidates(LruPool::kAnon, 2, 32, filter, victims);
  // Scan order from the tail: 0 (promote), 1 (promote), 2 (rotate),
  // 3 (rotate), 4 (isolate), 5 (isolate) -> 6 pages examined, 2 isolated.
  EXPECT_EQ(victims.size(), 2u);
  EXPECT_EQ(examined, 6u);
  for (PageInfo* v : victims) {
    lru_.PutBackInactive(v);
  }
  for (uint32_t i = 0; i < 8; ++i) {
    lru_.Remove(AnonPage(i));
  }
}

TEST_F(LruTest, RemoveIsIdempotentWhenUnlinked) {
  lru_.Remove(AnonPage(0));  // Not linked: no-op, no crash.
  EXPECT_EQ(lru_.total_size(), 0u);
}

}  // namespace
}  // namespace ice
