#include "src/mem/address_space.h"

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <vector>

namespace ice {
namespace {

AddressSpaceLayout SmallLayout() {
  AddressSpaceLayout layout;
  layout.java_pages = 10;
  layout.native_pages = 20;
  layout.file_pages = 30;
  return layout;
}

TEST(AddressSpace, LayoutRegions) {
  AddressSpace space(100, 10001, "app", SmallLayout());
  EXPECT_EQ(space.total_pages(), 60u);
  EXPECT_EQ(space.java_begin(), 0u);
  EXPECT_EQ(space.java_end(), 10u);
  EXPECT_EQ(space.native_begin(), 10u);
  EXPECT_EQ(space.native_end(), 30u);
  EXPECT_EQ(space.file_begin(), 30u);
  EXPECT_EQ(space.file_end(), 60u);
}

TEST(AddressSpace, KindOfMatchesRegion) {
  AddressSpace space(100, 10001, "app", SmallLayout());
  EXPECT_EQ(space.KindOf(0), HeapKind::kJavaHeap);
  EXPECT_EQ(space.KindOf(9), HeapKind::kJavaHeap);
  EXPECT_EQ(space.KindOf(10), HeapKind::kNativeHeap);
  EXPECT_EQ(space.KindOf(29), HeapKind::kNativeHeap);
  EXPECT_EQ(space.KindOf(30), HeapKind::kFile);
  EXPECT_EQ(space.KindOf(59), HeapKind::kFile);
}

TEST(AddressSpace, PagesInitialized) {
  AddressSpace space(7, 10002, "app", SmallLayout());
  for (uint32_t vpn = 0; vpn < space.total_pages(); ++vpn) {
    const PageInfo& p = space.page(vpn);
    EXPECT_EQ(p.vpn, vpn);
    EXPECT_EQ(p.state(), PageState::kUntouched);
    EXPECT_EQ(p.kind(), space.KindOf(vpn));
  }
}

TEST(AddressSpace, IdentityAccessors) {
  AddressSpace space(42, 10099, "com.example", SmallLayout());
  EXPECT_EQ(space.pid(), 42);
  EXPECT_EQ(space.uid(), 10099);
  EXPECT_EQ(space.name(), "com.example");
}

TEST(AddressSpace, ResidencyCountersClamp) {
  AddressSpace space(1, 1, "x", SmallLayout());
  space.AddResident(5);
  EXPECT_EQ(space.resident(), 5u);
  space.AddResident(-5);
  EXPECT_EQ(space.resident(), 0u);
  space.AddEvicted(3);
  space.AddEvicted(-3);
  EXPECT_EQ(space.evicted(), 0u);
}

TEST(AddressSpace, BytesToPagesRounding) {
  EXPECT_EQ(BytesToPages(0), 0u);
  EXPECT_EQ(BytesToPages(1), 1u);
  EXPECT_EQ(BytesToPages(kPageSize), 1u);
  EXPECT_EQ(BytesToPages(kPageSize + 1), 2u);
  EXPECT_EQ(BytesToPages(kMiB), 256u);
}

TEST(AddressSpace, OwnsItsLru) {
  AddressSpace space(1, 1, "x", SmallLayout());
  EXPECT_EQ(space.lru().total_size(), 0u);
  space.lru().Insert(&space.page(0));
  EXPECT_EQ(space.lru().total_size(), 1u);
  space.lru().Remove(&space.page(0));
}

// The byte image of a freshly-constructed record: zero padding, as the
// sparse snapshot dump assumes for every record it leaves out.
std::vector<unsigned char> FreshBytes(uint32_t vpn, HeapKind kind) {
  alignas(PageInfo) unsigned char bytes[sizeof(PageInfo)] = {};
  PageInfo* p = new (bytes) PageInfo();
  p->vpn = vpn;
  p->set_kind(kind);
  return {bytes, bytes + sizeof(PageInfo)};
}

// Larger than 2 MiB, so the arena has a huge-page interior where THP is on.
TEST(AddressSpace, LargeArenaRecordsAreFreshBytes) {
  AddressSpaceLayout layout;
  layout.java_pages = 40000;
  layout.native_pages = 50000;
  layout.file_pages = 60001;
  AddressSpace space(1, 1, "big", layout);
  ASSERT_GT(space.arena_bytes(), size_t{2} << 20);
  EXPECT_EQ(space.arena_bytes(), space.total_pages() * sizeof(PageInfo));
  for (uint32_t vpn = 0; vpn < space.total_pages(); ++vpn) {
    std::vector<unsigned char> want = FreshBytes(vpn, space.KindOf(vpn));
    ASSERT_EQ(std::memcmp(want.data(), &space.page(vpn), sizeof(PageInfo)), 0) << "vpn " << vpn;
  }
}

// Synthetic apps have no service process pages: an empty layout maps
// nothing and must still construct and destroy cleanly.
TEST(AddressSpace, EmptyLayoutConstructsAndDestroys) {
  AddressSpace space(1, 1, "svc", AddressSpaceLayout{});
  EXPECT_EQ(space.total_pages(), 0u);
  EXPECT_EQ(space.arena_bytes(), 0u);
  EXPECT_TRUE(space.pages().empty());
  EXPECT_EQ(space.lru().total_size(), 0u);
  space.Prefetch(0);
}

#if defined(__SANITIZE_ADDRESS__)
#define ICE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ICE_TEST_ASAN 1
#endif
#endif

// Reading one record past the arena lands on the mapping's poisoned tail.
TEST(AddressSpaceDeathTest, OverrunPastLastRecordIsReported) {
#ifdef ICE_TEST_ASAN
  for (PageCount pages : {PageCount{60}, PageCount{128}, PageCount{150001}}) {
    AddressSpaceLayout layout;
    layout.file_pages = pages;
    AddressSpace space(1, 1, "app", layout);
    const volatile unsigned char* end =
        reinterpret_cast<const unsigned char*>(space.pages().data() + space.total_pages());
    EXPECT_DEATH(
        {
          unsigned char byte = *end;
          (void)byte;
        },
        "use-after-poison")
        << pages << " pages";
  }
#else
  GTEST_SKIP() << "overruns are reported only under AddressSanitizer";
#endif
}

}  // namespace
}  // namespace ice
