#include "src/mem/address_space.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "src/mem/memory_manager.h"
#include "src/sim/engine.h"

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

// A new space's records are all zero, the fresh record: untouched,
// unlinked, never evicted. Vpn and heap kind come from the position.
bool IsZeroRecord(const PageInfo& p) {
  static const unsigned char kZero[sizeof(PageInfo)] = {};
  return std::memcmp(&p, kZero, sizeof(PageInfo)) == 0;
}

TEST(AddressSpace, PagesInitialized) {
  AddressSpace space(7, 10002, "app", SmallLayout());
  for (uint32_t vpn = 0; vpn < space.total_pages(); ++vpn) {
    const PageInfo& p = space.page(vpn);
    EXPECT_TRUE(IsZeroRecord(p)) << "vpn " << vpn;
    EXPECT_EQ(p.state(), PageState::kUntouched);
    EXPECT_FALSE(p.lru_linked());
    EXPECT_EQ(space.VpnOf(p), vpn);
    HeapKind want = vpn < 10 ? HeapKind::kJavaHeap
                    : vpn < 30 ? HeapKind::kNativeHeap
                               : HeapKind::kFile;
    EXPECT_EQ(space.KindOf(space.VpnOf(p)), want);
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
    const PageInfo& p = space.page(vpn);
    ASSERT_TRUE(IsZeroRecord(p)) << "vpn " << vpn;
    ASSERT_EQ(space.VpnOf(p), vpn);
  }
  EXPECT_EQ(space.KindOf(39999), HeapKind::kJavaHeap);
  EXPECT_EQ(space.KindOf(40000), HeapKind::kNativeHeap);
  EXPECT_EQ(space.KindOf(89999), HeapKind::kNativeHeap);
  EXPECT_EQ(space.KindOf(90000), HeapKind::kFile);
  EXPECT_EQ(space.KindOf(150000), HeapKind::kFile);
}

// Constructing and registering a space writes no record, so a touch of one
// page commits one arena page: a 2 MiB block where THP backs the interior,
// else one 4 KiB page (and one more, allowed for, if the record straddled).
TEST(AddressSpace, UntouchedRecordsAreNeverCommitted) {
#if defined(__linux__)
  AddressSpaceLayout layout;
  layout.java_pages = 40000;
  layout.native_pages = 50000;
  layout.file_pages = 60001;
  Engine engine(1);
  MemConfig config;
  MemoryManager mm(engine, config, /*storage=*/nullptr);
  AddressSpace space(1, 1, "big", layout);
  mm.Register(space);
  mm.Access(space, 100000, /*write=*/true, nullptr);

  const size_t host_page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  auto* begin = reinterpret_cast<unsigned char*>(space.pages().data());
  // 150,001 records: 586 4 KiB pages at 16 bytes a record, so the bound
  // below sits well under the arena and can fail.
  const size_t arena_pages =
      (space.total_pages() * sizeof(PageInfo) + host_page - 1) / host_page;
  ASSERT_GT(arena_pages, 513u);
  std::vector<unsigned char> resident(arena_pages);
  ASSERT_EQ(mincore(begin, arena_pages * host_page, resident.data()), 0);
  size_t committed = 0;
  for (unsigned char r : resident) {
    committed += r & 1;
  }
  EXPECT_GE(committed, 1u);
  EXPECT_LE(committed, 513u) << committed << " of " << arena_pages << " arena pages resident";
  mm.Release(space);
#else
  GTEST_SKIP() << "mincore residency is checked on Linux only";
#endif
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
