#include "src/mem/shadow.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/address_space.h"

namespace ice {
namespace {

AddressSpaceLayout SmallLayout() {
  AddressSpaceLayout layout;
  layout.java_pages = 4;
  layout.native_pages = 4;
  layout.file_pages = 4;
  return layout;
}

class Recorder : public RefaultListener {
 public:
  void OnRefault(const RefaultEvent& event) override { events.push_back(event); }
  std::vector<RefaultEvent> events;
};

TEST(Shadow, EvictionStampsCookie) {
  ShadowRegistry shadow;
  AddressSpace space(10, 100, "t", SmallLayout());
  PageInfo* p = &space.page(0);
  EXPECT_EQ(p->evict_cookie(), 0u);
  shadow.RecordEviction(p);
  EXPECT_EQ(p->evict_cookie(), 1u);
  EXPECT_EQ(shadow.eviction_sequence(), 1u);
}

TEST(Shadow, RefaultDistance) {
  ShadowRegistry shadow;
  AddressSpace space(10, 100, "t", SmallLayout());
  PageInfo* a = &space.page(0);
  PageInfo* b = &space.page(1);
  shadow.RecordEviction(a);  // seq 1
  shadow.RecordEviction(b);  // seq 2
  shadow.RecordEviction(&space.page(2));  // seq 3
  RefaultEvent ev = shadow.RecordRefault(a, space, Us(500), false);
  // Two pages were evicted after `a`.
  EXPECT_EQ(ev.distance, 2u);
  EXPECT_EQ(ev.pid, 10);
  EXPECT_EQ(ev.uid, 100);
  EXPECT_EQ(ev.time, Us(500));
  EXPECT_EQ(a->evict_cookie(), 0u);  // Cleared after refault.
}

TEST(Shadow, ListenersNotified) {
  ShadowRegistry shadow;
  Recorder recorder;
  shadow.AddListener(&recorder);
  AddressSpace space(10, 100, "t", SmallLayout());
  PageInfo* p = &space.page(5);  // Native heap region.
  shadow.RecordEviction(p);
  shadow.RecordRefault(p, space, Us(1), true);
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_TRUE(recorder.events[0].foreground);
  EXPECT_EQ(recorder.events[0].kind, HeapKind::kNativeHeap);
  shadow.RemoveListener(&recorder);
  shadow.RecordEviction(p);
  shadow.RecordRefault(p, space, Us(2), false);
  EXPECT_EQ(recorder.events.size(), 1u);
}

TEST(Shadow, RefaultCountAccumulates) {
  ShadowRegistry shadow;
  AddressSpace space(10, 100, "t", SmallLayout());
  for (uint32_t i = 0; i < 4; ++i) {
    shadow.RecordEviction(&space.page(i));
    shadow.RecordRefault(&space.page(i), space, Us(i), false);
  }
  EXPECT_EQ(shadow.refault_count(), 4u);
}

TEST(Shadow, KindClassification) {
  ShadowRegistry shadow;
  Recorder recorder;
  shadow.AddListener(&recorder);
  AddressSpace space(10, 100, "t", SmallLayout());
  PageInfo* java = &space.page(0);
  PageInfo* file = &space.page(9);
  shadow.RecordEviction(java);
  shadow.RecordEviction(file);
  shadow.RecordRefault(java, space, Us(1), false);
  shadow.RecordRefault(file, space, Us(2), false);
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0].kind, HeapKind::kJavaHeap);
  EXPECT_EQ(recorder.events[1].kind, HeapKind::kFile);
  shadow.RemoveListener(&recorder);
}

}  // namespace
}  // namespace ice
