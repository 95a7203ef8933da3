// EventFn semantics: inline versus heap storage, moves, and release of the
// captured state.
#include "src/sim/event_fn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace ice {
namespace {

TEST(EventFn, SmallCapturesAreInline) {
  int x = 0;
  EventFn fn = [&x] { ++x; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(x, 1);
}

TEST(EventFn, MovedStdFunctionFitsInline) {
  int x = 0;
  std::function<void()> f = [&x] { x += 2; };
  EventFn fn = std::move(f);
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(x, 2);
}

TEST(EventFn, LargeCapturesFallBackToHeap) {
  struct Big {
    uint64_t payload[16];
  };
  Big big{};
  big.payload[0] = 7;
  int out = 0;
  EventFn fn = [big, &out] { out = static_cast<int>(big.payload[0]); };
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(out, 7);
}

TEST(EventFn, MoveTransfersOwnership) {
  int x = 0;
  EventFn a = [&x] { ++x; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 1);

  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(x, 2);
}

TEST(EventFn, ResetDestroysCapturedState) {
  auto token = std::make_shared<int>(42);
  EventFn fn = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  fn.reset();
  EXPECT_EQ(token.use_count(), 1);  // Capture released promptly.
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, DestructorReleasesHeapCallable) {
  auto token = std::make_shared<int>(7);
  struct Big {
    std::shared_ptr<int> t;
    uint64_t pad[16];
  };
  {
    EventFn fn = [big = Big{token, {}}] { (void)big.t; };
    EXPECT_FALSE(fn.is_inline());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace ice
