// Storage paths of sim::InlineFunction, the event loop's callback type.
// Trivially copyable captures of up to kInlineFunctionCapacity bytes live in
// the callback itself; anything else is boxed once on the heap and its
// pointer rides every move. The boxed path has no traffic in a trial, so
// these tests are what keep it honest: a box must survive moves intact and
// be freed exactly once, whichever way the callback lets go of it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/inline_callback.h"

namespace softres::sim {
namespace {

using Callback = InlineCallback;

TEST(InlineCallbackTest, TrivialCapturesUpToTheBudgetStoreInline) {
  int a = 1;
  long b = 2;
  void* c = nullptr;
  const auto eight = [&a] { ++a; };
  const auto sixteen = [&a, b] { a += static_cast<int>(b); };
  const auto twenty_four = [&a, b, c] {
    a += static_cast<int>(b) + (c ? 1 : 0);
  };
  static_assert(sizeof(twenty_four) == kInlineFunctionCapacity);
  static_assert(Callback::stores_inline<decltype(eight)>());
  static_assert(Callback::stores_inline<decltype(sixteen)>());
  static_assert(Callback::stores_inline<decltype(twenty_four)>());

  // Past the budget, or with one non-trivially-copyable member, a capture
  // is boxed.
  [[maybe_unused]] const auto thirty_two = [&a, b, c, d = b] {
    a += static_cast<int>(b + d) + (c ? 1 : 0);
  };
  [[maybe_unused]] const auto shared = [p = std::make_shared<int>(0)] {
    ++*p;
  };
  static_assert(!Callback::stores_inline<decltype(thirty_two)>());
  static_assert(!Callback::stores_inline<decltype(shared)>());

  Callback fs[3] = {eight, sixteen, twenty_four};
  for (Callback& f : fs) {
    Callback g = std::move(f);
    Callback h;
    h = std::move(g);
    EXPECT_FALSE(f);
    EXPECT_FALSE(g);
    ASSERT_TRUE(h);
    h();
  }
  EXPECT_EQ(a, 1 + 1 + 2 + 2);
}

TEST(InlineCallbackTest, BoxedCaptureSurvivesMoves) {
  const auto count = std::make_shared<int>(0);
  Callback f = [count] { ++*count; };
  EXPECT_EQ(count.use_count(), 2);  // the caller's and the box's
  Callback g = std::move(f);
  Callback h = std::move(g);
  Callback k;
  k = std::move(h);
  EXPECT_FALSE(f);
  EXPECT_FALSE(g);
  EXPECT_FALSE(h);
  EXPECT_EQ(count.use_count(), 2);  // moves relocate the box, never copy it
  k();
  k();
  EXPECT_EQ(*count, 2);
}

TEST(InlineCallbackTest, BoxFreedOnceOnReset) {
  const auto token = std::make_shared<int>(0);
  Callback f = [token] { ++*token; };
  Callback g = std::move(f);
  EXPECT_EQ(token.use_count(), 2);
  g.reset();
  EXPECT_FALSE(g);
  EXPECT_EQ(token.use_count(), 1);
  g.reset();  // already empty: nothing left to free
  f = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallbackTest, BoxFreedOnceOnMoveAssignment) {
  const auto old_token = std::make_shared<int>(0);
  const auto new_token = std::make_shared<int>(0);
  Callback f = [old_token] { ++*old_token; };
  Callback g = [new_token] { ++*new_token; };
  f = std::move(g);  // frees the old box, adopts the new one
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(new_token.use_count(), 2);
  f();
  EXPECT_EQ(*new_token, 1);
  EXPECT_EQ(*old_token, 0);
}

TEST(InlineCallbackTest, BoxFreedOnceOnDestruction) {
  const auto token = std::make_shared<int>(0);
  {
    Callback f = [token] { ++*token; };
    Callback g = std::move(f);  // the moved-from f must not free it too
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallbackTest, OverAlignedCaptureIsBoxedAligned) {
  struct alignas(64) Wide {
    std::uint64_t v[8] = {};
  };
  Wide w;
  w.v[7] = 41;
  std::uintptr_t addr = 0;
  std::uint64_t seen = 0;
  auto fn = [w, &addr, &seen]() mutable {
    addr = reinterpret_cast<std::uintptr_t>(&w);
    seen = w.v[7] + 1;
  };
  static_assert(!Callback::stores_inline<decltype(fn)>());
  Callback f = fn;
  Callback g = std::move(f);
  g();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(addr % alignof(Wide), 0u);
}

}  // namespace
}  // namespace softres::sim
