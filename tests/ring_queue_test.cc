// Property tests for sim::RingQueue, the FIFO behind soft::Pool's waiters
// and hw::Disk's request queue: long random interleavings of pushes, pops
// and middle erases are cross-checked against a std::deque oracle. The
// depth drifts up and down across many powers of two, so the head wraps
// around the slot array and the ring grows with live entries on both sides
// of the seam. The payload is move-only and counts its engaged instances,
// so a slot that keeps a removed entry alive, or loses a live one, fails
// the live-count check.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "sim/ring_queue.h"
#include "sim/rng.h"

namespace softres::sim {
namespace {

class Token {
 public:
  Token() = default;
  explicit Token(int v) : v_(v), engaged_(true) { ++live; }
  Token(Token&& o) noexcept : v_(o.v_), engaged_(o.engaged_) {
    o.engaged_ = false;
  }
  Token& operator=(Token&& o) noexcept {
    if (this != &o) {
      if (engaged_) --live;
      v_ = o.v_;
      engaged_ = o.engaged_;
      o.engaged_ = false;
    }
    return *this;
  }
  Token(const Token&) = delete;
  Token& operator=(const Token&) = delete;
  ~Token() {
    if (engaged_) --live;
  }

  int value() const { return engaged_ ? v_ : -1; }

  static inline int live = 0;

 private:
  int v_ = -1;
  bool engaged_ = false;
};

void expect_same(const RingQueue<Token>& ring, const std::deque<int>& oracle) {
  ASSERT_EQ(ring.size(), oracle.size());
  ASSERT_EQ(ring.empty(), oracle.empty());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(ring[i].value(), oracle[i]) << "at index " << i;
  }
  ASSERT_EQ(Token::live, static_cast<int>(oracle.size()));
}

class RingQueuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RingQueuePropertyTest, MatchesDequeOracle) {
  Rng rng(GetParam());
  RingQueue<Token> ring;
  std::deque<int> oracle;
  int next = 0;
  std::size_t max_capacity = 0;
  for (int round = 0; round < 8; ++round) {
    // Alternate filling and draining phases so the depth sweeps from empty
    // to a few hundred and back, wrapping the head each time.
    const double push_share = round % 2 == 0 ? 0.7 : 0.3;
    for (int op = 0; op < 1500; ++op) {
      const double u = rng.next_double();
      if (u < push_share || oracle.empty()) {
        ring.push_back(Token(next));
        oracle.push_back(next);
        ++next;
      } else if (u < push_share + 0.6 * (1.0 - push_share)) {
        ASSERT_EQ(ring.front().value(), oracle.front());
        Token t = std::move(ring.front());
        ring.pop_front();
        ASSERT_EQ(t.value(), oracle.front());
        oracle.pop_front();
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(oracle.size()) - 1));
        ring.erase(i);
        oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(i));
      }
      expect_same(ring, oracle);
      // Grow-only, power-of-two storage.
      ASSERT_GE(ring.capacity(), max_capacity);
      max_capacity = ring.capacity();
      ASSERT_EQ(max_capacity & (max_capacity - 1), 0u);
    }
  }
  while (!oracle.empty()) {
    ring.pop_front();
    oracle.pop_front();
    expect_same(ring, oracle);
  }
  EXPECT_EQ(ring.capacity(), max_capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingQueuePropertyTest,
                         ::testing::Values(1u, 42u, 2718u));

TEST(RingQueueTest, GrowthAcrossTheSeamKeepsFifoOrder) {
  RingQueue<Token> ring;
  std::deque<int> oracle;
  for (int i = 0; i < 16; ++i) {
    ring.push_back(Token(i));
    oracle.push_back(i);
  }
  // Move the head to the middle, refill past the seam, then grow while the
  // live entries straddle it.
  for (int i = 0; i < 10; ++i) {
    ring.pop_front();
    oracle.pop_front();
  }
  for (int i = 16; i < 60; ++i) {
    ring.push_back(Token(i));
    oracle.push_back(i);
  }
  expect_same(ring, oracle);
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(RingQueueTest, EraseFromEitherHalfKeepsTheRestInOrder) {
  RingQueue<Token> ring;
  std::deque<int> oracle;
  for (int i = 0; i < 9; ++i) {
    ring.push_back(Token(i));
    oracle.push_back(i);
  }
  for (std::size_t i : {1u, 6u, 0u, 5u}) {  // front half, back half, ends
    ring.erase(i);
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(i));
    expect_same(ring, oracle);
  }
  ring.erase(ring.size() - 1);
  oracle.pop_back();
  expect_same(ring, oracle);
}

TEST(RingQueueTest, EmptyQueueAllocatesNothing) {
  RingQueue<Token> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
}

}  // namespace
}  // namespace softres::sim
