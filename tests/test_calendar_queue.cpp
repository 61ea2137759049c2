// calendar_queue: the simulator's event queue.  The contract the dense-core
// rewrite must keep is exact (at, seq) lexicographic pop order — byte-equal
// to the binary heap it replaced — including events that overflow the
// near-future ring into the far-future heap and migrate back as the window
// slides.
#include <gtest/gtest.h>

#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/scheduler.h"

namespace asyncrd {
namespace {

struct ev {
  sim::sim_time at;
  std::uint64_t seq;
};

struct after {
  bool operator()(const ev& a, const ev& b) const noexcept {
    return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
  }
};

using queue_t = sim::calendar_queue<ev, after>;
using ref_t = std::priority_queue<ev, std::vector<ev>, after>;

TEST(CalendarQueue, StartsEmpty) {
  queue_t q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.overflowed(), 0u);
}

TEST(CalendarQueue, SameTickPopsInSeqOrder) {
  queue_t q;
  for (std::uint64_t s = 0; s < 100; ++s) q.push({5, s});
  EXPECT_EQ(q.size(), 100u);
  for (std::uint64_t s = 0; s < 100; ++s) {
    const ev e = q.pop();
    EXPECT_EQ(e.at, 5u);
    EXPECT_EQ(e.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, FarFutureEventsOverflowAndComeBack) {
  queue_t q(/*window_log2=*/4);  // 16-tick window: easy to overflow
  q.push({2, 0});
  q.push({1'000'000, 1});  // way past the window: parks in the heap
  q.push({3, 2});
  EXPECT_EQ(q.overflowed(), 1u);
  EXPECT_EQ(q.pop().at, 2u);
  EXPECT_EQ(q.pop().at, 3u);
  // Ring drained: pop jumps straight to the far-future event.
  const ev e = q.pop();
  EXPECT_EQ(e.at, 1'000'000u);
  EXPECT_EQ(e.seq, 1u);
  EXPECT_EQ(q.overflowed(), 0u);
  EXPECT_TRUE(q.empty());
}

// The load-bearing property: any interleaving of pushes (never in the past)
// and pops yields exactly the order a binary heap on (at, seq) yields.
TEST(CalendarQueue, MatchesHeapOrderUnderRandomizedWorkload) {
  queue_t q(/*window_log2=*/6);  // small window: overflow path exercised
  ref_t ref;
  rng r(1234);
  sim::sim_time now = 0;
  std::uint64_t seq = 0;
  int pops = 0;
  for (int step = 0; step < 20'000; ++step) {
    const bool push = ref.empty() || r.below(100) < 55;
    if (push) {
      // Mostly small delays (the simulator's regime), occasionally a
      // heavy-tail straggler far beyond the ring window.
      const sim::sim_time d = r.below(20) == 0
                                  ? 1 + r.below(10000)
                                  : 1 + r.below(8);
      const ev e{now + d, seq++};
      q.push(e);
      ref.push(e);
    } else {
      const ev expect = ref.top();
      ref.pop();
      const ev got = q.pop();
      ASSERT_EQ(got.at, expect.at) << "pop " << pops;
      ASSERT_EQ(got.seq, expect.seq) << "pop " << pops;
      now = got.at;  // simulated time advances to the popped event
      ++pops;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    const ev expect = ref.top();
    ref.pop();
    const ev got = q.pop();
    ASSERT_EQ(got.at, expect.at);
    ASSERT_EQ(got.seq, expect.seq);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 1000);
}

TEST(CalendarQueue, WindowSlideMigratesHeapEventsBeforeTheirTick) {
  queue_t q(/*window_log2=*/3);  // 8-tick window
  // One event per tick so popping slides the window one tick at a time.
  for (std::uint64_t t = 0; t < 8; ++t) q.push({t, t});
  q.push({9, 100});   // just outside [0, 8): overflows
  q.push({20, 101});  // far outside: overflows
  EXPECT_EQ(q.overflowed(), 2u);
  for (std::uint64_t t = 0; t < 8; ++t) EXPECT_EQ(q.pop().at, t);
  // Sliding past tick 1 brought {9} into the ring before it was popped.
  EXPECT_EQ(q.pop().at, 9u);
  EXPECT_EQ(q.pop().at, 20u);
  EXPECT_TRUE(q.empty());
}

// A drained bucket frees its buffer: once a 10k-event burst at one tick
// has popped, the queue holds only its bucket array, as when it was new.
// (Clearing instead kept each bucket at the largest tick it ever held.)
TEST(CalendarQueue, DrainedBucketHoldsNoBuffer) {
  queue_t q;
  const std::size_t bucket_array = q.bucket_bytes();
  for (std::uint64_t s = 0; s < 10'000; ++s) q.push({7, s});
  EXPECT_GE(q.bucket_bytes(), bucket_array + 10'000 * sizeof(ev));
  for (std::uint64_t s = 0; s < 10'000; ++s) EXPECT_EQ(q.pop().seq, s);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bucket_bytes(), bucket_array);
  EXPECT_EQ(q.overflow_bytes(), 0u);
}

// Regression: push() used to *assert* (compiled away under NDEBUG) that an
// event is not scheduled in the past.  The ring is modular, so a past-time
// event would land in a future bucket and pop out of order up to a whole
// window late — silent (at, seq) order corruption.  The check is now an
// always-on ASYNCRD_CHECK and must abort in every build type.
TEST(CalendarQueueDeathTest, PushIntoThePastAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  queue_t q;
  for (std::uint64_t t = 0; t < 10; ++t) q.push({t, t});
  while (!q.empty() && q.pop().at < 5) {
  }
  // base_ has advanced past tick 5; tick 2 is in the past.
  EXPECT_DEATH(q.push({2, 999}), "scheduled in the past");
}

}  // namespace
}  // namespace asyncrd
