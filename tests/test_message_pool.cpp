// Pooled message allocation: make_message routes control block + payload
// through a thread-local size-classed free list.  The properties under test:
// blocks recycle instead of returning to the heap, trim() releases them, the
// oversize path falls back to the heap cleanly, and pooled messages behave
// like ordinary shared_ptrs (aliasing, cross-thread release).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/messages.h"
#include "sim/message.h"
#include "telemetry/metrics.h"

namespace asyncrd {
namespace {

TEST(MessagePool, FreedBlocksAreCachedAndReused) {
  sim::pool_detail::trim();
  {
    const auto m = sim::make_message<core::search_msg>(1, 2, 3, true);
    EXPECT_EQ(m->type_name(), "search");
  }
  // The drop parked the block in the thread-local cache...
  const std::size_t cached = sim::pool_detail::cached_blocks();
  EXPECT_GE(cached, 1u);
  // ...and the next same-class allocation consumes it rather than growing
  // the cache further.
  const auto m2 = sim::make_message<core::search_msg>(4, 5, 6, false);
  EXPECT_EQ(sim::pool_detail::cached_blocks(), cached - 1);
  EXPECT_EQ(static_cast<const core::search_msg&>(*m2).initiator, 4u);
}

TEST(MessagePool, TrimReleasesEverything) {
  {
    const auto m = sim::make_message<core::release_msg>(
        1, 2, core::release_msg::answer_t::merge, 3);
  }
  EXPECT_GE(sim::pool_detail::cached_blocks(), 1u);
  sim::pool_detail::trim();
  EXPECT_EQ(sim::pool_detail::cached_blocks(), 0u);
}

TEST(MessagePool, OversizeAllocationsBypassThePool) {
  sim::pool_detail::trim();
  // Way above the largest size class: straight operator new/delete.
  void* p = sim::pool_detail::allocate(1 << 16);
  ASSERT_NE(p, nullptr);
  sim::pool_detail::deallocate(p, 1 << 16);
  EXPECT_EQ(sim::pool_detail::cached_blocks(), 0u);
}

TEST(MessagePool, PooledMessagesSurviveSharing) {
  // A parked copy (the simulator holds messages in channel queues) keeps
  // the block alive through the pool allocator exactly like the heap would.
  sim::message_ptr held;
  {
    const auto m = sim::make_message<core::info_msg>(
        1, core::id_vec{1, 2}, core::id_vec{3}, core::id_vec{},
        core::id_vec{4});
    held = m;
  }
  EXPECT_EQ(held->type_name(), "info");
  EXPECT_EQ(held->id_fields(), 4u);
}

TEST(MessagePool, CrossThreadFreeMigratesNotCorrupts) {
  // Allocate on this thread, release on another: the block simply joins the
  // other thread's pool (memory is plain operator-new memory).  A burst of
  // such messages must not corrupt either pool.
  std::vector<sim::message_ptr> batch;
  batch.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    batch.push_back(sim::make_message<core::search_msg>(
        static_cast<node_id>(i), 1, static_cast<node_id>(i + 1), false));
  std::thread t([moved = std::move(batch)]() mutable { moved.clear(); });
  t.join();
  // This thread's pool still works.
  const auto m = sim::make_message<core::search_msg>(9, 9, 9, true);
  EXPECT_EQ(static_cast<const core::search_msg&>(*m).initiator, 9u);
}

TEST(MessagePool, ThreadByteCapSpillsOverflowToGlobalReclaim) {
  // A one-way free flow (one thread allocates, another frees) must not grow
  // the freeing thread's cache without bound: the per-thread byte cap spills.
  sim::pool_detail::trim();
  sim::pool_detail::trim_global();
  constexpr std::size_t block = 512;  // largest size class
  constexpr std::size_t n = 3000;     // 1.5 MiB > the 1 MiB thread cap
  const std::uint64_t donations_before =
      sim::pool_detail::stats().reclaim_donations;
  std::vector<void*> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    blocks.push_back(sim::pool_detail::allocate(block));
  for (void* p : blocks) sim::pool_detail::deallocate(p, block);
  const auto st = sim::pool_detail::stats();
  EXPECT_LE(st.thread_cached_bytes, std::size_t{1} << 20);
  EXPECT_GT(st.reclaim_donations, donations_before);
  EXPECT_GT(st.global_cached_blocks, 0u);
  sim::pool_detail::trim();
  sim::pool_detail::trim_global();
}

TEST(MessagePool, LocalMissRefillsFromGlobalInBatches) {
  sim::pool_detail::trim();
  sim::pool_detail::trim_global();
  constexpr std::size_t block = 512;
  // Seed the global list by overflowing the thread byte cap (1 MiB of
  // 512-byte blocks is 2048; everything past that spills), then trim the
  // local cache so only the global copies remain.
  std::vector<void*> blocks;
  blocks.reserve(3000);
  for (std::size_t i = 0; i < 3000; ++i)
    blocks.push_back(sim::pool_detail::allocate(block));
  for (void* p : blocks) sim::pool_detail::deallocate(p, block);
  sim::pool_detail::trim();
  ASSERT_GE(sim::pool_detail::stats().global_cached_blocks, 64u);
  const std::uint64_t grabs_before = sim::pool_detail::stats().reclaim_grabs;
  // One allocation on an empty local cache pulls a whole batch across.
  void* p = sim::pool_detail::allocate(block);
  ASSERT_NE(p, nullptr);
  const auto st = sim::pool_detail::stats();
  EXPECT_EQ(st.reclaim_grabs, grabs_before + 64);
  EXPECT_EQ(st.thread_cached_blocks, 63u);  // batch minus the one returned
  sim::pool_detail::deallocate(p, block);
  sim::pool_detail::trim();
  sim::pool_detail::trim_global();
  EXPECT_EQ(sim::pool_detail::stats().global_cached_blocks, 0u);
}

TEST(MessagePool, RecordPoolExposesReclaimTelemetry) {
  telemetry::registry reg;
  sim::pool_detail::pool_stats ps;
  ps.thread_cached_blocks = 7;
  ps.thread_cached_bytes = 4096;
  ps.global_cached_blocks = 3;
  ps.reclaim_donations = 11;
  ps.reclaim_grabs = 5;
  telemetry::record_pool(reg, "pool", ps);
  EXPECT_EQ(reg.gauges().at("pool.thread_cached_blocks").value(), 7.0);
  EXPECT_EQ(reg.gauges().at("pool.thread_cached_bytes").value(), 4096.0);
  EXPECT_EQ(reg.gauges().at("pool.global_cached_blocks").value(), 3.0);
  EXPECT_EQ(reg.gauges().at("pool.reclaim_donations").value(), 11.0);
  EXPECT_EQ(reg.gauges().at("pool.reclaim_grabs").value(), 5.0);
}

TEST(MessagePool, DispatchTagsSurvivePooledConstruction) {
  // The dense receive path switches on dispatch_tag; pooled construction
  // must deliver fully-constructed tagged messages.
  const auto q = sim::make_message<core::query_msg>(2);
  const auto s = sim::make_message<core::search_msg>(1, 2, 3, true);
  EXPECT_EQ(q->dispatch_tag(), core::tag_of(core::msg_kind::query));
  EXPECT_EQ(s->dispatch_tag(), core::tag_of(core::msg_kind::search));
  EXPECT_NE(q->dispatch_tag(), s->dispatch_tag());
  EXPECT_NE(q->dispatch_tag(), 0);  // 0 is reserved for untagged/foreign
}

}  // namespace
}  // namespace asyncrd
