#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "core/runner.h"
#include "graph/topology.h"
#include "sim/event_log.h"

// --- Allocation accounting --------------------------------------------------
// This test binary replaces the global allocator with a counting forwarder so
// the regression below can prove that ring queries (at / visit / count_*)
// never allocate — the exact guarantee that distinguishes them from the
// linearizing events()/of_kind()/touching() copies.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asyncrd {
namespace {

sim::event_log run_logged(const graph::digraph& g, std::size_t capacity) {
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  sim::event_log log(capacity);
  run.net().add_observer(&log);
  run.wake_all();
  run.run();
  return log;
}

TEST(EventLog, RecordsWakesSendsDeliveries) {
  const auto log = run_logged(graph::directed_path(4), 1 << 16);
  EXPECT_EQ(log.of_kind(sim::logged_event::kind::wake).size(), 4u);
  const auto sends = log.of_kind(sim::logged_event::kind::send);
  const auto delivers = log.of_kind(sim::logged_event::kind::deliver);
  EXPECT_FALSE(sends.empty());
  EXPECT_EQ(sends.size(), delivers.size());  // reliable network
}

TEST(EventLog, EverySendIsEventuallyDelivered) {
  const auto log =
      run_logged(graph::random_weakly_connected(20, 30, 4), 1 << 18);
  std::multiset<std::tuple<node_id, node_id, std::string>> sent, got;
  for (const auto& e : log.events()) {
    if (e.what == sim::logged_event::kind::send)
      sent.insert({e.from, e.to, e.type});
    else if (e.what == sim::logged_event::kind::deliver)
      got.insert({e.from, e.to, e.type});
  }
  EXPECT_EQ(sent, got);
}

TEST(EventLog, TimesAreMonotonic) {
  const auto log = run_logged(graph::star_out(10), 1 << 16);
  sim::sim_time prev = 0;
  for (const auto& e : log.events()) {
    EXPECT_GE(e.at, prev);
    prev = e.at;
  }
}

TEST(EventLog, TouchingFiltersByNode) {
  const auto log = run_logged(graph::directed_path(3), 1 << 16);
  for (const auto& e : log.touching(1))
    EXPECT_TRUE(e.from == 1 || e.to == 1);
  EXPECT_FALSE(log.touching(1).empty());
}

TEST(EventLog, CapacityDropsAreCounted) {
  const auto log = run_logged(graph::random_weakly_connected(15, 20, 2), 8);
  EXPECT_EQ(log.events().size(), 8u);
  EXPECT_GT(log.dropped(), 0u);
}

TEST(EventLog, RingRetainsNewestWithExactDropCount) {
  sim::event_log log(4);
  for (sim::sim_time t = 0; t < 10; ++t)
    log.on_wake(t, static_cast<node_id>(t));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);  // 10 pushed, 4 retained
  const auto evs = log.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    // Oldest-first iteration over the newest window: times 6..9.
    EXPECT_EQ(evs[i].at, static_cast<sim::sim_time>(6 + i));
    EXPECT_EQ(evs[i].to, static_cast<node_id>(6 + i));
  }
}

/// Minimal concrete message for driving the log directly.
class stub_msg final : public sim::message {
 public:
  explicit stub_msg(std::string name) : name_(std::move(name)) {}
  std::string_view type_name() const noexcept override { return name_; }
  std::size_t id_fields() const noexcept override { return 1; }

 private:
  std::string name_;
};

TEST(EventLog, OverflowKeepsFiltersAndRenderConsistent) {
  sim::event_log log(3);
  const stub_msg search("search"), info("info");
  log.on_wake(0, 0);
  log.on_send(1, 0, 1, search);
  log.on_deliver(2, 0, 1, search);
  log.on_send(3, 1, 2, info);  // evicts the wake
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_TRUE(log.of_kind(sim::logged_event::kind::wake).empty());
  EXPECT_EQ(log.of_kind(sim::logged_event::kind::send).size(), 2u);
  std::ostringstream ss;
  log.render(ss);
  EXPECT_NE(ss.str().find("1 older events dropped"), std::string::npos);
}

TEST(EventLog, ZeroCapacityDropsEverything) {
  sim::event_log log(0);
  log.on_wake(1, 1);
  log.on_wake(2, 2);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, RenderProducesReadableLines) {
  const auto log = run_logged(graph::directed_path(3), 1 << 16);
  std::ostringstream ss;
  log.render(ss, 10);
  const std::string out = ss.str();
  EXPECT_NE(out.find("wake"), std::string::npos);
  EXPECT_NE(out.find("deliver"), std::string::npos);
  EXPECT_NE(out.find("t="), std::string::npos);
}

TEST(EventLog, ClearResets) {
  auto log = run_logged(graph::directed_path(3), 1 << 16);
  log.clear();
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogQueries, AtIndexesOldestFirstAcrossTheWrap) {
  sim::event_log log(4);
  for (sim::sim_time t = 0; t < 10; ++t)
    log.on_wake(t, static_cast<node_id>(t));
  const auto copied = log.events();
  ASSERT_EQ(copied.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.at(i).at, copied[i].at);
    EXPECT_EQ(log.at(i).to, copied[i].to);
  }
}

TEST(EventLogQueries, VisitMatchesEventsAndStopsEarly) {
  const auto log = run_logged(graph::random_weakly_connected(10, 12, 6), 64);
  const auto copied = log.events();
  std::size_t i = 0;
  log.visit([&](const sim::logged_event& e) {
    ASSERT_LT(i, copied.size());
    EXPECT_EQ(e.at, copied[i].at);
    EXPECT_EQ(e.type, copied[i].type);
    ++i;
  });
  EXPECT_EQ(i, copied.size());

  // A bool-returning visitor stops at the first false.
  std::size_t seen = 0;
  log.visit([&](const sim::logged_event&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3u);
}

TEST(EventLogQueries, CountsMatchTheLinearizedFilters) {
  const auto log =
      run_logged(graph::random_weakly_connected(12, 16, 9), 1 << 16);
  using kind = sim::logged_event::kind;
  for (const kind k : {kind::wake, kind::send, kind::deliver})
    EXPECT_EQ(log.count_of_kind(k), log.of_kind(k).size());
  for (node_id v = 0; v < 12; ++v)
    EXPECT_EQ(log.count_touching(v), log.touching(v).size());
}

TEST(EventLogQueries, MillionEventQueriesDoNotAllocate) {
  // Regression: events()/of_kind()/touching() linearize (copy every retained
  // event, strings included), which at 2^20 events is megabytes of churn per
  // query.  The index/visitor API must answer the same questions without a
  // single allocation.  The message type name is longer than any SSO buffer,
  // so accidentally copying even one element would trip the counter.
  const stub_msg msg("deliberately_long_message_type_name_defeating_sso");
  sim::event_log log(1 << 20);
  for (std::uint64_t i = 0; i < (1u << 20) + 50'000u; ++i) {
    const auto from = static_cast<node_id>(i % 32);
    const auto to = static_cast<node_id>((i + 1) % 32);
    switch (i % 3) {
      case 0: log.on_wake(static_cast<sim::sim_time>(i), to); break;
      case 1: log.on_send(static_cast<sim::sim_time>(i), from, to, msg); break;
      default:
        log.on_deliver(static_cast<sim::sim_time>(i), from, to, msg);
    }
  }
  ASSERT_EQ(log.size(), 1u << 20);
  ASSERT_GT(log.dropped(), 0u);

  using kind = sim::logged_event::kind;
  const std::uint64_t before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::size_t wakes = log.count_of_kind(kind::wake);
  const std::size_t sends = log.count_of_kind(kind::send);
  const std::size_t delivers = log.count_of_kind(kind::deliver);
  const std::size_t touching7 = log.count_touching(7);
  std::size_t visited = 0, touching7_by_hand = 0;
  sim::sim_time last_at = 0;
  log.visit([&](const sim::logged_event& e) {
    ++visited;
    last_at = e.at;
    if (e.from == 7 || e.to == 7) ++touching7_by_hand;
  });
  const sim::sim_time mid_at = log.at(log.size() / 2).at;
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "ring queries must not allocate";
  EXPECT_EQ(wakes + sends + delivers, log.size());
  EXPECT_EQ(visited, log.size());
  EXPECT_EQ(touching7, touching7_by_hand);
  EXPECT_GT(touching7, 0u);
  EXPECT_EQ(last_at, log.at(log.size() - 1).at);
  EXPECT_EQ(mid_at, log.at(log.size() / 2).at);
}

TEST(NewTopologies, HypercubeShape) {
  const auto g = graph::hypercube(5, 3);
  EXPECT_EQ(g.node_count(), 32u);
  EXPECT_EQ(g.edge_count(), 5u * 32u / 2u);  // one orientation per edge
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, GridShape) {
  const auto g = graph::grid(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_EQ(g.edge_count(), 4u * 4u + 3u * 5u);  // right + down edges
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, LayeredDagConnectedAndSized) {
  const auto g = graph::layered_dag(5, 6, 2, 7);
  EXPECT_EQ(g.node_count(), 30u);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, BowtieShape) {
  const auto g = graph::bowtie(5);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 2u * 20u + 1u);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, DiscoveryWorksOnAllOfThem) {
  for (const auto variant : {core::variant::generic, core::variant::bounded,
                             core::variant::adhoc}) {
    for (int which = 0; which < 4; ++which) {
      graph::digraph g;
      switch (which) {
        case 0: g = graph::hypercube(5, 1); break;
        case 1: g = graph::grid(5, 6); break;
        case 2: g = graph::layered_dag(4, 5, 2, 3); break;
        case 3: g = graph::bowtie(6); break;
      }
      const auto s = core::run_discovery(g, variant, 5);
      EXPECT_EQ(s.leaders.size(), 1u)
          << "variant " << core::to_string(variant) << " topo " << which;
      EXPECT_TRUE(s.completed);
    }
  }
}

}  // namespace
}  // namespace asyncrd
