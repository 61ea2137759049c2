// Tests for the stall watchdog and the flight recorder: no false positives
// on healthy runs (clean and chaotic), a guaranteed trip on the
// phase-locked-retransmit livelock the watchdog exists to catch, the
// stopped-run plumbing, the flight ring's wrap-around bookkeeping, and the
// bench reporter's JSON escaping round-trip.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "../bench/bench_report.h"
#include "core/messages.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/flight_recorder.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/report.h"

namespace {

using namespace asyncrd;

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  sim::flight_recorder fr(8);
  EXPECT_EQ(fr.capacity(), 8u);
  for (std::uint64_t k = 0; k < 20; ++k)
    fr.record({k, k, sim::flight_entry::none, 1, 2,
               sim::flight_entry::kind::deliver, 3});
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.dropped(), 12u);
  for (std::size_t i = 0; i < fr.size(); ++i)
    EXPECT_EQ(fr.at(i).at, 12 + i);  // oldest first, newest last
  std::size_t visited = 0;
  fr.visit([&](const sim::flight_entry& e) {
    EXPECT_EQ(e.at, 12 + visited);
    ++visited;
  });
  EXPECT_EQ(visited, 8u);
  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorder, DumpJsonCarriesPerKindFields) {
  sim::flight_recorder fr(8);
  fr.record({5, 10, sim::flight_entry::none, 3, invalid_node,
             sim::flight_entry::kind::wake, 0});
  fr.record({6, 11, 10, 3, 4, sim::flight_entry::kind::deliver,
             static_cast<std::uint8_t>(core::msg_kind::query)});
  fr.record({7, sim::flight_entry::none, 42, invalid_node,
             invalid_node, sim::flight_entry::kind::timer, 0});
  const auto doc = telemetry::json_parse(telemetry::flight_dump_json(fr));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("kind")->as_string(), "flight");
  const auto& evs = doc->find("events")->as_array();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].find("kind")->as_string(), "wake");
  EXPECT_EQ(evs[0].find("node")->as_number(), 3.0);
  EXPECT_EQ(evs[0].find("cause"), nullptr);  // none == absent key
  EXPECT_EQ(evs[1].find("kind")->as_string(), "deliver");
  EXPECT_EQ(evs[1].find("type")->as_string(), "query");
  EXPECT_EQ(evs[1].find("cause")->as_number(), 10.0);
  EXPECT_EQ(evs[2].find("kind")->as_string(), "timer");
  EXPECT_EQ(evs[2].find("key")->as_number(), 42.0);
  EXPECT_EQ(evs[2].find("id"), nullptr);
}

TEST(DispatchTagName, CoversCoreAndLinkVocabulary) {
  EXPECT_EQ(telemetry::dispatch_tag_name(
                static_cast<std::uint8_t>(core::msg_kind::query)),
            "query");
  EXPECT_EQ(telemetry::dispatch_tag_name(
                static_cast<std::uint8_t>(core::msg_kind::report_ack)),
            "report_ack");
  EXPECT_EQ(telemetry::dispatch_tag_name(sim::rl_data_tag), "rl.data");
  EXPECT_EQ(telemetry::dispatch_tag_name(sim::rl_ack_tag), "rl.ack");
  EXPECT_EQ(telemetry::dispatch_tag_name(100), "tag:100");

  // Every core tag is named as its message names itself, so flight dumps
  // and profiles agree with sim::stats and the causal trace.
  const sim::message_ptr all[] = {
      sim::make_message<core::query_msg>(3),
      sim::make_message<core::query_reply_msg>(core::id_vec{4}, true),
      sim::make_message<core::search_msg>(7, 2, 11, true),
      sim::make_message<core::release_msg>(
          5, 3, core::release_msg::answer_t::merge, 7),
      sim::make_message<core::merge_accept_msg>(12, 4),
      sim::make_message<core::merge_fail_msg>(),
      sim::make_message<core::info_msg>(3, core::id_vec{1}, core::id_vec{},
                                        core::id_vec{}, core::id_vec{}),
      sim::make_message<core::conquer_msg>(9, 5),
      sim::make_message<core::member_reply_msg>(true),
      sim::make_message<core::probe_msg>(17),
      sim::make_message<core::probe_reply_msg>(3, 2, 17, core::id_vec{}),
      sim::make_message<core::report_msg>(6),
      sim::make_message<core::report_ack_msg>(3, 2, 6),
  };
  std::set<std::uint8_t> tags;
  for (const sim::message_ptr& m : all) {
    tags.insert(m->dispatch_tag());
    EXPECT_EQ(telemetry::dispatch_tag_name(m->dispatch_tag()), m->type_name());
  }
  EXPECT_EQ(tags.size(), 13u);  // one message per core tag
}

TEST(Watchdog, DerivesProbeIntervalFromWindow) {
  const auto g = graph::directed_path(3);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::stall_watchdog wd(run, {.window = 1000});
  EXPECT_EQ(wd.config().probe_interval, 250u);
  EXPECT_FALSE(wd.tripped());
}

TEST(Watchdog, NoFalsePositiveOnCleanUnitDelayRun) {
  const auto g = graph::random_weakly_connected(80, 100, 11);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = core::variant::generic;
  core::discovery_run run(g, cfg, sched);
  telemetry::recorder_options opts;
  opts.watchdog.window = 64;
  opts.watchdog.probe_interval = 8;
  opts.watchdog.abort_on_trip = true;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.stopped);
  ASSERT_NE(rec.watchdog(), nullptr);
  EXPECT_FALSE(rec.watchdog()->tripped());
}

// Drop + outage chaos recovers on its own (the jittered RTO guarantees
// progress); a watchdog window sized generously above the worst ARQ
// recovery gap must not trip.  The tail of such a run legitimately spends
// ~10 * rto_max ticks re-offering the final envelopes through a 30% lossy
// wire, so "generous" means well beyond that (docs/OBSERVABILITY.md
// derives the tuning rule).
TEST(Watchdog, NoFalsePositiveOnRecoverableChaosRun) {
  const auto g = graph::random_weakly_connected(100, 120, 5);
  sim::random_delay_scheduler sched(3);
  core::config cfg;
  cfg.algo = core::variant::generic;
  core::discovery_run run(g, cfg, sched);
  sim::fault_plan plan;
  plan.seed = 7;
  plan.drop = 0.3;
  plan.outage_period = 2000;
  plan.outage_duration = 400;
  run.enable_chaos(plan);
  telemetry::recorder_options opts;
  opts.watchdog.window = 400000;
  opts.watchdog.abort_on_trip = true;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.stopped);
  EXPECT_FALSE(rec.watchdog()->tripped());
}

/// The livelock configuration the watchdog was built to catch: jitter off
/// and a capped RTO equal to the outage period phase-lock every retry of an
/// envelope first transmitted inside a blackout window into the next
/// blackout window, forever.
core::discovery_run& arm_livelock(core::discovery_run& run) {
  sim::fault_plan plan;
  plan.seed = 13;
  plan.outage_period = 1024;
  plan.outage_duration = 256;
  sim::reliable_link_config link_cfg;
  link_cfg.retransmit_jitter = false;
  link_cfg.rto_initial = 1024;
  link_cfg.rto_max = 1024;
  run.enable_chaos(plan, link_cfg);
  return run;
}

TEST(Watchdog, CatchesPhaseLockedLivelock) {
  const auto g = graph::random_weakly_connected(40, 50, 9);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = core::variant::generic;
  core::discovery_run run(g, cfg, sched);
  arm_livelock(run);
  telemetry::recorder_options opts;
  // Window of four outage periods: a genuine livelock shows no progress for
  // that long almost immediately, while healthy chaos tails never would.
  opts.watchdog.window = 4096;
  opts.watchdog.probe_interval = 512;
  opts.watchdog.abort_on_trip = true;
  opts.flight_capacity = 256;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run();

  // The watchdog aborted the run instead of letting it burn the event cap.
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.completed);
  ASSERT_TRUE(rec.watchdog()->tripped());
  const telemetry::watchdog_trip& trip = rec.watchdog()->trips().front();
  EXPECT_GT(trip.arq_outstanding, 0u);  // envelopes owed, wire livelocked
  EXPECT_GE(trip.at - trip.last_progress_at, 4096u);
  // Trips within one window of the stall beginning (the probe cadence
  // bounds detection latency at window + probe_interval).
  EXPECT_LE(trip.at, trip.last_progress_at + 4096 + 512);

  // The armed flight recorder holds the postmortem: recent events are
  // retransmit timers / rl traffic, serialized as a parseable dump.  The
  // file is also a ctest fixture input for trace_analyze --flight.
  ASSERT_NE(rec.flight(), nullptr);
  EXPECT_GT(rec.flight()->size(), 0u);
  std::size_t timers = 0;
  rec.flight()->visit([&timers](const sim::flight_entry& e) {
    if (e.what == sim::flight_entry::kind::timer) ++timers;
  });
  EXPECT_GT(timers, 0u);
  const std::string dump = telemetry::flight_dump_json(*rec.flight());
  const auto doc = telemetry::json_parse(dump);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("kind")->as_string(), "flight");
  EXPECT_GT(doc->find("events")->as_array().size(), 0u);
  std::ofstream out("livelock_flight.json");
  out << dump << '\n';
  ASSERT_TRUE(out.good());

  // The run report records the trip and the stall window.
  const telemetry::run_report rep = rec.report(r);
  EXPECT_TRUE(rep.watchdog.armed);
  EXPECT_FALSE(rep.watchdog.trips.empty());
  EXPECT_FALSE(rep.completed);
}

// Same livelock without abort_on_trip: the watchdog keeps recording trips
// (re-arming each window) up to max_trips while the run burns on.
TEST(Watchdog, NonAbortingWatchdogRecordsRepeatedTrips) {
  const auto g = graph::random_weakly_connected(40, 50, 9);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = core::variant::generic;
  core::discovery_run run(g, cfg, sched);
  arm_livelock(run);
  telemetry::recorder_options opts;
  opts.watchdog.window = 4096;
  opts.watchdog.probe_interval = 512;
  opts.watchdog.max_trips = 3;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run(400000);  // cap the doomed run
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(rec.watchdog()->trips().size(), 3u);  // capped at max_trips
  const auto& trips = rec.watchdog()->trips();
  for (std::size_t i = 1; i < trips.size(); ++i)
    EXPECT_GE(trips[i].at, trips[i - 1].at + 4096);  // re-armed per window
}

TEST(BenchReporter, LabelWithQuotesAndBackslashesRoundTrips) {
  const std::string path = "bench_escape_roundtrip.json";
  const std::string label = "odd \"label\" with \\ and \t control";
  const char* argv[] = {"bench", "--json", path.c_str()};
  bench::reporter rep("escape_roundtrip", 3, const_cast<char**>(argv));
  rep.add(label, 1.0, 2.0, 3.0);
  ASSERT_EQ(rep.finish(true), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string err;
  const auto doc = telemetry::json_parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto& labels = doc->find("labels")->as_array();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].as_string(), label);
  EXPECT_EQ(doc->find("rows")->as_array()[0].find("label")->as_string(),
            label);
}

}  // namespace
