// Telemetry subsystem: histogram buckets and quantiles, the JSON
// writer/parser pair, the network's observer fan-out, the metrics
// registry, run_report determinism on a fixed seed/topology, and the run's
// memory parts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_report.h"
#include "common/rng.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "telemetry/histogram.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"

// glibc's in-use counters are the ground truth the memory parts are checked
// against; a sanitizer's allocator bypasses them.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if __GLIBC_PREREQ(2, 33)
#include <malloc.h>
#define ASYNCRD_GLIBC_IN_USE 1
#endif
#endif

namespace asyncrd {
namespace {

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 = {0}; bucket k = [2^(k-1), 2^k - 1].
  EXPECT_EQ(telemetry::histogram::bucket_of(0), 0u);
  EXPECT_EQ(telemetry::histogram::bucket_of(1), 1u);
  EXPECT_EQ(telemetry::histogram::bucket_of(2), 2u);
  EXPECT_EQ(telemetry::histogram::bucket_of(3), 2u);
  EXPECT_EQ(telemetry::histogram::bucket_of(4), 3u);
  EXPECT_EQ(telemetry::histogram::bucket_of(7), 3u);
  EXPECT_EQ(telemetry::histogram::bucket_of(8), 4u);
  EXPECT_EQ(telemetry::histogram::bucket_of(UINT64_MAX), 64u);

  for (std::size_t b = 0; b < telemetry::histogram::bucket_count; ++b) {
    EXPECT_EQ(telemetry::histogram::bucket_of(telemetry::histogram::bucket_lower(b)), b);
    EXPECT_EQ(telemetry::histogram::bucket_of(telemetry::histogram::bucket_upper(b)), b);
  }
  EXPECT_EQ(telemetry::histogram::bucket_lower(1), 1u);
  EXPECT_EQ(telemetry::histogram::bucket_upper(1), 1u);
  EXPECT_EQ(telemetry::histogram::bucket_lower(4), 8u);
  EXPECT_EQ(telemetry::histogram::bucket_upper(4), 15u);
}

TEST(Histogram, CountsSumsMinMaxMean) {
  telemetry::histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  for (const std::uint64_t v : {5u, 0u, 17u, 5u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 27u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 17u);
  EXPECT_DOUBLE_EQ(h.mean(), 27.0 / 4.0);
  EXPECT_EQ(h.bucket(0), 1u);                             // the 0
  EXPECT_EQ(h.bucket(telemetry::histogram::bucket_of(5)), 2u);   // both 5s
  EXPECT_EQ(h.bucket(telemetry::histogram::bucket_of(17)), 1u);  // the 17
}

TEST(Histogram, QuantilesClampedToObservedRange) {
  telemetry::histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);    // exact min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);  // exact max
  // Mid quantiles are bucket-resolution approximations: within a factor
  // of 2 of the true value.
  EXPECT_GE(h.p50(), 25.0);
  EXPECT_LE(h.p50(), 100.0);
  EXPECT_GE(h.p90(), 45.0);
  EXPECT_LE(h.p90(), 100.0);
  // Single-value histogram: every quantile is that value.
  telemetry::histogram one;
  one.record(42);
  EXPECT_DOUBLE_EQ(one.quantile(0.25), 42.0);
  EXPECT_DOUBLE_EQ(one.p99(), 42.0);
}

TEST(Histogram, QuantileEstimateStaysInsideItsOwnBucket) {
  // Regression pin: {0, 16, 17, 18, 19}, q = 0.1.  The global fractional
  // rank (0.4) falls below the selected bucket's first rank (1), so the
  // unclamped interpolation lands at 13 — below the [16, 31] bucket every
  // sample it claims to describe lives in.  The old global [min, max]
  // clamp (here [0, 19]) let that 13 escape.
  telemetry::histogram h;
  for (const std::uint64_t v : {0u, 16u, 17u, 18u, 19u}) h.record(v);
  const double est = h.quantile(0.1);
  EXPECT_GE(est, 16.0) << "estimate escaped below its bucket";
  EXPECT_LE(est, 19.0);
}

TEST(Histogram, QuantilePropertyAgainstSortedReference) {
  // Property checked against the exact sorted sample: for every q, the
  // estimate must lie inside the log-bucket of the exact order statistic
  // at ceil(rank) — tightened by the true extremes — and estimates must be
  // monotone in q.  Random samples across magnitudes, deterministic seed.
  rng r(2026);
  for (int trial = 0; trial < 50; ++trial) {
    telemetry::histogram h;
    std::vector<std::uint64_t> xs(1 + r.below(200));
    for (auto& x : xs) {
      // Spread magnitudes so many buckets (including empty gaps) occur.
      x = r.below(std::uint64_t{1} << (1 + r.below(40)));
      h.record(x);
    }
    std::sort(xs.begin(), xs.end());

    double prev = -1.0;
    for (const double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double rank = q * static_cast<double>(xs.size() - 1);
      const std::uint64_t pivot =
          xs[static_cast<std::size_t>(std::ceil(rank))];
      const std::size_t b = telemetry::histogram::bucket_of(pivot);
      const double lo =
          std::max(static_cast<double>(telemetry::histogram::bucket_lower(b)),
                   static_cast<double>(xs.front()));
      const double hi =
          std::min(static_cast<double>(telemetry::histogram::bucket_upper(b)),
                   static_cast<double>(xs.back()));
      const double est = h.quantile(q);
      EXPECT_GE(est, lo) << "trial " << trial << " q " << q;
      EXPECT_LE(est, hi) << "trial " << trial << " q " << q;
      EXPECT_GE(est, prev) << "non-monotone at trial " << trial << " q " << q;
      prev = est;
    }
  }
}

TEST(Histogram, MergeAndReset) {
  telemetry::histogram a, b;
  a.record(3);
  a.record(100);
  b.record(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 110u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 100u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

// --------------------------------------------------------------------- json

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(telemetry::json_escape("plain"), "plain");
  EXPECT_EQ(telemetry::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(telemetry::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(telemetry::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(telemetry::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, WriterProducesValidNestedDocument) {
  telemetry::json_writer w;
  w.begin_object();
  w.kv("name", "x -> y");
  w.kv("ok", true);
  w.kv("n", std::uint64_t{42});
  w.kv("ratio", 1.5);
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object();
  w.kv("deep", -7);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"name\":\"x -> y\",\"ok\":true,\"n\":42,\"ratio\":1.5,"
            "\"list\":[1,2,3],\"nested\":{\"deep\":-7}}");
}

TEST(Json, WriterRoundTripsThroughParser) {
  telemetry::json_writer w;
  w.begin_object();
  w.kv("text", "quote \" backslash \\ newline \n unicode \xc3\xa9");
  w.kv("tiny", 0.001);
  w.kv("big", 1e18);
  w.kv("neg", std::int64_t{-123});
  w.key("null_here").null();
  w.end_object();

  std::string err;
  const auto parsed = telemetry::json_parse(w.take(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("text")->as_string(),
            "quote \" backslash \\ newline \n unicode \xc3\xa9");
  EXPECT_DOUBLE_EQ(parsed->find("tiny")->as_number(), 0.001);
  EXPECT_DOUBLE_EQ(parsed->find("big")->as_number(), 1e18);
  EXPECT_DOUBLE_EQ(parsed->find("neg")->as_number(), -123.0);
  EXPECT_TRUE(parsed->find("null_here")->is_null());
  EXPECT_EQ(parsed->find("absent"), nullptr);
}

TEST(Json, IntegralDoublesSerializeWithoutExponent) {
  // Regression: the shortest-round-trip loop accepted "%.1g" for 1000.0,
  // emitting "1e+03" — bench params like n then reached consumers as
  // scientific notation.  Integral doubles within 2^53 must print as plain
  // integers; genuine fractions and huge magnitudes keep the old behavior.
  const auto emit = [](double v) {
    telemetry::json_writer w;
    w.begin_object();
    w.kv("v", v);
    w.end_object();
    return w.take();
  };
  EXPECT_EQ(emit(1000.0), "{\"v\":1000}");
  EXPECT_EQ(emit(0.0), "{\"v\":0}");
  EXPECT_EQ(emit(-250000.0), "{\"v\":-250000}");
  EXPECT_EQ(emit(9007199254740992.0), "{\"v\":9007199254740992}");  // 2^53
  EXPECT_EQ(emit(0.5), "{\"v\":0.5}");
  EXPECT_EQ(emit(1e18), "{\"v\":1e+18}");  // integral but above 2^53

  // Full-precision round-trip must survive for true doubles.
  for (const double v : {1000.0, 352957.97, 0.1 + 0.2, 1.0 / 3.0, -1e-9,
                         9007199254740992.0, 1e18}) {
    telemetry::json_writer w;
    w.begin_object();
    w.kv("v", v);
    w.end_object();
    const auto parsed = telemetry::json_parse(w.take());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("v")->as_number(), v);
  }
}

TEST(BenchReport, IntegralParamsSerializeAsIntegersAndRoundTrip) {
  // End-to-end pin through the bench reporter: n / measured columns carry
  // integral doubles, which must reach the file as plain integers (the bug
  // emitted "1e+03" for n=1000), while fractional bounds keep full
  // precision.
  const std::string path = "BENCH_fmt_roundtrip_test.json";
  {
    bench::reporter rep("fmt_roundtrip_test");
    rep.add("row_a", 1000.0, 250000.0, 352957.97);
    rep.add("row_b", 100000.0, 0.0, 0.0);
    rep.note("cells", 64.0);
    ASSERT_EQ(rep.finish(true), 0);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"n_values\":[1000,100000]"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"measured\":[250000,0]"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("1e+03"), std::string::npos) << doc;

  const auto parsed = telemetry::json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto& bounds = parsed->find("predicted_bound")->as_array();
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0].as_number(), 352957.97);
  const auto& notes = parsed->find("notes")->as_object();
  EXPECT_EQ(notes.at("cells").as_number(), 64.0);
  std::remove(path.c_str());
}

TEST(Json, ParserHandlesEscapesAndRejectsGarbage) {
  const auto ok = telemetry::json_parse(
      R"({"s":"tab\t quote\" uA pair😀","a":[true,false,null]})");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->find("s")->as_string(), "tab\t quote\" uA pair\xF0\x9F\x98\x80");
  EXPECT_EQ(ok->find("a")->as_array().size(), 3u);

  std::string err;
  EXPECT_FALSE(telemetry::json_parse("{", &err).has_value());
  EXPECT_FALSE(telemetry::json_parse("[1,]", &err).has_value());
  EXPECT_FALSE(telemetry::json_parse("{\"a\":1} trailing", &err).has_value());
  EXPECT_FALSE(telemetry::json_parse("", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------ metrics

TEST(Metrics, RegistryInstrumentsAreStableAndResettable) {
  telemetry::registry reg;
  auto& c = reg.get_counter("net.sends");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.get_counter("net.sends").value(), 5u);
  EXPECT_EQ(&reg.get_counter("net.sends"), &c);  // stable address

  reg.get_gauge("queue.depth").set(3.5);
  reg.get_gauge("queue.depth").add(0.5);
  EXPECT_DOUBLE_EQ(reg.get_gauge("queue.depth").value(), 4.0);

  reg.get_histogram("lat").record(9);
  EXPECT_EQ(reg.get_histogram("lat").count(), 1u);

  reg.reset();
  EXPECT_EQ(reg.get_counter("net.sends").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.get_gauge("queue.depth").value(), 0.0);
  EXPECT_EQ(reg.get_histogram("lat").count(), 0u);
  EXPECT_EQ(reg.counters().size(), 1u);  // names survive reset

  telemetry::json_writer w;
  reg.write_json(w);
  const auto parsed = telemetry::json_parse(w.take());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->find("counters"), nullptr);
  EXPECT_NE(parsed->find("gauges"), nullptr);
  EXPECT_NE(parsed->find("histograms"), nullptr);
}

// ------------------------------------------------------- observer fan-out

/// Appends "<tag><event>" markers so tests can assert fan-out order.
class tagging_observer final : public sim::observer {
 public:
  tagging_observer(std::string tag, std::vector<std::string>& sink)
      : tag_(std::move(tag)), sink_(&sink) {}

  void on_event(const sim::event_record& r) override {
    switch (r.what) {
      case sim::event_record::kind::send:
        sink_->push_back(tag_ + ":send");
        break;
      case sim::event_record::kind::deliver:
        sink_->push_back(tag_ + ":deliver");
        break;
      case sim::event_record::kind::wake:
        sink_->push_back(tag_ + ":wake" + std::to_string(r.to));
        break;
      case sim::event_record::kind::timer:
        sink_->push_back(tag_ + ":timer");
        break;
    }
  }

 private:
  std::string tag_;
  std::vector<std::string>* sink_;
};

class idle_process final : public sim::process {
 public:
  void on_wake(sim::context&) override {}
  void on_message(sim::context&, node_id, const sim::message_ptr&) override {}
};

TEST(MultiObserver, FansOutInRegistrationOrder) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(7, std::make_unique<idle_process>());
  net.add_node(8, std::make_unique<idle_process>());
  std::vector<std::string> calls;
  tagging_observer a("a", calls), b("b", calls);
  net.add_observer(&a);
  net.add_observer(&b);

  net.wake(7);
  net.run();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], "a:wake7");  // registration order
  EXPECT_EQ(calls[1], "b:wake7");

  calls.clear();
  EXPECT_TRUE(net.remove_observer(&a));
  EXPECT_FALSE(net.remove_observer(&a));
  net.wake(8);
  net.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], "b:wake8");
}

TEST(MultiObserver, NetworkDispatchesToEveryAttachedObserver) {
  const auto g = graph::directed_path(4);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);

  std::vector<std::string> calls;
  tagging_observer first("1", calls), second("2", calls);
  run.net().add_observer(&first);
  run.net().add_observer(&second);
  run.wake_all();
  run.run();
  run.net().remove_observer(&first);
  run.net().remove_observer(&second);

  ASSERT_FALSE(calls.empty());
  ASSERT_EQ(calls.size() % 2, 0u);
  std::size_t firsts = 0, seconds = 0;
  for (std::size_t i = 0; i < calls.size(); i += 2) {
    // Each event reaches both observers back to back, first one first.
    EXPECT_EQ(calls[i].substr(1), calls[i + 1].substr(1));
    EXPECT_EQ(calls[i][0], '1');
    EXPECT_EQ(calls[i + 1][0], '2');
    ++firsts;
    ++seconds;
  }
  EXPECT_EQ(firsts, seconds);
}

// ---------------------------------------------------------- run_report

TEST(RunReport, CollectsEveryMeasuredDimension) {
  const auto g = graph::random_weakly_connected(50, 80, 11);
  sim::random_delay_scheduler sched(11);
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::run_recorder rec(run);
  run.wake_all();
  const auto result = run.run();

  auto rep = rec.report(result);
  rep.label = "unit";
  rep.variant = "generic";
  rep.seed = 11;
  rep.edges = g.edge_count();

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.nodes, 50u);
  EXPECT_EQ(rep.leaders, 1u);
  EXPECT_GT(rep.events_processed, 0u);
  EXPECT_GT(rep.completion_time, 0u);
  EXPECT_GT(rep.total_messages, 0u);
  EXPECT_GT(rep.total_bits, rep.total_messages);
  EXPECT_FALSE(rep.messages_by_type.empty());
  EXPECT_EQ(rep.load.count(), 50u);  // one load sample per node
  EXPECT_EQ(rep.load.max(), rep.max_load);
  EXPECT_NE(rep.hottest, invalid_node);
  EXPECT_FALSE(rep.transitions.empty());
  // Every node leaves asleep exactly once.
  EXPECT_EQ(rep.transitions.at("asleep -> explore"), 50u);
  EXPECT_GE(rep.events_per_sec, 0.0);

  // Registry picked up the same event stream the stats did.
  EXPECT_EQ(rec.metrics().get_counter("net.sends").value(), rep.total_messages);
  EXPECT_EQ(rec.metrics().get_counter("net.delivers").value(),
            rep.total_messages);
  EXPECT_EQ(rec.metrics().get_counter("net.wakes").value(), 50u);
}

TEST(RunReport, JsonHasRequiredKeysAndParses) {
  const auto g = graph::directed_path(6);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::run_recorder rec(run);
  run.wake_all();
  auto rep = rec.report(run.run());
  rep.label = "schema";
  rep.variant = "generic";
  rep.extra["custom_metric"] = 1.25;

  std::string err;
  const auto parsed = telemetry::json_parse(rep.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  for (const char* k :
       {"label", "variant", "seed", "nodes", "edges", "completed", "leaders",
        "events_processed", "completion_time", "wall_ms", "events_per_sec",
        "total_messages", "total_bits", "messages_by_type", "load",
        "max_load", "transitions", "extra"}) {
    EXPECT_NE(parsed->find(k), nullptr) << "missing key " << k;
  }
  EXPECT_DOUBLE_EQ(parsed->find("extra")->find("custom_metric")->as_number(),
                   1.25);
  const auto* load = parsed->find("load");
  EXPECT_NE(load->find("p50"), nullptr);
  EXPECT_NE(load->find("buckets"), nullptr);
}

/// Golden determinism: identical seed/topology => identical report JSON,
/// modulo the host-clock fields and peak RSS.
TEST(RunReport, DeterministicAcrossRunsUpToWallClock) {
  const auto once = [] {
    const auto g = graph::random_weakly_connected(30, 45, 9);
    sim::random_delay_scheduler sched(9);
    core::config cfg;
    core::discovery_run run(g, cfg, sched);
    telemetry::run_recorder rec(run);
    run.wake_all();
    auto rep = rec.report(run.run());
    rep.label = "golden";
    rep.variant = "generic";
    rep.seed = 9;
    rep.edges = g.edge_count();
    // Host timing and the process's peak RSS differ run to run; drop them
    // before comparing.
    rep.wall_ms = 0.0;
    rep.events_per_sec = 0.0;
    rep.extra.erase("mem.peak_rss_bytes");
    return rep.to_json();
  };
  const std::string a = once();
  const std::string b = once();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(telemetry::json_parse(a).has_value());
}

TEST(RunRecorder, DetachesOnDestruction) {
  const auto g = graph::directed_path(3);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  {
    telemetry::run_recorder rec(run);
    run.wake_all();
    run.run();
    EXPECT_GT(rec.load().loads().size(), 0u);
  }
  // After the recorder is gone the network must be observer-free: another
  // run segment must not touch freed memory (asan-visible if it did).
  run.net().wake(0);
  run.net().run_to_quiescence();
  SUCCEED();
}

// ---------------------------------------------------------------- run memory

// The report's extra block carries every memory part at report time as
// mem.<part>_bytes, plus the process's peak RSS.
TEST(RunRecorder, ReportsEveryMemoryPart) {
  const auto g = graph::random_weakly_connected(300, 450, 4);
  sim::random_delay_scheduler sched(4);
  core::discovery_run run(g, core::config{}, sched);
  sim::fault_plan plan;
  plan.drop = 0.1;
  plan.seed = 4;
  run.enable_chaos(plan);
  telemetry::run_recorder rec(run);
  run.wake_all();
  const telemetry::run_report rep = rec.report(run.run());
  ASSERT_TRUE(rep.completed);
  const std::vector<std::string> names{
      "queue_buckets", "queue_overflow", "channels",      "channel_index",
      "node_index",    "node_slots",     "fault_streams", "nodes",
      "reliable_links", "pool_live",     "pool_cached"};
  const std::vector<sim::memory_part> parts = run.memory_parts();
  ASSERT_EQ(parts.size(), names.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].name, names[i]);
    const auto it = rep.extra.find("mem." + names[i] + "_bytes");
    ASSERT_NE(it, rep.extra.end()) << names[i];
    EXPECT_EQ(it->second, static_cast<double>(parts[i].bytes)) << names[i];
  }
  // Dense ids need no node index; everything a chaos run builds is held.
  EXPECT_EQ(rep.extra.at("mem.node_index_bytes"), 0.0);
  for (const char* held : {"queue_buckets", "channels", "node_slots",
                           "fault_streams", "nodes", "reliable_links"})
    EXPECT_GT(rep.extra.at("mem." + std::string(held) + "_bytes"), 0.0)
        << held;
  ASSERT_TRUE(rep.extra.contains("mem.peak_rss_bytes"));
#ifdef __linux__
  EXPECT_GT(rep.extra.at("mem.peak_rss_bytes"), 0.0);
#endif
}

// The parts account for what a run allocates: on the 40k-node Generic run
// (the perfbench giant_component graph) their sum at the end is within 10%
// of the growth of glibc's in-use bytes over building and running it.
// Peak RSS would not do as the reference: it also counts memory glibc has
// freed but kept.
TEST(RunMemory, PartsMatchMallocInUseGrowthOn40kGeneric) {
#ifndef ASYNCRD_GLIBC_IN_USE
  GTEST_SKIP() << "needs glibc's own allocator (2.33 or later)";
#else
  const auto in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const auto g = graph::random_weakly_connected(40000, 80000, 1);
  // Start the pool empty, so its cached blocks are this run's.
  sim::pool_detail::trim();
  sim::pool_detail::trim_global();
  const std::size_t before = in_use();
  sim::unit_delay_scheduler sched;
  core::discovery_run run(g, core::config{}, sched);
  run.wake_all();
  ASSERT_TRUE(run.run().completed);
  const double growth = static_cast<double>(in_use() - before);
  double sum = 0.0;
  std::string table;
  for (const sim::memory_part& p : run.memory_parts()) {
    sum += static_cast<double>(p.bytes);
    table += " " + std::string(p.name) + "=" + std::to_string(p.bytes);
  }
  EXPECT_GT(growth, 10e6);
  EXPECT_NEAR(sum / growth, 1.0, 0.10)
      << "parts " << sum << " vs in-use growth " << growth << ":" << table;
#endif
}

}  // namespace
}  // namespace asyncrd
