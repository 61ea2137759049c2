// Tests for the runtime health series: the downsampling series_frame
// (property-tested against a full-resolution reference) and the
// series_sampler driving it from live runs, including the chaos-run
// signature the series exists to make visible (in-flight plateaus and
// send-rate dips inside outage windows).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/scheduler.h"
#include "telemetry/json.h"
#include "telemetry/report.h"
#include "telemetry/timeseries.h"

namespace {

using namespace asyncrd;
using telemetry::series_frame;

TEST(SeriesFrame, RecordsUpToCapacityAtStrideOne) {
  series_frame f(8);
  const std::uint32_t c = f.add_column("x");
  ASSERT_EQ(c, 0u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    const std::uint64_t v = 100 + k;
    f.record(10 * (k + 1), &v, 1);
  }
  EXPECT_EQ(f.size(), 8u);
  EXPECT_EQ(f.stride(), 1u);
  EXPECT_EQ(f.recorded(), 8u);
  EXPECT_EQ(f.times(), (std::vector<std::uint64_t>{10, 20, 30, 40, 50, 60, 70, 80}));
  EXPECT_EQ(f.column(0).front(), 100u);
  EXPECT_EQ(f.column(0).back(), 107u);
}

TEST(SeriesFrame, CapacityRoundsUpToEvenAtLeastFour) {
  EXPECT_EQ(series_frame(0).capacity(), 4u);
  EXPECT_EQ(series_frame(1).capacity(), 4u);
  EXPECT_EQ(series_frame(5).capacity(), 6u);
  EXPECT_EQ(series_frame(8).capacity(), 8u);
}

TEST(SeriesFrame, HalvingDoublesStrideAndKeepsFirstSample) {
  series_frame f(4);
  f.add_column("x");
  for (std::uint64_t k = 0; k < 9; ++k) {
    const std::uint64_t v = k;
    f.record(k + 1, &v, 1);
  }
  // 9 samples through capacity 4: stride reached 4, retained ticks 0, 4, 8.
  EXPECT_EQ(f.stride(), 4u);
  EXPECT_EQ(f.recorded(), 9u);
  const auto t = f.times();
  EXPECT_EQ(t.front(), 1u);  // the very first sample survives every halving
  EXPECT_EQ(t.back(), 9u);   // and the series always ends at the last one
}

TEST(SeriesFrame, LazyColumnIsZeroBackfilled) {
  series_frame f(16);
  f.add_column("a");
  for (std::uint64_t k = 0; k < 5; ++k) {
    const std::uint64_t v = k + 1;
    f.record(k + 1, &v, 1);
  }
  const std::uint32_t b = f.add_column("b");
  const std::uint64_t row[] = {99, 7};
  f.record(100, row, 2);
  const auto bv = f.column(b);
  ASSERT_EQ(bv.size(), f.times().size());
  for (std::size_t i = 0; i + 1 < bv.size(); ++i) EXPECT_EQ(bv[i], 0u);
  EXPECT_EQ(bv.back(), 7u);
}

// Property test against a full-resolution reference: whatever the
// (capacity, sample count) combination, the frame must present a strictly
// increasing subset of the reference that keeps the first and last samples
// and never invents a (time, value) pair.
TEST(SeriesFrame, DownsamplingIsAFaithfulSubsetOfFullResolution) {
  rng gen(20260809);
  for (const std::size_t capacity : {4u, 6u, 16u, 64u}) {
    for (const std::size_t samples : {3u, 64u, 257u, 1000u}) {
      series_frame f(capacity);
      f.add_column("v");
      std::map<std::uint64_t, std::uint64_t> reference;  // time -> value
      std::uint64_t t = 0;
      std::uint64_t first_t = 0, last_t = 0;
      for (std::size_t k = 0; k < samples; ++k) {
        t += 1 + gen.below(50);
        const std::uint64_t v = gen.below(1u << 20);
        reference[t] = v;
        if (k == 0) first_t = t;
        last_t = t;
        f.record(t, &v, 1);
      }
      const auto times = f.times();
      const auto values = f.column(0);
      ASSERT_EQ(times.size(), values.size());
      ASSERT_LE(times.size(), f.capacity() + 1);  // retained + pending slot
      EXPECT_EQ(f.recorded(), samples);
      EXPECT_EQ(times.front(), first_t);
      EXPECT_EQ(times.back(), last_t);
      for (std::size_t i = 1; i < times.size(); ++i)
        ASSERT_LT(times[i - 1], times[i]);
      for (std::size_t i = 0; i < times.size(); ++i) {
        const auto it = reference.find(times[i]);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(values[i], it->second);
      }
      // Stride is a power of two and covers the recorded range.
      EXPECT_EQ(f.stride() & (f.stride() - 1), 0u);
    }
  }
}

// The run report is the one writer of the series.  This run halves the
// frame twice, ends on a pending (unretained) sample and adds its send
// columns mid-run; every column must still hold one value per sample time.
TEST(SeriesSampler, ReportSeriesParsesWithEqualLengthColumns) {
  const auto g = graph::random_weakly_connected(200, 300, 3);
  sim::random_delay_scheduler sched(3);
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::recorder_options opts;
  opts.series_interval = 1;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto rep = rec.report(run.run());
  ASSERT_TRUE(rep.completed);
  ASSERT_GT(rep.series.stride, 1u);  // the frame halved at least once

  const auto doc = telemetry::json_parse(rep.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  const auto& t = series->find("t")->as_array();
  EXPECT_EQ(t.size(), rec.sampler()->frame().times().size());
  const auto& cols = series->find("cols")->as_object();
  EXPECT_GT(cols.size(), 6u);  // the fixed columns plus per-type sends
  for (const auto& [name, col] : cols)
    EXPECT_EQ(col.as_array().size(), t.size()) << name;
}

TEST(SeriesSampler, CleanRunSeriesTracksMergeProgress) {
  const auto g = graph::random_weakly_connected(80, 100, 11);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = core::variant::generic;
  core::discovery_run run(g, cfg, sched);
  telemetry::recorder_options opts;
  opts.series_interval = 4;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run();
  ASSERT_TRUE(r.completed);

  ASSERT_NE(rec.sampler(), nullptr);
  const telemetry::series_frame& f = rec.sampler()->frame();
  const auto times = f.times();
  ASSERT_GE(times.size(), 3u);

  std::uint32_t col_components = 0, col_deliveries = 0, col_merges = 0;
  for (std::uint32_t i = 0; i < f.columns(); ++i) {
    if (f.column_name(i) == "components") col_components = i;
    if (f.column_name(i) == "app_deliveries") col_deliveries = i;
    if (f.column_name(i) == "merges") col_merges = i;
  }
  const auto components = f.column(col_components);
  const auto deliveries = f.column(col_deliveries);
  const auto merges = f.column(col_merges);
  // Components shrink monotonically to the final leader count; cumulative
  // counters never decrease.
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(components[i], components[i - 1]);
    EXPECT_GE(deliveries[i], deliveries[i - 1]);
    EXPECT_GE(merges[i], merges[i - 1]);
  }
  EXPECT_EQ(components.back(), run.leaders().size());
  EXPECT_EQ(components.back() + merges.back(), g.node_count());
}

// The acceptance-criteria chaos probe: under drop + periodic outages the
// series must show the outage signature — samples where the wire is empty
// (in_flight == 0) while the ARQ still owes envelopes, and stretches where
// nothing new goes onto the wire (send-rate dip) while that backlog drains.
TEST(SeriesSampler, ChaosRunSeriesShowsOutageWindows) {
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
  opts.series_interval = 256;
  telemetry::run_recorder rec(run, opts);
  run.wake_all();
  const auto r = run.run();
  ASSERT_TRUE(r.completed);

  const telemetry::series_frame& f = rec.sampler()->frame();
  std::uint32_t col_in_flight = 0;
  std::uint32_t col_outstanding = 0;
  bool have_outstanding = false;
  std::vector<std::uint32_t> sent_cols;
  for (std::uint32_t i = 0; i < f.columns(); ++i) {
    const std::string& name = f.column_name(i);
    if (name == "in_flight") col_in_flight = i;
    if (name == "arq.outstanding") {
      col_outstanding = i;
      have_outstanding = true;
    }
    if (name.rfind("sent.", 0) == 0) sent_cols.push_back(i);
  }
  ASSERT_TRUE(have_outstanding);
  ASSERT_FALSE(sent_cols.empty());

  const auto times = f.times();
  const auto in_flight = f.column(col_in_flight);
  const auto outstanding = f.column(col_outstanding);
  std::vector<std::uint64_t> total_sent(times.size(), 0);
  for (const std::uint32_t c : sent_cols) {
    const auto v = f.column(c);
    for (std::size_t i = 0; i < total_sent.size(); ++i) total_sent[i] += v[i];
  }
  ASSERT_GE(times.size(), 2u);
  const double mean_rate = static_cast<double>(total_sent.back()) /
                           static_cast<double>(times.back());

  // Samples land on event activity (probes fire when events dispatch), so a
  // cumulative counter always steps across a quiet gap; the outage/backoff
  // signature is the *rate* between adjacent samples collapsing while the
  // ARQ still owes envelopes.
  bool saw_plateau = false;   // empty wire, envelopes still owed
  bool saw_rate_dip = false;  // send rate under a tenth of the run's mean
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    if (in_flight[i] == 0 && outstanding[i] > 0) saw_plateau = true;
    if (i > 0 && outstanding[i] > 0) {
      const double rate =
          static_cast<double>(total_sent[i] - total_sent[i - 1]) /
          static_cast<double>(times[i] - times[i - 1]);
      if (rate < mean_rate / 10.0) saw_rate_dip = true;
    }
  }
  EXPECT_TRUE(saw_plateau);
  EXPECT_TRUE(saw_rate_dip);
}

// Default recorder options arm nothing: the report still carries empty
// "series"/"watchdog" objects and stays deterministic across runs.
TEST(SeriesSampler, DisarmedRecorderReportsEmptySeries) {
  const auto g = graph::directed_path(6);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::run_recorder rec(run);
  run.wake_all();
  const auto r = run.run();
  ASSERT_TRUE(r.completed);
  const telemetry::run_report rep = rec.report(r);
  EXPECT_EQ(rep.series.t.size(), 0u);
  EXPECT_FALSE(rep.watchdog.armed);
  const auto doc = telemetry::json_parse(rep.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->find("series"), nullptr);
  EXPECT_NE(doc->find("watchdog"), nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(
                doc->find("report_version")->as_number()),
            telemetry::run_report::current_version);
}

}  // namespace
