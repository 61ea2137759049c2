// Simulation workloads: one discovery_run per operation on a graph made
// from the run's seed, verified component by component.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/checker.h"
#include "core/messages.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace asyncrd;

/// A run that dispatches this many events is a livelock, not a slow run:
/// the largest workload needs about a million.
constexpr std::uint64_t event_cap = 20'000'000;

/// The graph that fails the checker in every variant: part 99 of
/// multi_component(100, 1000, 1000, 42).  Kept as a baseline failure.
constexpr std::uint64_t reproducer_seed = 13084405178522369146ull;

struct sim_spec {
  std::vector<core::variant> variants;  ///< operation i runs variants[i % size]
  std::size_t parts = 1;   ///< 1: one random_weakly_connected graph
  std::size_t part_n = 0;
  std::size_t extra = 0;   ///< extra random edges per part
  bool lossy = false;      ///< random delays, drops and duplicates, ARQ
  std::optional<std::uint64_t> fixed_graph_seed;
};

/// Graphs carry 2n extra edges.  At n extra edges the engine fails the
/// checker on about one 40k-node graph in six and one 100-node component in
/// four thousand (the reproducer's shape); at 2n no seed tried has failed,
/// and a workload must not fail.
std::optional<sim_spec> spec_for(const run_options& opt) {
  const bool toy = opt.toy;
  sim_spec s;
  if (opt.workload == "giant_component") {
    s.variants = {core::variant::generic};
    s.part_n = toy ? 2000 : 40000;
    s.extra = 2 * s.part_n;
  } else if (opt.workload == "fragmented") {
    s.variants = {core::variant::adhoc};
    s.parts = toy ? 20 : 300;
    s.part_n = toy ? 50 : 100;
    s.extra = 2 * s.part_n;
  } else if (opt.workload == "lossy") {
    s.variants = {core::variant::bounded};
    s.part_n = toy ? 1000 : 10000;
    s.extra = 2 * s.part_n;
    s.lossy = true;
  } else if (opt.workload == "reproducer") {
    s.variants = {core::variant::generic, core::variant::bounded,
                  core::variant::adhoc};
    s.part_n = 1000;
    s.extra = 1000;
    s.fixed_graph_seed = reproducer_seed;
  } else {
    return std::nullopt;
  }
  return s;
}

struct msg_type {
  core::msg_kind kind;
  const char* name;  ///< sim::message::type_name of the kind
};
constexpr msg_type msg_types[] = {
    {core::msg_kind::query, "query"},
    {core::msg_kind::query_reply, "query_reply"},
    {core::msg_kind::search, "search"},
    {core::msg_kind::release, "release"},
    {core::msg_kind::merge_accept, "merge_accept"},
    {core::msg_kind::merge_fail, "merge_fail"},
    {core::msg_kind::info, "info"},
    {core::msg_kind::conquer, "conquer"},
    {core::msg_kind::member_reply, "more_done"},
    {core::msg_kind::probe, "probe"},
    {core::msg_kind::probe_reply, "probe_reply"},
    {core::msg_kind::report, "report"},
    {core::msg_kind::report_ack, "report_ack"},
};

/// Samples the event queue and the channels once per virtual tick.
class depth_probe final : public sim::health_probe {
 public:
  sim::sim_time on_probe(sim::network& net) override {
    queue_max = std::max<std::uint64_t>(queue_max, net.queue_depth());
    in_flight_max = std::max(in_flight_max, net.in_flight());
    return net.now() + 1;
  }
  std::uint64_t queue_max = 0;
  std::uint64_t in_flight_max = 0;
};

class sim_workload final : public workload {
 public:
  sim_workload(sim_spec spec, std::uint64_t seed, span_log& log,
               run_result& out)
      : spec_(std::move(spec)), seed_(seed), log_(&log), out_(&out) {}

  std::uint64_t fixed_ops() const override {
    return spec_.fixed_graph_seed ? spec_.variants.size() : 0;
  }

  op_times op(std::uint64_t id, bool traced) override;

 private:
  graph::digraph generate() const {
    const std::uint64_t seed = spec_.fixed_graph_seed.value_or(seed_);
    return spec_.parts == 1 ? graph::random_weakly_connected(
                                  spec_.part_n, spec_.extra, seed)
                            : graph::multi_component(spec_.parts, spec_.part_n,
                                                     spec_.extra, seed);
  }

  void record_layers(const core::discovery_run& run, double run_s,
                     std::uint64_t events, const sim::cost_profiler& prof,
                     const depth_probe& probe);

  sim_spec spec_;
  std::uint64_t seed_;
  span_log* log_;
  run_result* out_;
  /// Deterministic counts of the first operation, for the repeat check.
  std::optional<std::pair<std::uint64_t, sim::sim_time>> first_counts_;
};

op_times sim_workload::op(std::uint64_t id, bool traced) {
  metrics& layers = out_->layers;
  const core::variant algo = spec_.variants[id % spec_.variants.size()];
  core::config cfg;
  cfg.algo = algo;
  // Declared before the run: the network holds non-owning pointers to them.
  sim::cost_profiler prof;
  depth_probe probe;
  std::unique_ptr<sim::scheduler> sched;
  graph::digraph g;
  std::vector<std::vector<node_id>> comps;
  std::unique_ptr<core::discovery_run> run;
  op_times t;

  if (traced) trim_heap();
  const double rss_start = rss_mb();
  double rss_graph = 0.0, rss_build = 0.0, rss_run = 0.0;
  {
    scoped_span setup(*log_, "setup", id);
    {
      scoped_span s(*log_, "graph.generate", id);
      g = generate();
      if (traced) layers.add("graph.generate_s", "s", s.close());
    }
    {
      scoped_span s(*log_, "graph.components", id);
      comps = g.weak_components();
      if (traced) layers.add("graph.components_s", "s", s.close());
    }
    rss_graph = rss_mb();
    sim::pool_detail::reset_peak_bytes();
    {
      scoped_span s(*log_, "core.build", id);
      if (spec_.lossy)
        sched = std::make_unique<sim::random_delay_scheduler>(seed_);
      else
        sched = std::make_unique<sim::unit_delay_scheduler>();
      run = std::make_unique<core::discovery_run>(g, cfg, *sched);
      if (spec_.lossy) {
        sim::fault_plan plan;
        plan.seed = seed_;
        plan.drop = 0.05;
        plan.duplicate = 0.01;
        run->enable_chaos(plan);
      }
      run->wake_all();
      if (traced) layers.add("core.build_s", "s", s.close());
    }
    rss_build = rss_mb();
    t.setup_s = setup.close();
    t.layers_s += log_->covered(id, setup.index());
  }

  if (traced) {
    run->net().set_profiler(&prof);
    run->net().add_health_probe(&probe, 1);
  }
  std::uint64_t failed = 0;
  {
    scoped_span discover(*log_, "discover", id);
    sim::run_result res;
    double run_s = 0.0;
    {
      scoped_span s(*log_, "sim.run", id);
      res = run->run(event_cap);
      run_s = s.close();
    }
    rss_run = rss_mb();
    {
      scoped_span s(*log_, "core.check", id);
      if (!res.completed) {
        failed = comps.size();
        note_failure("event cap of " + std::to_string(event_cap) +
                     " reached; all " + std::to_string(comps.size()) +
                     " components fail");
      } else {
        for (const std::vector<node_id>& c : comps) {
          const core::check_report rep = core::check_final_state(*run, {c});
          if (!rep.ok()) {
            ++failed;
            note_failure(std::string(core::to_string(algo)) + ": " +
                         rep.to_string());
          }
        }
      }
      if (traced) layers.add("core.check_s", "s", s.close());
    }
    t.discover_s = discover.close();
    t.layers_s += log_->covered(id, discover.index());
    if (traced) record_layers(*run, run_s, res.events_processed, prof, probe);
  }
  out_->attempted += comps.size();
  out_->failed += failed;

  const double n = static_cast<double>(g.node_count());
  const std::uint64_t app_msgs =
      spec_.lossy ? run->reliable_links()->stats().data_sent
                  : run->statistics().total_messages();
  const sim::sim_time vt = run->net().now();
  if (spec_.variants.size() == 1) {
    if (!first_counts_) first_counts_.emplace(app_msgs, vt);
    if (*first_counts_ != std::make_pair(app_msgs, vt)) {
      out_->consistent = false;
      std::cerr << "perfbench: messages/virtual time differ between two "
                   "operations on the same input\n";
    }
  }
  if (traced) {
    layers.add("virtual_time", "ticks", static_cast<double>(vt));
    layers.add("graph.rss_mb", "MiB", rss_graph - rss_start);
    layers.add("core.rss_build_mb", "MiB", rss_build - rss_graph);
    layers.add("sim.rss_run_mb", "MiB", rss_run - rss_build);
    layers.add("sim.pool_peak_bytes", "bytes",
               static_cast<double>(sim::pool_detail::stats().peak_bytes));
  } else {
    out_->e2e.add("msgs_per_node", "count", static_cast<double>(app_msgs) / n);
  }

  scoped_span teardown(*log_, "teardown", id);
  run.reset();
  sched.reset();
  g = graph::digraph();
  comps.clear();
  return t;
}

void sim_workload::record_layers(const core::discovery_run& run, double run_s,
                                 std::uint64_t events,
                                 const sim::cost_profiler& prof,
                                 const depth_probe& probe) {
  metrics& m = out_->layers;
  const auto count = [](auto v) { return static_cast<double>(v); };
  m.add("sim.run_s", "s", run_s);
  m.add("sim.events", "count", count(events));
  m.add("sim.events_per_s", "1/s", run_s > 0.0 ? count(events) / run_s : 0.0);
  m.add("sim.queue_depth_max", "count", count(probe.queue_max));
  m.add("sim.in_flight_max", "count", count(probe.in_flight_max));

  // sim::stats counts what goes on the wire: with the ARQ armed that is
  // rl.data/rl.ack envelopes, so the core types read 0 on `lossy`.
  for (const msg_type& t : msg_types)
    m.add(std::string("core.msgs.") + t.name, "count",
          count(run.statistics().messages_of(t.name)));

  // Shares of the sampled event-loop span (unbiased under the profiler's
  // event sampling); attributed_over_loop is its conservation check.
  const double span = count(prof.sampled_span_ticks());
  const auto share = [&](std::uint64_t ticks) {
    return span > 0.0 ? count(ticks) / span : 0.0;
  };
  using ph = sim::cost_profiler::phase;
  m.add("prof.queue_pop_share", "ratio", share(prof.of(ph::queue_pop).ticks));
  m.add("prof.observers_share", "ratio", share(prof.of(ph::observers).ticks));
  m.add("prof.arq_share", "ratio", share(prof.of(ph::arq).ticks));
  m.add("prof.fault_rule_share", "ratio", share(prof.of(ph::fault_rule).ticks));
  double handlers = 0.0;
  for (const msg_type& t : msg_types) {
    const double s = share(prof.tags()[core::tag_of(t.kind)].ticks);
    handlers += s;
    m.add(std::string("prof.handler_share.") + t.name, "ratio", s);
  }
  m.add("prof.handler_share", "ratio", handlers);
  m.add("prof.attributed_over_loop", "ratio",
        prof.loop_ticks() > 0 ? count(prof.attributed_ticks()) *
                                    prof.sample_scale() /
                                    count(prof.loop_ticks())
                              : 0.0);

  const sim::reliable_link_layer* rl = run.reliable_links();
  const sim::reliable_link_stats arq =
      rl != nullptr ? rl->stats() : sim::reliable_link_stats{};
  const sim::fault_stats& faults = run.net().faults();
  m.add("arq.envelopes_per_app_msg", "ratio",
        arq.data_sent > 0 ? count(faults.transmissions) / count(arq.data_sent)
                          : 0.0);
  m.add("arq.retransmits", "count", count(arq.retransmits));
  m.add("arq.acks_sent", "count", count(arq.acks_sent));
  m.add("arq.dup_suppressed", "count", count(arq.dup_suppressed));
  m.add("arq.timer_fires", "count", count(arq.timer_fires));
  m.add("fault.drops", "count", count(faults.drops));
}

}  // namespace

std::unique_ptr<workload> make_sim_workload(const run_options& opt,
                                            span_log& log, run_result& out) {
  std::optional<sim_spec> spec = spec_for(opt);
  if (!spec) return nullptr;
  return std::make_unique<sim_workload>(std::move(*spec), opt.seed, log, out);
}

}  // namespace perfbench
