// discovery_cli — run asynchronous resource discovery on a graph file.
//
//   discovery_cli [options] <graph-file|->
//     --variant generic|bounded|adhoc   (default generic)
//     --seed N          delivery-schedule seed; 0 = unit delays (default 1)
//     --gen KIND:N[:EXTRA[:SEED]]       generate instead of reading a file:
//                       KIND in {random,tree,path,star_in,star_out,clique}
//     --probe V         after quiescence, node V probes the leader (adhoc)
//     --dot             print the knowledge graph as Graphviz DOT and exit
//     --quiet           suppress the per-type message table
//     --json PATH       write a telemetry run report (docs/OBSERVABILITY.md)
//     --trace PATH      write a causal trace as Chrome trace-event /
//                       Perfetto JSON, loadable in ui.perfetto.dev and
//                       readable by tools/trace_analyze
//     --chaos SPEC      lossy wire + reliable-delivery adapter; SPEC is
//                       comma-separated: drop=P, dup=P, slack=T,
//                       outage=PERIOD:DURATION, seed=N
//     --series N        sample the runtime health series every N sim-time
//                       ticks (adds a "series" block to --json and counter
//                       tracks to --trace)
//     --watchdog W      arm the stall watchdog with window W; a trip
//                       aborts the run and exits with status 3
//     --flight PATH     keep a flight recorder armed and write the last-K
//                       scheduler events to PATH at exit (the postmortem
//                       ring; read it with trace_analyze --flight)
//     --profile         arm the hot-path cost profiler: where the event
//                       loop's cycles go, by phase and message type (adds
//                       a "profile" block to --json and a stdout summary)
//
// Examples:
//   echo "0 1
//   1 2" | discovery_cli -
//   discovery_cli --gen random:500:500 --variant adhoc --seed 7
//   discovery_cli --gen tree:6 --dot | dot -Tpng > tree.png
//   discovery_cli --gen random:200:200 --chaos drop=0.3,outage=2000:400
//     --series 256 --watchdog 20000 --flight crash.json --json report.json
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/parse.h"
#include "common/version.h"
#include "core/checker.h"
#include "core/runner.h"
#include "graph/graphio.h"
#include "net/genspec.h"
#include "telemetry/critical_path.h"
#include "telemetry/health.h"
#include "telemetry/perfetto.h"
#include "telemetry/report.h"
#include "telemetry/tracer.h"

namespace {

using namespace asyncrd;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: discovery_cli [options] <graph-file|->\n"
      "  --variant generic|bounded|adhoc\n"
      "  --seed N              (0 = unit delays)\n"
      "  --gen KIND:N[:EXTRA[:SEED]]  generate topology\n"
      "  --probe V             probe the leader from node V afterwards\n"
      "  --dot                 dump Graphviz DOT of E0 and exit\n"
      "  --quiet               no per-type breakdown\n"
      "  --json PATH           write a JSON run report to PATH\n"
      "  --trace PATH          write a causal Perfetto trace to PATH\n"
      "  --chaos SPEC          drop=P,dup=P,slack=T,outage=PER:DUR,seed=N\n"
      "  --series N            sample health series every N ticks\n"
      "  --watchdog W          stall watchdog, window W (trip => exit 3)\n"
      "  --flight PATH         write flight-recorder ring to PATH at exit\n"
      "  --profile             hot-path cost attribution (in --json too)\n";
  std::exit(2);
}

/// Checked numeric conversions: a malformed value exits through usage()
/// naming the flag it came from, instead of std::stoull throwing out of
/// main into std::terminate.
std::uint64_t num_u64(const std::string& flag, const std::string& text) {
  const auto v = parse_u64(text);
  if (!v) usage((flag + ": expected a non-negative integer, got '" + text +
                 "'").c_str());
  return *v;
}

double num_double(const std::string& flag, const std::string& text) {
  const auto v = parse_double(text);
  if (!v) usage((flag + ": expected a number, got '" + text + "'").c_str());
  return *v;
}

sim::fault_plan parse_chaos(const std::string& spec) {
  sim::fault_plan plan;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) usage("--chaos items are key=value");
    const std::string k = item.substr(0, eq);
    const std::string v = item.substr(eq + 1);
    if (k == "drop") plan.drop = num_double("--chaos drop", v);
    else if (k == "dup") plan.duplicate = num_double("--chaos dup", v);
    else if (k == "slack") plan.reorder_slack = num_u64("--chaos slack", v);
    else if (k == "seed") plan.seed = num_u64("--chaos seed", v);
    else if (k == "outage") {
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) usage("--chaos outage=PERIOD:DURATION");
      plan.outage_period = num_u64("--chaos outage", v.substr(0, colon));
      plan.outage_duration = num_u64("--chaos outage", v.substr(colon + 1));
    } else {
      usage(("unknown --chaos key " + k).c_str());
    }
  }
  if (!plan.enabled()) usage("--chaos spec enables no faults");
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  std::string variant_name = "generic";
  std::uint64_t seed = 1;
  std::string gen_spec, input, json_path, trace_path, chaos_spec, flight_path;
  std::uint64_t series_interval = 0, watchdog_window = 0;
  bool want_dot = false, quiet = false, profile = false;
  node_id probe_from = invalid_node;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--variant") variant_name = next();
    else if (a == "--seed") seed = num_u64(a, next());
    else if (a == "--gen") gen_spec = next();
    else if (a == "--probe") probe_from = static_cast<node_id>(num_u64(a, next()));
    else if (a == "--dot") want_dot = true;
    else if (a == "--quiet") quiet = true;
    else if (a == "--json") json_path = next();
    else if (a == "--trace") trace_path = next();
    else if (a == "--chaos") chaos_spec = next();
    else if (a == "--series") series_interval = num_u64(a, next());
    else if (a == "--watchdog") watchdog_window = num_u64(a, next());
    else if (a == "--flight") flight_path = next();
    else if (a == "--profile") profile = true;
    else if (a == "--version") {
      std::cout << "asyncrd " << asyncrd::version << '\n';
      return 0;
    }
    else if (a == "--help" || a == "-h") usage();
    else if (!a.empty() && a[0] == '-' && a != "-") usage(("unknown option " + a).c_str());
    else input = a;
  }

  graph::digraph g;
  if (!gen_spec.empty()) {
    net::genspec_result gen = net::parse_genspec(gen_spec);
    if (!gen.ok()) usage(gen.error.c_str());
    g = std::move(gen.graph);
  } else if (input == "-") {
    g = graph::read_edge_list(std::cin);
  } else if (!input.empty()) {
    g = graph::read_edge_list_file(input);
  } else {
    usage("no graph given (file, '-', or --gen)");
  }

  if (want_dot) {
    std::cout << graph::to_dot(g);
    return 0;
  }

  core::config cfg;
  if (variant_name == "generic") cfg.algo = core::variant::generic;
  else if (variant_name == "bounded") cfg.algo = core::variant::bounded;
  else if (variant_name == "adhoc") cfg.algo = core::variant::adhoc;
  else usage("unknown variant");

  std::unique_ptr<sim::scheduler> sched;
  if (seed == 0)
    sched = std::make_unique<sim::unit_delay_scheduler>();
  else
    sched = std::make_unique<sim::random_delay_scheduler>(seed);

  core::discovery_run run(g, cfg, *sched);
  if (!chaos_spec.empty()) run.enable_chaos(parse_chaos(chaos_spec));

  std::unique_ptr<telemetry::run_recorder> rec;
  const bool want_recorder = !json_path.empty() || series_interval > 0 ||
                             watchdog_window > 0 || !flight_path.empty() ||
                             profile;
  if (want_recorder) {
    telemetry::recorder_options opts;
    opts.series_interval = series_interval;
    opts.watchdog.window = watchdog_window;
    // A CLI run that stalls would otherwise burn to the event cap; the
    // watchdog aborting it is the whole point of arming one here.
    opts.watchdog.abort_on_trip = true;
    if (!flight_path.empty()) opts.flight_capacity = 4096;
    opts.profile = profile;
    rec = std::make_unique<telemetry::run_recorder>(run, opts);
  }
  std::unique_ptr<telemetry::tracer> tr;
  if (!trace_path.empty()) {
    tr = std::make_unique<telemetry::tracer>(run.net());
    run.net().add_observer(tr.get());
  }
  run.wake_all();
  const auto r = run.run();

  // Postmortem ring: written on every exit path once armed, so a failing
  // run always leaves its last-K scheduler events behind.
  const auto write_flight = [&]() {
    if (flight_path.empty() || rec == nullptr || rec->flight() == nullptr)
      return;
    std::ofstream out(flight_path);
    telemetry::write_flight_dump(out, *rec->flight());
    if (!out)
      std::cerr << "failed to write " << flight_path << '\n';
    else
      std::cout << "[flight] " << flight_path << '\n';
  };
  // spec-checker verdict for the report's "extra" block; -1 == not run
  // (stall abort exits before the checker).
  double spec_ok = -1.0;
  const auto write_report = [&]() {
    if (json_path.empty() || rec == nullptr) return;
    telemetry::run_report report = rec->report(r);
    report.label = "discovery_cli";
    report.variant = core::to_string(cfg.algo);
    report.seed = seed;
    report.edges = g.edge_count();
    if (spec_ok >= 0.0) report.extra["spec_check_ok"] = spec_ok;
    std::ofstream out(json_path);
    out << report.to_json() << '\n';
    if (!out)
      std::cerr << "failed to write " << json_path << '\n';
    else
      std::cout << "[json] " << json_path << '\n';
  };

  if (r.stopped) {
    std::cerr << "run aborted: stall watchdog tripped at t=" << run.net().now()
              << " (window " << watchdog_window << ")\n";
    if (rec != nullptr && rec->watchdog() != nullptr)
      for (const telemetry::watchdog_trip& t : rec->watchdog()->trips())
        std::cerr << "  trip at t=" << t.at << ": no progress since t="
                  << t.last_progress_at << ", in_flight=" << t.in_flight
                  << ", arq_outstanding=" << t.arq_outstanding << '\n';
    write_report();
    write_flight();
    return 3;
  }
  if (!r.completed) {
    std::cerr << "run aborted: event cap exceeded\n";
    write_flight();
    return 1;
  }

  const auto rep = core::check_final_state(run, g);
  std::cout << "nodes: " << g.node_count() << "  edges: " << g.edge_count()
            << "  variant: " << core::to_string(cfg.algo)
            << "  seed: " << seed << '\n';
  for (const node_id lid : run.leaders())
    std::cout << "leader " << lid << " knows "
              << run.at(lid).done().size() << " ids\n";
  std::cout << "messages: " << run.statistics().total_messages()
            << "  bits: " << run.statistics().total_bits()
            << "  time: " << run.net().now() << '\n';
  if (!quiet) {
    for (const auto& [type, st] : run.statistics().by_type())
      std::cout << "  " << type << ": " << st.count << " msgs, " << st.bits
                << " bits\n";
  }

  if (profile && rec != nullptr && rec->profiler() != nullptr) {
    const sim::cost_profiler& prof = *rec->profiler();
    const double tpn = sim::profile_ticks_per_ns();
    const double loop = static_cast<double>(prof.loop_ticks());
    // Percentages are of the *sampled* event spans (1 in sample_every
    // events reads ticks; counts are exact) — unbiased, see sim/profiler.h.
    const double span = static_cast<double>(prof.sampled_span_ticks());
    std::cout << "profile: event loop " << loop / tpn / 1e6 << " ms, "
              << prof.sampled_events() << "/" << prof.events()
              << " events sampled, "
              << (span > 0.0
                      ? 100.0 * static_cast<double>(prof.attributed_ticks()) /
                            span
                      : 0.0)
              << "% attributed\n";
    const auto pct = [&](std::uint64_t ticks) {
      return span > 0.0 ? 100.0 * static_cast<double>(ticks) / span : 0.0;
    };
    for (std::size_t i = 0; i < sim::cost_profiler::phase_count; ++i) {
      const auto& b = prof.phases()[i];
      if (b.count == 0) continue;
      std::cout << "  " << sim::profile_phase_name(
                               static_cast<sim::cost_profiler::phase>(i))
                << ": " << b.count << " spans, " << pct(b.ticks) << "%\n";
    }
    for (std::size_t tag = 0; tag < sim::cost_profiler::tag_count; ++tag) {
      const auto& b = prof.tags()[tag];
      if (b.count == 0) continue;
      std::cout << "  handler " << telemetry::dispatch_tag_name(
                                       static_cast<std::uint8_t>(tag))
                << ": " << b.count << " spans, " << pct(b.ticks) << "%\n";
    }
  }

  if (probe_from != invalid_node) {
    run.probe(probe_from);
    run.net().run_to_quiescence();
    const auto& c = run.at(probe_from).last_census();
    if (c.has_value())
      std::cout << "probe from " << probe_from << ": leader " << c->leader
                << ", census " << c->ids.size() << " ids\n";
  }

  spec_ok = rep.ok() ? 1.0 : 0.0;
  write_report();

  if (tr) {
    const auto cp = telemetry::extract_critical_path(tr->events());
    std::cout << "critical path: " << cp.length << " hops (sim time "
              << run.net().now() << ")\n";
    std::ofstream out(trace_path);
    // An armed sampler adds its health series as Perfetto counter tracks;
    // without one the output is byte-identical to the pre-series format.
    if (rec != nullptr && rec->sampler() != nullptr)
      telemetry::write_perfetto_trace(out, tr->events(), "discovery_cli",
                                      telemetry::counter_tracks(*rec->sampler()));
    else
      telemetry::write_perfetto_trace(out, tr->events(), "discovery_cli");
    if (!out) {
      std::cerr << "failed to write " << trace_path << '\n';
      return 1;
    }
    std::cout << "[trace] " << trace_path << '\n';
    run.net().remove_observer(tr.get());
  }

  write_flight();
  std::cout << "spec check: " << (rep.ok() ? "OK" : "FAILED") << '\n';
  if (!rep.ok()) std::cout << rep.to_string();
  return rep.ok() ? 0 : 1;
}
