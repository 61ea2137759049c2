// trace_analyze — read a causal trace (discovery_cli --trace / Perfetto
// JSON) and explain the run: critical path, fan-out, per-type latency,
// and (with --parallelism) the trace-derived concurrency profile that
// sized the parallel-engine work (ROADMAP "The parallel engine", closed
// when the engine was deleted).
//
//   trace_analyze [options] FILE...
//     --path-lines N   print at most N hops of the critical path (default 24)
//     --quiet          summary lines only (no per-hop path listing)
//     --flight         FILEs are flight-recorder dumps (the last-K-events
//                      ring the runtime health layer writes on a watchdog
//                      trip or checker violation), not causal traces:
//                      prints the event mix, the tail of the ring, and the
//                      cause chain ending at the final event
//     --parallelism    compute the parallelism profile per FILE: width
//                      histogram over virtual-time buckets, total-work /
//                      critical-path ratio (the available speedup), and
//                      per-link lookahead slack — and write the rows as a
//                      bench report (default BENCH_parallelism.json)
//     --bucket N       virtual-time bucket size for --parallelism
//                      (default 1 = exact times)
//     --label NAME     row-label prefix for the next FILE (repeatable, one
//                      per file in order; default: the file's basename)
//     --json PATH      bench-report output path for --parallelism
//     --no-json        skip the bench-report file
//
// The trace is self-contained: every 'X' slice carries its causal record
// (id, cause, release, lamport) in "args", so the genealogy is rebuilt from
// the JSON alone and re-verified here — lamport values must satisfy
// max(parent lamports) + 1.
//
// Exit codes follow json_check's classified convention (see --help):
//   0 ok / 2 usage / 3 io / 4 parse / 5 schema
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_report.h"
#include "common/parse.h"
#include "telemetry/critical_path.h"
#include "telemetry/json.h"
#include "telemetry/parallelism.h"
#include "telemetry/tracer.h"

namespace {

using namespace asyncrd;
using telemetry::json_parse;
using telemetry::json_value;
using telemetry::trace_event;
using telemetry::trace_none;

// Exit codes (also the per-file failure classification), aligned with
// tools/json_check.cpp.
constexpr int exit_ok = 0;
constexpr int exit_usage = 2;
constexpr int exit_io = 3;
constexpr int exit_parse = 4;
constexpr int exit_schema = 5;

std::uint64_t num_or(const json_value& obj, std::string_view key,
                     std::uint64_t fallback) {
  const json_value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return static_cast<std::uint64_t>(v->as_number());
}

/// Rebuilds trace events from the 'X' slices of a trace document.
/// Returns a classified exit code (exit_ok on success).
int load_trace(const std::string& path, std::vector<trace_event>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return exit_io;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    std::cerr << path << ": read error\n";
    return exit_io;
  }
  std::string err;
  const auto doc = json_parse(buf.str(), &err);
  if (!doc.has_value()) {
    std::cerr << path << ": parse error: " << err << '\n';
    return exit_parse;
  }
  const json_value* evs = doc->find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    std::cerr << path << ": no \"traceEvents\" array (at byte "
              << doc->offset << ")\n";
    return exit_schema;
  }
  for (const json_value& ev : evs->as_array()) {
    const json_value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const json_value* args = ev.find("args");
    const json_value* name = ev.find("name");
    const json_value* cat = ev.find("cat");
    if (args == nullptr || !args->is_object() || name == nullptr ||
        cat == nullptr) {
      std::cerr << path << ": slice without args/name/cat (at byte "
                << ev.offset << ")\n";
      return exit_schema;
    }
    trace_event t;
    t.id = num_or(*args, "id", 0);
    t.cause = num_or(*args, "cause", trace_none);
    t.release = num_or(*args, "release", trace_none);
    t.lamport = num_or(*args, "lamport", 0);
    t.sends = static_cast<std::uint32_t>(num_or(*args, "sends", 0));
    t.at = num_or(ev, "ts", 0);
    t.to = static_cast<node_id>(num_or(ev, "tid", invalid_node));
    if (cat->as_string() == "wake") {
      t.what = trace_event::kind::wake;
    } else {
      t.what = trace_event::kind::deliver;
      t.type = name->as_string();
      t.from = static_cast<node_id>(num_or(*args, "from", invalid_node));
      t.sent_at = num_or(*args, "sent_at", 0);
      t.bits = num_or(*args, "bits", 0);
    }
    out.push_back(std::move(t));
  }
  if (out.empty()) {
    std::cerr << path << ": trace contains no activations\n";
    return exit_schema;
  }
  return exit_ok;
}

/// Recomputes every Lamport timestamp from the parent edges and compares
/// with what the file claims; also recomputes the binding parent.
int verify_and_bind(const std::string& path, std::vector<trace_event>& evs) {
  std::unordered_map<std::uint64_t, const trace_event*> by_id;
  by_id.reserve(evs.size());
  const auto lamport_of = [&](std::uint64_t id) -> std::uint64_t {
    if (id == trace_none) return 0;
    const auto it = by_id.find(id);
    return it == by_id.end() ? 0 : it->second->lamport;
  };
  for (trace_event& e : evs) {
    const std::uint64_t lc = lamport_of(e.cause);
    const std::uint64_t lr = lamport_of(e.release);
    const std::uint64_t want = std::max(lc, lr) + 1;
    if (e.lamport != want) {
      std::cerr << path << ": event " << e.id << " claims lamport "
                << e.lamport << ", causal parents imply " << want << '\n';
      return exit_schema;
    }
    if (e.cause == trace_none && e.release == trace_none)
      e.parent = trace_none;
    else
      e.parent = lc >= lr ? (e.cause != trace_none ? e.cause : e.release)
                          : e.release;
    by_id.emplace(e.id, &e);
  }
  return exit_ok;
}

void print_path(const telemetry::critical_path& cp, std::size_t max_lines) {
  std::cout << "critical path (" << cp.length << " hops, ends at t="
            << cp.makespan << "):\n";
  const std::size_t n = cp.chain.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > max_lines && i == max_lines / 2) {
      std::cout << "  ... (" << n - max_lines << " hops elided) ...\n";
      i = n - (max_lines - max_lines / 2) - 1;
      continue;
    }
    const trace_event& e = cp.chain[i];
    std::cout << "  [" << e.lamport << "] t=" << e.at << ' ';
    if (e.what == trace_event::kind::wake)
      std::cout << "wake    " << e.to;
    else
      std::cout << "deliver " << e.from << " -> " << e.to << ' ' << e.type
                << (e.release != trace_none ? "  (released)" : "");
    std::cout << '\n';
  }
  std::cout << "hops by type:";
  for (const auto& [type, hops] : cp.hops_by_type)
    std::cout << "  " << type << "=" << hops;
  std::cout << '\n';
}

int analyze(const std::string& path, std::size_t path_lines, bool quiet) {
  std::vector<trace_event> evs;
  if (const int code = load_trace(path, evs); code != exit_ok) return code;
  if (const int code = verify_and_bind(path, evs); code != exit_ok)
    return code;

  std::cout << "== " << path << " ==\n";
  std::uint64_t wakes = 0, delivers = 0;
  for (const trace_event& e : evs)
    (e.what == trace_event::kind::wake ? wakes : delivers) += 1;
  std::cout << "activations: " << evs.size() << " (" << wakes << " wakes, "
            << delivers << " deliveries)\n";

  const auto cp = telemetry::extract_critical_path(evs);
  if (quiet)
    std::cout << "critical path: " << cp.length << " hops, ends at t="
              << cp.makespan << '\n';
  else
    print_path(cp, path_lines);

  const auto fan = telemetry::compute_fanout(evs);
  std::cout << "fan-out: mean " << fan.mean_fanout << ", max "
            << fan.max_fanout << " (event " << fan.max_fanout_event
            << "), " << fan.sends << " sends attributed\n";

  std::cout << "latency by type (sim-time units):\n";
  for (const auto& [type, tl] : telemetry::latency_by_type(evs))
    std::cout << "  " << type << ": n=" << tl.count << " mean="
              << tl.mean_delay() << " max=" << tl.max_delay << '\n';
  return exit_ok;
}

/// One --parallelism result, kept for the bench-report emission.
struct parallelism_result {
  std::string label;
  telemetry::parallelism_profile profile;
};

int analyze_parallelism(const std::string& path, const std::string& label,
                        sim::sim_time bucket,
                        std::vector<parallelism_result>& results) {
  std::vector<trace_event> evs;
  if (const int code = load_trace(path, evs); code != exit_ok) return code;
  if (const int code = verify_and_bind(path, evs); code != exit_ok)
    return code;

  const auto p = telemetry::compute_parallelism(evs, bucket);
  std::cout << "== " << path << " (parallelism, label " << label << ") ==\n";
  std::cout << "work: " << p.activations << " activations, critical path "
            << p.critical_path_len << " -> available speedup "
            << p.work_cp_ratio << "x\n";
  std::cout << "width (bucket " << p.bucket << "): mean " << p.mean_width
            << ", p50 " << p.width.p50() << ", p90 " << p.width.p90()
            << ", max " << p.max_width << " over " << p.buckets_occupied
            << " occupied buckets (makespan " << p.makespan << ")\n";
  std::cout << "lookahead: " << p.links << " links, min " << p.lookahead_min
            << ", mean " << p.lookahead_mean << ", max " << p.lookahead_max
            << " (conservative sync window = min)\n";
  results.push_back({label, p});
  return exit_ok;
}

/// Fills the shared bench reporter from the collected profiles: one
/// deterministic (virtual-time-derived) row per metric, plus the width
/// histograms under a "parallelism" extra block.
int emit_parallelism(bench::reporter& rep,
                     std::vector<parallelism_result> results) {
  for (const auto& r : results) {
    const auto& p = r.profile;
    const double n = static_cast<double>(p.activations);
    rep.add(r.label + ".activations", n, n, 0.0);
    rep.add(r.label + ".critical_path", n,
            static_cast<double>(p.critical_path_len), 0.0);
    // Brent: mean width can never beat work/span, so the ratio doubles as
    // the bound the width profile is audited against.
    rep.add(r.label + ".work_cp_ratio", n, p.work_cp_ratio, 0.0);
    rep.add(r.label + ".mean_width", n, p.mean_width, p.work_cp_ratio);
    rep.add(r.label + ".max_width", n, static_cast<double>(p.max_width), 0.0);
    rep.add(r.label + ".lookahead_min", n,
            static_cast<double>(p.lookahead_min), 0.0);
  }
  rep.set_extra([results = std::move(results)](telemetry::json_writer& w) {
    w.key("parallelism").begin_object();
    for (const auto& r : results) {
      const auto& p = r.profile;
      w.key(r.label).begin_object();
      w.kv("bucket", p.bucket);
      w.kv("makespan", p.makespan);
      w.kv("buckets_occupied", p.buckets_occupied);
      w.key("width");
      p.width.write_json(w);
      w.key("lookahead").begin_object();
      w.kv("links", p.links);
      w.kv("min", p.lookahead_min);
      w.kv("mean", p.lookahead_mean);
      w.kv("max", p.lookahead_max);
      w.end_object();
      w.end_object();
    }
    w.end_object();
  });
  return rep.finish(true) == 0 ? exit_ok : exit_io;
}

/// One entry of a flight-recorder dump, as parsed back from the JSON.
struct flight_row {
  std::uint64_t at = 0;
  std::string kind;           // "wake" / "deliver" / "timer"
  std::string type;           // deliver only: dispatch-tag name
  std::uint64_t from = 0, to = 0, node = 0;
  std::uint64_t id = trace_none;     // absent key == none
  std::uint64_t cause = trace_none;  // absent key == none
};

void print_flight_row(const flight_row& r) {
  std::cout << "  t=" << r.at << ' ';
  if (r.kind == "wake")
    std::cout << "wake    " << r.node;
  else if (r.kind == "deliver")
    std::cout << "deliver " << r.from << " -> " << r.to << ' ' << r.type;
  else
    std::cout << "timer   key=" << r.cause;
  if (r.id != trace_none) std::cout << "  id=" << r.id;
  if (r.kind != "timer" && r.cause != trace_none)
    std::cout << " cause=" << r.cause;
  std::cout << '\n';
}

/// Summarizes a flight-recorder dump: header counters, per-kind/per-type
/// event mix, the tail of the ring, and the cause chain that produced the
/// final event — the postmortem view of "what was the run doing when it
/// died".  Exit-0 criterion: the file parses and matches the flight schema.
int analyze_flight(const std::string& path, std::size_t path_lines,
                   bool quiet) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return exit_io;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    std::cerr << path << ": read error\n";
    return exit_io;
  }
  std::string err;
  const auto doc = json_parse(buf.str(), &err);
  if (!doc.has_value()) {
    std::cerr << path << ": parse error: " << err << '\n';
    return exit_parse;
  }
  const json_value* dump_kind = doc->find("kind");
  if (dump_kind == nullptr || !dump_kind->is_string() ||
      dump_kind->as_string() != "flight") {
    std::cerr << path << ": not a flight dump (\"kind\" != \"flight\", at byte "
              << doc->offset << ")\n";
    return exit_schema;
  }
  const json_value* evs = doc->find("events");
  if (evs == nullptr || !evs->is_array()) {
    std::cerr << path << ": no \"events\" array (at byte " << doc->offset
              << ")\n";
    return exit_schema;
  }

  std::vector<flight_row> rows;
  rows.reserve(evs->as_array().size());
  std::uint64_t prev_at = 0;
  std::unordered_map<std::string, std::uint64_t> by_kind, by_type;
  for (const json_value& ev : evs->as_array()) {
    const json_value* k = ev.find("kind");
    if (!ev.is_object() || k == nullptr || !k->is_string()) {
      std::cerr << path << ": event without \"kind\" (at byte " << ev.offset
                << ")\n";
      return exit_schema;
    }
    flight_row r;
    r.kind = k->as_string();
    r.at = num_or(ev, "at", 0);
    if (r.at < prev_at) {
      std::cerr << path << ": events out of time order (at byte " << ev.offset
                << ")\n";
      return exit_schema;
    }
    prev_at = r.at;
    r.id = num_or(ev, "id", trace_none);
    r.cause = num_or(ev, "cause", trace_none);
    if (r.kind == "deliver") {
      r.from = num_or(ev, "from", 0);
      r.to = num_or(ev, "to", 0);
      if (const json_value* t = ev.find("type"); t != nullptr && t->is_string())
        r.type = t->as_string();
      ++by_type[r.type];
    } else if (r.kind == "wake") {
      r.node = num_or(ev, "node", 0);
    } else if (r.kind == "timer") {
      r.cause = num_or(ev, "key", trace_none);
    } else {
      std::cerr << path << ": unknown event kind \"" << r.kind
                << "\" (at byte " << ev.offset << ")\n";
      return exit_schema;
    }
    ++by_kind[r.kind];
    rows.push_back(std::move(r));
  }

  std::cout << "== " << path << " (flight dump) ==\n";
  std::cout << "ring: " << num_or(*doc, "recorded", rows.size()) << "/"
            << num_or(*doc, "capacity", 0) << " events, "
            << num_or(*doc, "dropped", 0) << " older events dropped\n";
  if (rows.empty()) {
    std::cout << "(empty ring)\n";
    return exit_ok;
  }
  std::cout << "window: t=" << rows.front().at << " .. t=" << rows.back().at
            << '\n';
  std::cout << "by kind:";
  for (const auto& [k, n] : by_kind) std::cout << "  " << k << "=" << n;
  std::cout << '\n';
  if (!by_type.empty()) {
    std::cout << "deliveries by type:";
    for (const auto& [t, n] : by_type) std::cout << "  " << t << "=" << n;
    std::cout << '\n';
  }
  if (quiet) return exit_ok;

  const std::size_t tail = std::min(path_lines, rows.size());
  std::cout << "last " << tail << " events:\n";
  for (std::size_t i = rows.size() - tail; i < rows.size(); ++i)
    print_flight_row(rows[i]);

  // Walk the cause chain backwards from the final event: which activation
  // genealogy was still live when the recorder stopped.  Ids reference the
  // causal tracer's id space, so ancestors older than the ring are simply
  // absent — the chain ends where the ring's memory does.
  std::unordered_map<std::uint64_t, const flight_row*> by_id;
  for (const flight_row& r : rows)
    if (r.id != trace_none) by_id.emplace(r.id, &r);
  const flight_row* cur = &rows.back();
  std::size_t hops = 0;
  std::cout << "cause chain from final event:\n";
  print_flight_row(*cur);
  while (cur->kind != "timer" && cur->cause != trace_none &&
         hops < path_lines) {
    const auto it = by_id.find(cur->cause);
    if (it == by_id.end()) {
      std::cout << "  (cause " << cur->cause << " older than the ring)\n";
      break;
    }
    cur = it->second;
    print_flight_row(*cur);
    ++hops;
  }
  return exit_ok;
}

std::string basename_label(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.resize(dot);
  return base;
}

void print_help(std::ostream& os) {
  os << "usage: trace_analyze [options] FILE...\n"
        "\n"
        "Explains a causal trace (discovery_cli --trace) or a flight dump.\n"
        "\n"
        "options:\n"
        "  --path-lines N  print at most N hops of the critical path\n"
        "                  (default 24)\n"
        "  --quiet         summary lines only\n"
        "  --flight        FILEs are flight-recorder dumps\n"
        "  --parallelism   compute the parallelism profile per FILE (width\n"
        "                  histogram per virtual-time bucket, work /\n"
        "                  critical-path ratio, per-link lookahead) and\n"
        "                  write the rows as a bench report\n"
        "  --bucket N      virtual-time bucket size (default 1)\n"
        "  --label NAME    row-label prefix for the next FILE (repeatable;\n"
        "                  default: the file's basename)\n"
        "  --json PATH     bench-report path (default\n"
        "                  BENCH_parallelism.json)\n"
        "  --no-json       skip the bench-report file\n"
        "\n"
        "exit codes (aligned with json_check):\n"
        "  0  every file analyzes cleanly\n"
        "  2  usage error\n"
        "  3  I/O error (file unreadable, report unwritable)\n"
        "  4  parse error (not JSON)\n"
        "  5  schema violation (not a trace / flight dump, or the causal\n"
        "     record is inconsistent: a lamport value contradicts its\n"
        "     parents)\n"
        "With several failing files the exit code is the first failure's;\n"
        "every file is still analyzed and reported.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t path_lines = 24;
  bool quiet = false;
  bool flight = false;
  bool parallelism = false;
  sim::sim_time bucket = 1;
  std::vector<std::string> files;
  std::vector<std::string> labels;  // parallel to files; "" = basename
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--path-lines" && i + 1 < argc) {
      const auto v = asyncrd::parse_u64(argv[++i]);
      if (!v) {
        std::cerr << "trace_analyze: --path-lines: expected a non-negative "
                     "integer, got '"
                  << argv[i] << "'\n";
        return exit_usage;
      }
      path_lines = static_cast<std::size_t>(*v);
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--flight") {
      flight = true;
    } else if (a == "--parallelism") {
      parallelism = true;
    } else if (a == "--bucket" && i + 1 < argc) {
      const auto v = asyncrd::parse_u64(argv[++i]);
      if (!v || *v == 0) {
        std::cerr << "trace_analyze: --bucket: expected a positive integer, "
                     "got '"
                  << argv[i] << "'\n";
        return exit_usage;
      }
      bucket = *v;
    } else if (a == "--label" && i + 1 < argc) {
      labels.resize(files.size());
      labels.push_back(argv[++i]);
    } else if (a == "--json" && i + 1 < argc) {
      ++i;  // consumed by bench::reporter
    } else if (a == "--no-json") {
      // consumed by bench::reporter
    } else if (a == "--help" || a == "-h") {
      print_help(std::cout);
      return exit_ok;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "trace_analyze: unknown option " << a << '\n';
      print_help(std::cerr);
      return exit_usage;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty() || (flight && parallelism)) {
    print_help(std::cerr);
    return exit_usage;
  }
  labels.resize(files.size());

  int first_failure = exit_ok;
  const auto classify = [&](int code) {
    if (code != exit_ok && first_failure == exit_ok) first_failure = code;
  };
  std::vector<parallelism_result> results;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string label =
        labels[i].empty() ? basename_label(files[i]) : labels[i];
    if (flight)
      classify(analyze_flight(files[i], path_lines, quiet));
    else if (parallelism)
      classify(analyze_parallelism(files[i], label, bucket, results));
    else
      classify(analyze(files[i], path_lines, quiet));
  }
  if (parallelism && first_failure == exit_ok && !results.empty()) {
    bench::reporter rep("parallelism", argc, argv);
    classify(emit_parallelism(rep, std::move(results)));
  }
  return first_failure;
}
