// json_check — validates telemetry JSON emitted by benches and the CLI.
//
//   json_check FILE...            each FILE must be a bench report with the
//                                 keys {bench, ok, wall_ms, n_values,
//                                 measured, predicted_bound,
//                                 messages_by_type, provenance}
//   json_check --report FILE...   each FILE must be a run report:
//                                 report_version must be a known version,
//                                 required keys {label, variant, nodes,
//                                 total_messages, messages_by_type, wall_ms,
//                                 load, chaos, series, watchdog,
//                                 transitions}; "series" sample times must
//                                 be strictly increasing and every column
//                                 must match their length; "watchdog" must
//                                 carry an "armed" bool and a "trips" array
//   json_check --trace FILE...    each FILE must be a Chrome trace-event /
//                                 Perfetto trace (discovery_cli --trace):
//                                 top-level {traceEvents, displayTimeUnit},
//                                 well-formed events, balanced s/f flow
//                                 pairs (see docs/OBSERVABILITY.md)
//
// Every failure names the offending byte offset: parse errors carry the
// parser's position, semantic errors the offset of the bad (sub)value.
//
// Exit codes (documented in --help):
//   0  every file validates
//   2  usage error
//   3  I/O error (a file could not be opened/read)
//   4  parse error (a file is not JSON)
//   5  schema violation (valid JSON, wrong shape/version)
// With several failing files the exit code is the first failure's; every
// file is still checked and reported.  CI runs this over the bench-smoke,
// run-report, and trace outputs; ctest runs it over discovery_cli
// emissions (see tests/CMakeLists.txt).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace {

using asyncrd::telemetry::json_parse;
using asyncrd::telemetry::json_value;

// Exit codes (also the per-file failure classification).
constexpr int exit_ok = 0;
constexpr int exit_usage = 2;
constexpr int exit_io = 3;
constexpr int exit_parse = 4;
constexpr int exit_schema = 5;

/// Report schema versions this binary understands.
constexpr std::uint64_t min_report_version = 2;
constexpr std::uint64_t max_report_version = 3;

const std::vector<std::string> bench_keys = {
    "bench",    "ok",       "wall_ms",         "n_values",
    "measured", "predicted_bound", "messages_by_type", "provenance"};

const std::vector<std::string> report_keys = {
    "label",    "variant",  "nodes", "total_messages", "messages_by_type",
    "wall_ms",  "load",     "chaos", "series",         "watchdog",
    "transitions"};

bool complain(const std::string& path, std::size_t offset,
              const std::string& what) {
  std::cerr << path << ": " << what << " (at byte " << offset << ")\n";
  return false;
}

bool check_keys(const std::string& path, const json_value& doc,
                const std::vector<std::string>& keys) {
  bool ok = true;
  for (const std::string& k : keys) {
    if (doc.find(k) == nullptr)
      ok = complain(path, doc.offset, "missing required key \"" + k + "\"");
  }
  return ok;
}

/// report_version must be present, integral, and a version this binary
/// knows — otherwise a schema change would silently diff wrong.
bool check_report_version(const std::string& path, const json_value& doc) {
  const json_value* v = doc.find("report_version");
  if (v == nullptr)
    return complain(path, doc.offset, "missing required key \"report_version\"");
  if (!v->is_number())
    return complain(path, v->offset, "\"report_version\" is not a number");
  const double raw = v->as_number();
  const auto ver = static_cast<std::uint64_t>(raw);
  if (raw != static_cast<double>(ver))
    return complain(path, v->offset, "\"report_version\" is not an integer");
  if (ver < min_report_version || ver > max_report_version)
    return complain(path, v->offset,
                    "unknown report_version " + std::to_string(ver) +
                        " (this validator understands " +
                        std::to_string(min_report_version) + ".." +
                        std::to_string(max_report_version) + ")");
  return true;
}

/// "series": {"interval", "stride", "recorded", "t": [...], "cols": {...}}
/// with strictly increasing sample times and every column as long as t.
bool check_series(const std::string& path, const json_value& series) {
  if (!series.is_object())
    return complain(path, series.offset, "\"series\" is not an object");
  bool ok = true;
  for (const char* k : {"interval", "stride", "recorded"}) {
    const json_value* v = series.find(k);
    if (v == nullptr || !v->is_number())
      ok = complain(path, series.offset,
                    "series missing numeric \"" + std::string(k) + "\"");
  }
  const json_value* t = series.find("t");
  if (t == nullptr || !t->is_array())
    return complain(path, series.offset, "series missing \"t\" array");
  double prev = -1.0;
  for (const json_value& v : t->as_array()) {
    if (!v.is_number())
      return complain(path, v.offset, "series time is not a number");
    if (v.as_number() <= prev)
      ok = complain(path, v.offset, "series times are not strictly increasing");
    prev = v.as_number();
  }
  const json_value* cols = series.find("cols");
  if (cols == nullptr || !cols->is_object())
    return complain(path, series.offset, "series missing \"cols\" object");
  const std::size_t n = t->as_array().size();
  for (const auto& [name, col] : cols->as_object()) {
    if (!col.is_array()) {
      ok = complain(path, col.offset,
                    "series column \"" + name + "\" is not an array");
      continue;
    }
    if (col.as_array().size() != n)
      ok = complain(path, col.offset,
                    "series column \"" + name + "\" has " +
                        std::to_string(col.as_array().size()) +
                        " values for " + std::to_string(n) + " sample times");
  }
  return ok;
}

/// "watchdog": {"armed": bool, "window", "trips": [{...}, ...]}
bool check_watchdog(const std::string& path, const json_value& wd) {
  if (!wd.is_object())
    return complain(path, wd.offset, "\"watchdog\" is not an object");
  bool ok = true;
  const json_value* armed = wd.find("armed");
  if (armed == nullptr || !armed->is_bool())
    ok = complain(path, wd.offset, "watchdog missing \"armed\" bool");
  if (const json_value* v = wd.find("window"); v == nullptr || !v->is_number())
    ok = complain(path, wd.offset, "watchdog missing numeric \"window\"");
  const json_value* trips = wd.find("trips");
  if (trips == nullptr || !trips->is_array())
    return complain(path, wd.offset, "watchdog missing \"trips\" array");
  for (const json_value& trip : trips->as_array()) {
    if (!trip.is_object()) {
      ok = complain(path, trip.offset, "watchdog trip is not an object");
      continue;
    }
    for (const char* k : {"at", "last_progress_at", "in_flight",
                          "arq_outstanding"}) {
      const json_value* v = trip.find(k);
      if (v == nullptr || !v->is_number())
        ok = complain(path, trip.offset,
                      "watchdog trip missing numeric \"" + std::string(k) +
                          "\"");
    }
  }
  return ok;
}

/// "profile" (report_version >= 3): {"armed": bool, "loop_ticks",
/// "attributed_fraction", "phases": [...], "tags": [...]} with every
/// bucket entry carrying {name, count, ticks, ns}.
bool check_profile(const std::string& path, const json_value& prof) {
  if (!prof.is_object())
    return complain(path, prof.offset, "\"profile\" is not an object");
  bool ok = true;
  const json_value* armed = prof.find("armed");
  if (armed == nullptr || !armed->is_bool())
    ok = complain(path, prof.offset, "profile missing \"armed\" bool");
  for (const char* k : {"ticks_per_ns", "loop_ticks", "loop_ns", "events",
                        "sampled_events", "sample_every",
                        "attributed_fraction"}) {
    const json_value* v = prof.find(k);
    if (v == nullptr || !v->is_number())
      ok = complain(path, prof.offset,
                    "profile missing numeric \"" + std::string(k) + "\"");
  }
  for (const char* list : {"phases", "tags"}) {
    const json_value* arr = prof.find(list);
    if (arr == nullptr || !arr->is_array()) {
      ok = complain(path, prof.offset,
                    "profile missing \"" + std::string(list) + "\" array");
      continue;
    }
    for (const json_value& e : arr->as_array()) {
      if (!e.is_object()) {
        ok = complain(path, e.offset, "profile bucket is not an object");
        continue;
      }
      if (const json_value* n = e.find("name");
          n == nullptr || !n->is_string())
        ok = complain(path, e.offset, "profile bucket missing \"name\"");
      for (const char* k : {"count", "ticks", "ns"}) {
        const json_value* v = e.find(k);
        if (v == nullptr || !v->is_number())
          ok = complain(path, e.offset,
                        "profile bucket missing numeric \"" + std::string(k) +
                            "\"");
      }
    }
  }
  return ok;
}

/// "wire" (optional; present in service shard reports, which count the
/// frames put on the socket):
/// {"enabled": bool, "bytes_sent", "frames", "by_type": {type: {"count",
/// "bytes"}, ...}} — non-negative numerics, every per-type byte total at
/// least its frame count (each frame carries >= 1 header byte), and when
/// the same type appears in messages_by_type its wire frame count must not
/// exceed the recorded message count (only sends that leave the shard are
/// framed, so they are never lower).
bool check_wire(const std::string& path, const json_value& wire,
                const json_value* messages_by_type) {
  if (!wire.is_object())
    return complain(path, wire.offset, "\"wire\" is not an object");
  bool ok = true;
  if (const json_value* v = wire.find("enabled"); v == nullptr || !v->is_bool())
    ok = complain(path, wire.offset, "wire missing \"enabled\" bool");
  for (const char* k : {"bytes_sent", "frames"}) {
    const json_value* v = wire.find(k);
    if (v == nullptr || !v->is_number()) {
      ok = complain(path, wire.offset,
                    "wire missing numeric \"" + std::string(k) + "\"");
    } else if (v->as_number() < 0.0) {
      ok = complain(path, v->offset,
                    "wire \"" + std::string(k) + "\" is negative");
    }
  }
  // "decode_errors" (service mode): optional, numeric, non-negative.  It
  // counts malformed frames *dropped at receive*, so it is deliberately
  // not part of the frames/bytes_sent sums checked below.
  if (const json_value* v = wire.find("decode_errors")) {
    if (!v->is_number())
      ok = complain(path, v->offset, "wire \"decode_errors\" is not a number");
    else if (v->as_number() < 0.0)
      ok = complain(path, v->offset, "wire \"decode_errors\" is negative");
  }
  const json_value* by_type = wire.find("by_type");
  if (by_type == nullptr || !by_type->is_object())
    return complain(path, wire.offset, "wire missing \"by_type\" object");
  double frames_sum = 0.0, bytes_sum = 0.0;
  for (const auto& [type, entry] : by_type->as_object()) {
    if (!entry.is_object()) {
      ok = complain(path, entry.offset,
                    "wire type \"" + type + "\" is not an object");
      continue;
    }
    double count = -1.0, bytes = -1.0;
    for (const char* k : {"count", "bytes"}) {
      const json_value* v = entry.find(k);
      if (v == nullptr || !v->is_number()) {
        ok = complain(path, entry.offset,
                      "wire type \"" + type + "\" missing numeric \"" +
                          std::string(k) + "\"");
      } else if (v->as_number() < 0.0) {
        ok = complain(path, v->offset,
                      "wire type \"" + type + "\" has negative \"" +
                          std::string(k) + "\"");
      } else {
        (k[0] == 'c' ? count : bytes) = v->as_number();
      }
    }
    if (count >= 0.0 && bytes >= 0.0 && bytes < count)
      ok = complain(path, entry.offset,
                    "wire type \"" + type + "\" has fewer bytes than frames");
    if (count >= 0.0) frames_sum += count;
    if (bytes >= 0.0) bytes_sum += bytes;
    if (count >= 0.0 && messages_by_type != nullptr &&
        messages_by_type->is_object()) {
      if (const json_value* m = messages_by_type->find(type)) {
        const json_value* mc = m->find("count");
        if (mc != nullptr && mc->is_number() && count > mc->as_number())
          ok = complain(path, entry.offset,
                        "wire type \"" + type +
                            "\" counts more frames than messages_by_type");
      }
    }
  }
  const json_value* frames = wire.find("frames");
  if (frames != nullptr && frames->is_number() &&
      frames->as_number() != frames_sum)
    ok = complain(path, frames->offset,
                  "wire \"frames\" does not equal the by_type sum");
  const json_value* bytes = wire.find("bytes_sent");
  if (bytes != nullptr && bytes->is_number() &&
      bytes->as_number() != bytes_sum)
    ok = complain(path, bytes->offset,
                  "wire \"bytes_sent\" does not equal the by_type sum");
  return ok;
}

/// "provenance": {"schema", "git_sha", "build_type", "compiler", "host",
/// "cores"} — the shared stamp bench_report.h writes into every
/// BENCH_*.json.
bool check_provenance(const std::string& path, const json_value& prov) {
  if (!prov.is_object())
    return complain(path, prov.offset, "\"provenance\" is not an object");
  bool ok = true;
  for (const char* k : {"schema", "cores"}) {
    const json_value* v = prov.find(k);
    if (v == nullptr || !v->is_number())
      ok = complain(path, prov.offset,
                    "provenance missing numeric \"" + std::string(k) + "\"");
  }
  for (const char* k : {"git_sha", "build_type", "compiler", "host"}) {
    const json_value* v = prov.find(k);
    if (v == nullptr || !v->is_string())
      ok = complain(path, prov.offset,
                    "provenance missing string \"" + std::string(k) + "\"");
  }
  return ok;
}

bool check_bench(const std::string& path, const json_value& doc) {
  bool ok = check_keys(path, doc, bench_keys);
  if (const json_value* prov = doc.find("provenance"))
    ok = check_provenance(path, *prov) && ok;
  return ok;
}

bool check_report(const std::string& path, const json_value& doc) {
  bool ok = check_report_version(path, doc);
  ok = check_keys(path, doc, report_keys) && ok;
  if (const json_value* series = doc.find("series"))
    ok = check_series(path, *series) && ok;
  if (const json_value* wd = doc.find("watchdog"))
    ok = check_watchdog(path, *wd) && ok;
  // "profile" exists from version 3 on; at v2 its absence is fine.
  const json_value* ver = doc.find("report_version");
  const bool v3 = ver != nullptr && ver->is_number() && ver->as_number() >= 3;
  const json_value* prof = doc.find("profile");
  if (v3 && prof == nullptr)
    ok = complain(path, doc.offset, "missing required key \"profile\"");
  if (prof != nullptr) ok = check_profile(path, *prof) && ok;
  // "wire" is optional at every version (emitted only by service shards),
  // but when present its shape must be right.
  if (const json_value* wire = doc.find("wire"))
    ok = check_wire(path, *wire, doc.find("messages_by_type")) && ok;
  return ok;
}

/// One trace event: an object with name/ph/pid/tid, plus the per-phase
/// requirements ('X' slices need ts+dur+args, flows need ts+id).
bool check_trace_event(const std::string& path, const json_value& ev,
                       std::size_t idx,
                       std::map<double, int>& open_flows) {
  const std::string where = "traceEvents[" + std::to_string(idx) + "]";
  if (!ev.is_object())
    return complain(path, ev.offset, where + " is not an object");
  bool ok = true;
  for (const char* k : {"name", "ph", "pid", "tid"}) {
    if (ev.find(k) == nullptr)
      ok = complain(path, ev.offset,
                    where + " missing key \"" + std::string(k) + "\"");
  }
  const json_value* ph = ev.find("ph");
  if (ph == nullptr || !ph->is_string()) return false;
  const std::string& phase = ph->as_string();
  if (phase == "M") return ok;  // metadata: no timestamp required
  const json_value* ts = ev.find("ts");
  if (ts == nullptr || !ts->is_number())
    ok = complain(path, ev.offset, where + " missing numeric \"ts\"");
  if (phase == "X") {
    if (const json_value* dur = ev.find("dur");
        dur == nullptr || !dur->is_number())
      ok = complain(path, ev.offset, where + " slice missing numeric \"dur\"");
    if (const json_value* args = ev.find("args");
        args == nullptr || !args->is_object()) {
      ok = complain(path, ev.offset, where + " slice missing \"args\" object");
    } else {
      for (const char* k : {"id", "lamport"}) {
        if (args->find(k) == nullptr)
          ok = complain(path, args->offset,
                        where + " args missing \"" + std::string(k) + "\"");
      }
    }
  } else if (phase == "s" || phase == "f") {
    const json_value* id = ev.find("id");
    if (id == nullptr || !id->is_number()) {
      ok = complain(path, ev.offset, where + " flow missing numeric \"id\"");
    } else {
      open_flows[id->as_number()] += phase == "s" ? 1 : -1;
    }
  } else if (phase == "C") {
    // Counter track sample (runtime health series): value in args.
    if (const json_value* args = ev.find("args");
        args == nullptr || !args->is_object() ||
        args->find("value") == nullptr)
      ok = complain(path, ev.offset,
                    where + " counter missing args.\"value\"");
  }
  return ok;
}

bool check_trace(const std::string& path, const json_value& doc) {
  bool ok = check_keys(path, doc, {"traceEvents", "displayTimeUnit"});
  const json_value* evs = doc.find("traceEvents");
  if (evs == nullptr) return false;
  if (!evs->is_array())
    return complain(path, evs->offset, "\"traceEvents\" is not an array");
  std::map<double, int> open_flows;  // flow id -> starts minus finishes
  for (std::size_t i = 0; i < evs->as_array().size(); ++i)
    ok = check_trace_event(path, evs->as_array()[i], i, open_flows) && ok;
  for (const auto& [id, balance] : open_flows) {
    if (balance != 0)
      ok = complain(path, evs->offset,
                    "flow id " + std::to_string(static_cast<long long>(id)) +
                        " has unbalanced s/f events (" +
                        std::to_string(balance) + ")");
  }
  return ok;
}

enum class mode { bench, report, trace };

/// Returns an exit_* classification for one file (exit_ok on success).
int check_file(const std::string& path, mode m) {
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
  if (!doc->is_object()) {
    complain(path, doc->offset, "top-level value is not an object");
    return exit_schema;
  }
  bool ok = true;
  switch (m) {
    case mode::bench: ok = check_bench(path, *doc); break;
    case mode::report: ok = check_report(path, *doc); break;
    case mode::trace: ok = check_trace(path, *doc); break;
  }
  if (ok) std::cout << path << ": OK\n";
  return ok ? exit_ok : exit_schema;
}

void print_help(std::ostream& os) {
  os << "usage: json_check [--report|--bench|--trace] FILE...\n"
        "\n"
        "Validates telemetry JSON (see docs/OBSERVABILITY.md):\n"
        "  --bench   bench reports (default): required key set plus the\n"
        "            provenance stamp {schema, git_sha, build_type,\n"
        "            compiler, host, cores}\n"
        "  --report  run reports: known report_version, required keys,\n"
        "            series sample times strictly increasing with\n"
        "            equal-length columns, watchdog shape, profile shape\n"
        "            (required from report_version 3 on), and the optional\n"
        "            wire block (per-type byte counters consistent with\n"
        "            messages_by_type)\n"
        "  --trace   Chrome trace-event / Perfetto traces: well-formed\n"
        "            events, balanced s/f flow pairs, counter values\n"
        "\n"
        "exit codes:\n"
        "  0  every file validates\n"
        "  2  usage error\n"
        "  3  I/O error (file unreadable)\n"
        "  4  parse error (not JSON)\n"
        "  5  schema violation (valid JSON, wrong shape or unknown\n"
        "     report_version)\n"
        "With several failing files, the exit code is the first failure's;\n"
        "every file is checked and reported either way.\n";
}

}  // namespace

int main(int argc, char** argv) {
  mode m = mode::bench;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--report") {
      m = mode::report;
    } else if (a == "--bench") {
      m = mode::bench;
    } else if (a == "--trace") {
      m = mode::trace;
    } else if (a == "--help" || a == "-h") {
      print_help(std::cout);
      return exit_ok;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "json_check: unknown option " << a << '\n';
      print_help(std::cerr);
      return exit_usage;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    print_help(std::cerr);
    return exit_usage;
  }
  int first_failure = exit_ok;
  for (const std::string& f : files) {
    const int code = check_file(f, m);
    if (code != exit_ok && first_failure == exit_ok) first_failure = code;
  }
  return first_failure;
}
