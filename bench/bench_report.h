// Shared JSON emission for the bench harness: every bench binary keeps its
// human-readable text table on stdout and additionally writes
// BENCH_<name>.json so CI and later PRs can diff runs against the paper's
// complexity envelope (docs/OBSERVABILITY.md documents the schema and the
// comparison workflow).
//
// Usage:
//
//   int main(int argc, char** argv) {
//     asyncrd::bench::reporter rep("thm5_generic_msgs", argc, argv);
//     ...
//     rep.add(topology, n, measured_messages, n_log_n_bound);
//     rep.merge_stats(run.statistics());   // per-type message/bit counts
//     ...
//     return rep.finish(all_ok);
//   }
//
// Flags consumed (anything else is left alone):
//   --json <path>   write the report to <path> (default BENCH_<name>.json
//                   in the working directory)
//   --no-json       skip the JSON file entirely
#pragma once

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/version.h"
#include "sim/stats.h"
#include "telemetry/json.h"

namespace asyncrd::bench {

/// Schema version of the provenance block itself (bumped independently of
/// any one bench's row layout).  2 added "cores".
inline constexpr std::uint64_t provenance_schema = 2;

/// The machine's hostname, or "unknown".
inline std::string bench_host() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] == '\0' ? "unknown" : std::string(buf);
}

/// Writes the shared "provenance" member every BENCH_*.json carries: which
/// code, build, and machine produced the numbers.  Emitted from here — not
/// per-bench — so json_check can validate one shape and bench_diff can
/// explain "the compiler changed" differences.  Call between a key-less
/// point of an open object.
inline void write_provenance(telemetry::json_writer& w) {
  w.key("provenance").begin_object();
  w.kv("schema", provenance_schema);
  w.kv("git_sha", asyncrd::build_git_sha);
  w.kv("build_type", asyncrd::build_type);
  w.kv("compiler", asyncrd::build_compiler);
  w.kv("host", bench_host());
  // Thread-count-dependent rows (sweep_1k_x8) only compare across hosts
  // with the same core count.
  w.kv("cores", std::uint64_t{std::thread::hardware_concurrency()});
  w.end_object();
}

class reporter {
 public:
  reporter(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)),
        path_("BENCH_" + name_ + ".json"),
        start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--no-json") {
        enabled_ = false;
      } else if (a == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      }
    }
  }

  /// One datapoint of the sweep: the theorem's independent variable `n`,
  /// the measured quantity, and the predicted bound it is audited against
  /// (0 when the paper states no bound for this row).
  void add(std::string label, double n, double measured,
           double predicted_bound) {
    rows_.push_back({std::move(label), n, measured, predicted_bound});
  }

  /// Accumulates per-type message/bit counts across the bench's runs.
  void merge_stats(const sim::stats& st) { merge_types(st.by_type()); }
  void merge_types(
      const std::map<std::string, sim::type_stats, std::less<>>& types) {
    for (const auto& [type, ts] : types) {
      auto& acc = by_type_[type];
      acc.count += ts.count;
      acc.bits += ts.bits;
    }
  }

  /// Attaches a free-form scalar (appears under "notes").
  void note(std::string key, double value) { notes_[std::move(key)] = value; }

  /// Extension hook: called with the writer while the top-level object is
  /// open, right before "notes" — emit extra members (trace_analyze adds
  /// its width-histogram block this way).
  void set_extra(std::function<void(telemetry::json_writer&)> fn) {
    extra_ = std::move(fn);
  }

  /// Writes the JSON file (unless --no-json) and returns the process exit
  /// code: 0 when ok and the write succeeded, 1 otherwise.
  int finish(bool ok) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    if (!enabled_) return ok ? 0 : 1;

    telemetry::json_writer w;
    w.begin_object();
    w.kv("bench", name_);
    w.kv("ok", ok);
    w.kv("wall_ms", wall_ms);
    write_provenance(w);

    // Columnar views (what regression tooling plots) ...
    w.key("labels").begin_array();
    for (const auto& r : rows_) w.value(r.label);
    w.end_array();
    w.key("n_values").begin_array();
    for (const auto& r : rows_) w.value(r.n);
    w.end_array();
    w.key("measured").begin_array();
    for (const auto& r : rows_) w.value(r.measured);
    w.end_array();
    w.key("predicted_bound").begin_array();
    for (const auto& r : rows_) w.value(r.predicted);
    w.end_array();

    // ... and the same rows as self-describing records.
    w.key("rows").begin_array();
    for (const auto& r : rows_) {
      w.begin_object();
      w.kv("label", r.label);
      w.kv("n", r.n);
      w.kv("measured", r.measured);
      w.kv("predicted_bound", r.predicted);
      w.end_object();
    }
    w.end_array();

    w.key("messages_by_type").begin_object();
    for (const auto& [type, ts] : by_type_) {
      w.key(type).begin_object();
      w.kv("count", ts.count);
      w.kv("bits", ts.bits);
      w.end_object();
    }
    w.end_object();

    if (extra_) extra_(w);

    w.key("notes").begin_object();
    for (const auto& [k, v] : notes_) w.kv(k, v);
    w.end_object();
    w.end_object();

    std::ofstream out(path_);
    out << w.take() << '\n';
    if (!out) {
      std::cerr << "bench_report: failed to write " << path_ << '\n';
      return 1;
    }
    std::cout << "\n[json] " << path_ << '\n';
    return ok ? 0 : 1;
  }

 private:
  struct row {
    std::string label;
    double n;
    double measured;
    double predicted;
  };

  std::string name_;
  std::string path_;
  bool enabled_ = true;
  std::chrono::steady_clock::time_point start_;
  std::vector<row> rows_;
  std::map<std::string, sim::type_stats, std::less<>> by_type_;
  std::map<std::string, double> notes_;
  std::function<void(telemetry::json_writer&)> extra_;
};

}  // namespace asyncrd::bench
