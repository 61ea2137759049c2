// bench_diff — regression gate over BENCH_*.json files.
//
//   bench_diff [options] BASELINE CURRENT
//   bench_diff [options] --dir CURRENT_DIR BASELINE...
//
// Two-file mode compares one bench report against its baseline.  Directory
// mode takes the committed baselines as positional arguments and looks for
// a file of the same basename under CURRENT_DIR — how CI gates a fresh
// bench run against the repository's committed BENCH_*.json set.
//
// What is checked, per row (rows are matched by label; "n" must agree):
//   * measured vs baseline measured, within a relative tolerance
//     (two-sided: silent speedups distort later diffs as much as
//     regressions, and a "faster" virtual-time metric means the workload
//     changed, not that the code got better);
//   * measured <= predicted_bound whenever the current row carries a
//     positive bound (absolute, tolerance-free: the bound is the paper's
//     complexity envelope, not a noisy host measurement);
//   * the current file's "ok" verdict must be true.
// Rows present only in the baseline are failures (a metric disappeared);
// rows present only in the current file are reported but pass (new
// metrics are allowed to land before their baseline does).
//
// Tolerances (relative, e.g. 0.10 = ±10%), most specific wins:
//   --tol LABEL=F           exact row label
//   --tol-pattern SUBSTR=F  any label containing SUBSTR
//   --default-tol F         everything else (default 0.10)
// Wall-clock-ish metrics on shared CI hosts want generous patterns
// (e.g. --tol-pattern events_per_sec=0.9); virtual-time metrics are
// deterministic and keep the tight default.
//
// Exit codes follow json_check's classified convention, plus 1:
//   0 ok / 1 regression / 2 usage / 3 io / 4 parse / 5 schema
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace {

using asyncrd::telemetry::json_parse;
using asyncrd::telemetry::json_value;

constexpr int exit_ok = 0;
constexpr int exit_regression = 1;
constexpr int exit_usage = 2;
constexpr int exit_io = 3;
constexpr int exit_parse = 4;
constexpr int exit_schema = 5;

struct bench_row {
  double n = 0.0;
  double measured = 0.0;
  double bound = 0.0;
};

struct bench_file {
  std::string bench;
  bool ok = false;
  /// Label -> row, in file order for stable reporting.
  std::vector<std::pair<std::string, bench_row>> rows;
  std::string git_sha, build_type, compiler, host;
  double cores = 0.0;  ///< 0 = not recorded (provenance schema 1)
};

struct tolerances {
  double fallback = 0.10;
  std::map<std::string, double> by_label;
  std::vector<std::pair<std::string, double>> by_pattern;

  double for_label(const std::string& label) const {
    if (const auto it = by_label.find(label); it != by_label.end())
      return it->second;
    for (const auto& [pat, tol] : by_pattern)
      if (label.find(pat) != std::string::npos) return tol;
    return fallback;
  }
};

/// Loads and shape-checks one bench report.  On failure stores a
/// classified exit code in `code`.
std::optional<bench_file> load(const std::string& path, int& code) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_diff: " << path << ": cannot open\n";
    code = exit_io;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    std::cerr << "bench_diff: " << path << ": read error\n";
    code = exit_io;
    return std::nullopt;
  }
  std::string err;
  const auto doc = json_parse(buf.str(), &err);
  if (!doc.has_value()) {
    std::cerr << "bench_diff: " << path << ": parse error: " << err << '\n';
    code = exit_parse;
    return std::nullopt;
  }
  const auto bad = [&](const std::string& what) {
    std::cerr << "bench_diff: " << path << ": " << what << '\n';
    code = exit_schema;
    return std::nullopt;
  };
  if (!doc->is_object()) return bad("top-level value is not an object");
  bench_file f;
  const json_value* bench = doc->find("bench");
  if (bench == nullptr || !bench->is_string())
    return bad("missing string \"bench\"");
  f.bench = bench->as_string();
  const json_value* okv = doc->find("ok");
  if (okv == nullptr || !okv->is_bool()) return bad("missing bool \"ok\"");
  f.ok = okv->as_bool();
  const json_value* rows = doc->find("rows");
  if (rows == nullptr || !rows->is_array())
    return bad("missing \"rows\" array");
  for (const json_value& r : rows->as_array()) {
    const json_value* label = r.find("label");
    const json_value* n = r.find("n");
    const json_value* measured = r.find("measured");
    const json_value* bound = r.find("predicted_bound");
    if (!r.is_object() || label == nullptr || !label->is_string() ||
        n == nullptr || !n->is_number() || measured == nullptr ||
        !measured->is_number() || bound == nullptr || !bound->is_number())
      return bad("row missing label/n/measured/predicted_bound");
    // NaN/inf metric values (a wall-clock of 0 turned into an inf rate, a
    // 0/0 ratio, a "null" the parser mapped to a non-finite number) would
    // sail through every tolerance comparison below — NaN compares false
    // against anything, so a NaN regression would PASS.  Classify them as
    // schema failures instead of letting them leak into the gate.
    if (!std::isfinite(n->as_number()) ||
        !std::isfinite(measured->as_number()) ||
        !std::isfinite(bound->as_number()))
      return bad("row \"" + label->as_string() +
                 "\" has a non-finite n/measured/predicted_bound");
    f.rows.emplace_back(label->as_string(),
                        bench_row{n->as_number(), measured->as_number(),
                                  bound->as_number()});
  }
  if (const json_value* prov = doc->find("provenance");
      prov != nullptr && prov->is_object()) {
    const auto str = [&](const char* k) {
      const json_value* v = prov->find(k);
      return v != nullptr && v->is_string() ? v->as_string() : std::string();
    };
    f.git_sha = str("git_sha");
    f.build_type = str("build_type");
    f.compiler = str("compiler");
    f.host = str("host");
    if (const json_value* v = prov->find("cores"); v != nullptr && v->is_number())
      f.cores = v->as_number();
  }
  return f;
}

/// Compares one pair of loaded files; returns a classified exit code.
int diff(const std::string& base_path, const bench_file& base,
         const std::string& cur_path, const bench_file& cur,
         const tolerances& tol) {
  std::cout << "== " << base.bench << ": " << base_path << " -> " << cur_path
            << " ==\n";
  if (base.git_sha != cur.git_sha || base.build_type != cur.build_type ||
      base.compiler != cur.compiler || base.cores != cur.cores) {
    std::cout << "provenance: " << base.git_sha << "/" << base.build_type
              << "/" << base.compiler << "/" << base.cores << " cores -> "
              << cur.git_sha << "/" << cur.build_type << "/" << cur.compiler
              << "/" << cur.cores << " cores\n";
  }
  bool ok = true;
  if (base.bench != cur.bench) {
    std::cout << "FAIL: bench name changed: \"" << base.bench << "\" -> \""
              << cur.bench << "\"\n";
    ok = false;
  }
  if (!cur.ok) {
    std::cout << "FAIL: current file reports ok=false\n";
    ok = false;
  }

  // Rows are identified by (label, n): sweep benches legitimately repeat a
  // label across sweep sizes, so the label alone is not a key.
  const auto row_key = [](const std::string& label, double n) {
    std::ostringstream k;
    k << label << " (n=" << n << ")";
    return k.str();
  };
  std::map<std::string, const bench_row*> cur_rows;
  for (const auto& [label, row] : cur.rows)
    cur_rows.emplace(row_key(label, row.n), &row);

  for (const auto& [label, b] : base.rows) {
    const std::string key = row_key(label, b.n);
    const auto it = cur_rows.find(key);
    if (it == cur_rows.end()) {
      std::cout << "FAIL: row \"" << key << "\" disappeared\n";
      ok = false;
      continue;
    }
    const bench_row& c = *it->second;
    cur_rows.erase(it);
    const double t = tol.for_label(label);
    // Relative change against the baseline; a zero baseline only matches
    // a zero measurement (any appearance from zero is a real change).
    const double denom = std::abs(b.measured);
    const double rel = denom == 0.0
                           ? (c.measured == 0.0 ? 0.0 : HUGE_VAL)
                           : std::abs(c.measured - b.measured) / denom;
    const bool within = rel <= t;
    const bool bound_ok = c.bound <= 0.0 || c.measured <= c.bound;
    if (!within) {
      std::cout << "FAIL: row \"" << key << "\": measured " << b.measured
                << " -> " << c.measured << " (" << rel * 100.0
                << "% change, tolerance " << t * 100.0 << "%)\n";
      ok = false;
    }
    if (!bound_ok) {
      std::cout << "FAIL: row \"" << key << "\": measured " << c.measured
                << " exceeds predicted_bound " << c.bound << '\n';
      ok = false;
    }
    if (within && bound_ok)
      std::cout << "  ok: " << key << " " << b.measured << " -> "
                << c.measured << " (" << rel * 100.0 << "% <= " << t * 100.0
                << "%)\n";
  }
  for (const auto& [label, row] : cur_rows)
    std::cout << "  new row \"" << label << "\" (no baseline yet): measured "
              << row->measured << '\n';
  std::cout << (ok ? "PASS" : "FAIL") << ": " << base.bench << '\n';
  return ok ? exit_ok : exit_regression;
}

/// CURRENT_DIR/<basename of baseline_path>.
std::string current_for(const std::string& dir,
                        const std::string& baseline_path) {
  const std::size_t slash = baseline_path.find_last_of('/');
  const std::string base = slash == std::string::npos
                               ? baseline_path
                               : baseline_path.substr(slash + 1);
  return dir + "/" + base;
}

void print_help(std::ostream& os) {
  os << "usage: bench_diff [options] BASELINE CURRENT\n"
        "       bench_diff [options] --dir CURRENT_DIR BASELINE...\n"
        "\n"
        "Compares bench reports (BENCH_*.json) row by row (matched by\n"
        "label) and fails on out-of-tolerance changes, exceeded\n"
        "predicted bounds, vanished rows, or ok=false.  Directory mode\n"
        "pairs each committed BASELINE with CURRENT_DIR/<same basename>.\n"
        "\n"
        "options:\n"
        "  --default-tol F         relative tolerance (default 0.10)\n"
        "  --tol LABEL=F           per-row tolerance (exact label)\n"
        "  --tol-pattern SUBSTR=F  tolerance for labels containing SUBSTR\n"
        "                          (first matching pattern wins)\n"
        "\n"
        "exit codes:\n"
        "  0  all comparisons pass\n"
        "  1  regression (out of tolerance / bound exceeded / row lost)\n"
        "  2  usage error\n"
        "  3  I/O error (file unreadable)\n"
        "  4  parse error (not JSON)\n"
        "  5  schema violation (not a bench report)\n"
        "With several failing pairs the exit code is the first failure's;\n"
        "every pair is still compared and reported.\n";
}

/// Parses "KEY=F"; returns false on malformed input.
bool parse_tol_arg(const std::string& arg, std::string& key, double& tol) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = arg.substr(0, eq);
  try {
    std::size_t used = 0;
    tol = std::stod(arg.substr(eq + 1), &used);
    if (used != arg.size() - eq - 1) return false;
  } catch (...) {
    return false;
  }
  return tol >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  tolerances tol;
  std::string dir;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto missing = [&](const char* what) {
      std::cerr << "bench_diff: " << a << " requires " << what << '\n';
      return exit_usage;
    };
    if (a == "--help" || a == "-h") {
      print_help(std::cout);
      return exit_ok;
    } else if (a == "--dir") {
      if (i + 1 >= argc) return missing("a directory");
      dir = argv[++i];
    } else if (a == "--default-tol") {
      if (i + 1 >= argc) return missing("a number");
      try {
        tol.fallback = std::stod(argv[++i]);
      } catch (...) {
        return missing("a number");
      }
    } else if (a == "--tol" || a == "--tol-pattern") {
      if (i + 1 >= argc) return missing("KEY=F");
      std::string key;
      double t = 0.0;
      if (!parse_tol_arg(argv[++i], key, t)) return missing("KEY=F");
      if (a == "--tol")
        tol.by_label[key] = t;
      else
        tol.by_pattern.emplace_back(key, t);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "bench_diff: unknown option " << a << '\n';
      print_help(std::cerr);
      return exit_usage;
    } else {
      files.push_back(a);
    }
  }

  std::vector<std::pair<std::string, std::string>> pairs;  // baseline, current
  if (dir.empty()) {
    if (files.size() != 2) {
      print_help(std::cerr);
      return exit_usage;
    }
    pairs.emplace_back(files[0], files[1]);
  } else {
    if (files.empty()) {
      print_help(std::cerr);
      return exit_usage;
    }
    for (const std::string& f : files) pairs.emplace_back(f, current_for(dir, f));
  }

  int first_failure = exit_ok;
  const auto classify = [&](int code) {
    if (code != exit_ok && first_failure == exit_ok) first_failure = code;
  };
  for (const auto& [base_path, cur_path] : pairs) {
    int code = exit_ok;
    const auto base = load(base_path, code);
    if (!base.has_value()) {
      classify(code);
      continue;
    }
    const auto cur = load(cur_path, code);
    if (!cur.has_value()) {
      classify(code);
      continue;
    }
    classify(diff(base_path, *base, cur_path, *cur, tol));
  }
  return first_failure;
}
