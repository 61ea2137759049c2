// perfbench — the repository benchmark's measuring process.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//             [--toy] [--spans PATH]
//
// Runs workload W in a closed loop for T seconds (at least three operations
// untraced, two traced) on inputs made from seed S, verifies every
// operation, and prints one JSON result as its last stdout line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced operations and reports the per-layer metrics of the traced
// ones, plus the tracing overhead; --spans writes the layer spans there.
// The line before the result is the run's provenance.  perfbench/run.py
// builds this binary and is the entry point; see perfbench/README.md.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/version.h"
#include "workload.h"

namespace perfbench {

namespace {

int failures_noted = 0;

[[noreturn]] void usage(const std::string& err) {
  std::cerr << "perfbench: " << err << "\n"
            << "usage: perfbench --workload W --seed S --seconds T "
               "--trace 0|1 [--toy] [--spans PATH]\n";
  std::exit(2);
}

std::uint64_t number(const std::string& flag, const std::string& text) {
  const auto v = asyncrd::parse_u64(text);
  if (!v) usage(flag + ": expected a non-negative integer, got '" + text + "'");
  return *v;
}

void print_provenance(const run_options& opt) {
  std::cout << "{\"provenance\": {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"usable_cores\": " << usable_cores() << ", \"build_type\": \""
            << asyncrd::build_type << "\", \"compiler\": \""
            << asyncrd::build_compiler << "\", \"git_sha\": \""
            << asyncrd::build_git_sha << "\"}}\n";
}

}  // namespace

void note_failure(const std::string& what) {
  if (++failures_noted <= 5) std::cerr << "perfbench: FAILED " << what << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  run_options opt;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = number(a, next());
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(number(a, next()));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = number(a, next());
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (a == "--toy") {
      opt.toy = true;
    } else if (a == "--spans") {
      spans_path = next();
    } else {
      usage("unknown flag " + a);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");

  span_log log;
  run_result out;
  std::unique_ptr<workload> w = make_sim_workload(opt, log, out);
  if (!w) w = make_service_workload(opt, log, out);
  if (!w) usage("unknown workload '" + opt.workload + "'");
  print_provenance(opt);

  // Closed loop: each operation starts after the previous one was verified.
  const std::uint64_t min_ops = opt.trace ? 2 : 3;
  std::vector<double> traced_discover, untraced_discover;
  const double started = now_s();
  const std::uint64_t fixed_ops = w->fixed_ops();
  for (std::uint64_t id = 0; fixed_ops == 0 || id < fixed_ops; ++id) {
    const bool traced = opt.trace && id % 2 == 1;
    const op_times t = w->op(id, traced);
    if (t.complete) {
      (traced ? traced_discover : untraced_discover).push_back(t.discover_s);
      if (traced) {
        out.layers.add("trace.span_coverage", "ratio",
                       t.layers_s / (t.setup_s + t.discover_s));
      } else {
        out.e2e.add("setup_s", "s", t.setup_s);
        out.e2e.add("discover_s", "s", t.discover_s);
      }
    }
    if (fixed_ops == 0 && id + 1 >= min_ops && now_s() - started >= opt.seconds)
      break;
  }

  out.e2e.add("peak_rss_mb", "MiB", peak_rss_mb());
  out.layers.add("failed_share", "ratio",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)));
  if (opt.trace) {
    out.layers.add("trace.overhead_s", "s",
                   median(traced_discover) - median(untraced_discover));
  }
  if (!spans_path.empty() && !log.write(spans_path))
    std::cerr << "perfbench: could not write spans to " << spans_path << "\n";

  const bool correct = out.consistent && out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << (opt.trace ? out.layers : out.e2e).to_json() << "}"
            << std::endl;
  return 0;
}
