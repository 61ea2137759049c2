// The benchmark's closed loop: a workload runs one operation at a time, and
// the next starts only after the previous one was verified by the paper's
// §1.2 checker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "spans.h"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;  ///< tiny inputs, for the self-test
};

/// Everything one benchmark process measured.
struct run_result {
  std::uint64_t attempted = 0;  ///< operations (components or clusters)
  std::uint64_t failed = 0;
  /// False if a count the engine makes deterministic (messages, virtual
  /// time) differed between two operations on the same input.
  bool consistent = true;
  metrics e2e;     ///< end-to-end metrics, from untraced operations
  metrics layers;  ///< per-layer metrics, from traced operations
};

/// Wall time of one operation, split the way the end-to-end metrics are.
struct op_times {
  double setup_s = 0.0;     ///< input, components, build and wake
  double discover_s = 0.0;  ///< first wake to a verified result
  double layers_s = 0.0;    ///< sum of the layer spans inside both
  /// False if the operation never reached a result (a cluster that did not
  /// converge); its times are dropped.
  bool complete = true;
};

class workload {
 public:
  virtual ~workload() = default;
  /// Runs operation `id` (setup, discovery, check, teardown).  A traced
  /// operation also arms the in-library instruments and records per-layer
  /// metrics.
  virtual op_times op(std::uint64_t id, bool traced) = 0;
  /// Operations per run for a fixed-size check; 0 runs for --seconds.
  virtual std::uint64_t fixed_ops() const { return 0; }
};

/// giant_component, fragmented, lossy, or the reproducer check; nullptr for
/// any other name.
std::unique_ptr<workload> make_sim_workload(const run_options& opt,
                                            span_log& log, run_result& out);

/// service_loopback; nullptr for any other name.
std::unique_ptr<workload> make_service_workload(const run_options& opt,
                                                span_log& log,
                                                run_result& out);

/// Reports one failed operation on stderr (first few only, to keep logs
/// readable when a whole fragmented run fails).
void note_failure(const std::string& what);

}  // namespace perfbench
