// Benchmark-side instrumentation: wall-clock spans around the benchmark's
// calls into each library layer, resident-memory reads, and the metric
// accumulator every workload reports into.
//
// Nothing here reaches inside the library: a span brackets one call the
// benchmark makes (a graph generator, the discovery_run constructor,
// network::run, the checker), so a layer's time is measured from outside.
// Spans stay in memory and are written once, at exit, as a Chrome trace
// (load the file in Perfetto or chrome://tracing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Current resident set size of this process, in MiB (/proc/self/statm).
double rss_mb();

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

/// Cores this process may run on (its affinity mask; at least 1).
std::size_t usable_cores();

/// Returns the freed heap and the message pool's cached blocks to the
/// system, so that resident memory read after a layer call shows what that
/// layer holds.  Untimed operations skip it: they reuse the freed heap, as
/// a long-lived process would.
void trim_heap();

class span_log {
 public:
  static constexpr std::size_t none = ~std::size_t{0};

  /// Opens a span named `name` for operation `op`; its parent is the
  /// innermost span still open.  Returns the span's index.
  std::size_t open(std::string name, std::uint64_t op);
  /// Closes span `i` (must be the innermost open one) and returns its
  /// duration in seconds.
  double close(std::size_t i);

  /// Sum of the durations of the closed spans of `op` whose parent is
  /// span `parent`.
  double covered(std::uint64_t op, std::size_t parent) const;

  /// Writes every span as a Chrome trace (one complete event per span,
  /// with its parent and operation ids in args).  Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    std::size_t parent = none;
    std::uint64_t op = 0;
  };
  std::vector<span> spans_;
  std::vector<std::size_t> open_;
};

/// One span for the lifetime of the object; `seconds()` after close.
class scoped_span {
 public:
  scoped_span(span_log& log, std::string name, std::uint64_t op)
      : log_(&log), index_(log.open(std::move(name), op)) {}
  ~scoped_span() { close(); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::size_t index() const noexcept { return index_; }

  /// Closes the span early; returns its duration in seconds.
  double close() {
    if (!closed_) {
      seconds_ = log_->close(index_);
      closed_ = true;
    }
    return seconds_;
  }

 private:
  span_log* log_;
  std::size_t index_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// Samples of every metric a run measures, reported as medians.
class metrics {
 public:
  void add(const std::string& name, const char* unit, double value);
  /// Prints `{"name": {"value": v, "unit": u}, ...}` with full precision.
  std::string to_json() const;

 private:
  struct series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, series> samples_;
};

}  // namespace perfbench
