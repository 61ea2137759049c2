// Online cost profiler for the simulator hot path: wall-clock attribution
// of event processing to phases, with zero allocation and near-zero cost
// when disarmed (one pointer test per instrumented site).
//
// Why: speeding up the simulator needs to know where the cycles actually
// go — queue maintenance, fault ruling, ARQ recovery, per-message-type
// protocol handlers, or the tracing/health instruments themselves — before
// any of it is worth optimizing.  The profiler answers that on a live run instead of
// requiring an external sampling profiler and symbol-level post-processing.
//
// Mechanism: a flat "phase switch" state machine over a cheap monotonic
// tick source (TSC on x86-64, the virtual counter on AArch64,
// steady_clock elsewhere).  Instrumented sites bracket their work with
// begin()/end(); nesting attributes each tick interval to exactly one
// phase (entering an inner phase pauses the outer), so the per-phase
// totals are *exclusive* times that sum to at most the event-loop span.
// The stack is a fixed array — nothing allocates on the hot path — and
// tag-dispatched handler time is bucketed by sim::message::dispatch_tag.
//
// Counts are exact but *ticks are sampled*: a tick read costs ~15-40ns on
// common hosts (more under virtualization), and an instrumented delivery
// crosses ~9 span boundaries, so timing every event costs 20%+ of the
// loop.  Instead the event loop gates each event (event_begin/event_end):
// on 1 in `sample_every` events the spans read real ticks and the event's
// full span accrues into sampled_span_ticks; on the rest every span is a
// count-only increment.  Attribution *fractions* (phase ticks /
// sampled_span_ticks) are unbiased; absolute nanoseconds extrapolate by
// events/sampled_events at report time.  That keeps the armed cost under
// the 5% budget bench_observer_overhead enforces.
//
// Ticks convert to nanoseconds once, at report time, via a steady_clock
// calibration (profile_ticks_per_ns); the hot path never touches the
// slower clock.  telemetry::run_recorder arms one via
// recorder_options::profile; the result serializes as the run report's
// "profile" block and, with the series sampler also armed, exports as
// cumulative "prof.*" Perfetto counter tracks.
#pragma once

#include <array>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace asyncrd::sim {

/// Cheap monotonic tick source for hot-path timing.  The unit is
/// unspecified (TSC cycles, a fixed-frequency counter, or nanoseconds);
/// convert with profile_ticks_per_ns at report time.
inline std::uint64_t profile_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per nanosecond, calibrated against steady_clock on first call
/// (then cached).  Never called from the hot path.
double profile_ticks_per_ns() noexcept;

class cost_profiler {
 public:
  /// Fixed phases of event processing.  handler time is *not* listed here:
  /// delivery handlers are bucketed per dispatch_tag (tag_bucket), wake
  /// handlers under `wake`.
  enum class phase : std::uint8_t {
    queue_pop,   ///< calendar-queue pop (incl. window slides / migration)
    fault_rule,  ///< chaos fault plan ruling on a transmission
    arq,         ///< reliable-link adapter: transport_deliver / on_timer
    observers,   ///< observer fan-out (tracer, flight ring, feeds, monitors)
    probes,      ///< health probes (series sampler, stall watchdog)
    wake,        ///< process::on_wake handler
  };
  static constexpr std::size_t phase_count = 6;
  static constexpr std::size_t tag_count = 256;  ///< dispatch_tag domain

  struct bucket {
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
  };

  /// Event gate, called by the loop around each event: picks whether this
  /// event's spans read ticks (1 in sample_every) or just count.  Spans
  /// never straddle the gate, so the sampling flag is stable within them.
  void event_begin() noexcept {
    ++events_;
    if (until_sample_ == 0) {
      until_sample_ = sample_every_ - 1;
      sampling_ = true;
      ++sampled_events_;
      event_started_ = profile_ticks();
    } else {
      --until_sample_;
      sampling_ = false;
    }
  }
  void event_end() noexcept {
    if (sampling_) sampled_span_ += profile_ticks() - event_started_;
  }

  /// Opens a phase span.  Time from now until the next boundary (a nested
  /// begin, or this span's end) is attributed to `p`.
  void begin(phase p) noexcept {
    if (!sampling_) {
      ++phases_[static_cast<std::size_t>(p)].count;
      return;
    }
    push(static_cast<std::uint32_t>(p), phases_.data());
  }

  /// Opens a delivery-handler span bucketed by the message's dispatch tag.
  void begin_tag(std::uint8_t tag) noexcept {
    if (!sampling_) {
      ++tags_[tag].count;
      return;
    }
    push(tag, tags_.data());
  }

  /// Closes the innermost span (attributing its trailing interval).
  void end() noexcept {
    if (!sampling_) return;
    const std::uint64_t t = profile_ticks();
    frame& f = stack_[--depth_];
    f.table[f.slot].ticks += t - last_;
    last_ = t;
  }

  /// Event-loop span accounting: the network brackets run_to_quiescence
  /// with these so `loop_ticks` bounds the attributable total.
  void loop_enter() noexcept { loop_started_ = profile_ticks(); }
  void loop_exit() noexcept { loop_ticks_ += profile_ticks() - loop_started_; }

  const std::array<bucket, phase_count>& phases() const noexcept {
    return phases_;
  }
  const std::array<bucket, tag_count>& tags() const noexcept { return tags_; }
  const bucket& of(phase p) const noexcept {
    return phases_[static_cast<std::size_t>(p)];
  }
  std::uint64_t loop_ticks() const noexcept { return loop_ticks_; }

  std::uint64_t events() const noexcept { return events_; }
  std::uint64_t sampled_events() const noexcept { return sampled_events_; }
  std::uint32_t sample_every() const noexcept { return sample_every_; }
  void set_sample_every(std::uint32_t every) noexcept {
    sample_every_ = every == 0 ? 1 : every;
    until_sample_ = 0;
  }

  /// Total measured span of the sampled events — the denominator for
  /// unbiased attribution fractions (phase ticks / sampled span).
  std::uint64_t sampled_span_ticks() const noexcept { return sampled_span_; }

  /// Extrapolation factor from sampled ticks to whole-run estimates
  /// (events / sampled_events; 1 when nothing was gated).
  double sample_scale() const noexcept {
    return sampled_events_ == 0
               ? 1.0
               : static_cast<double>(events_) /
                     static_cast<double>(sampled_events_);
  }

  /// Sum of ticks attributed to every phase and tag bucket.
  std::uint64_t attributed_ticks() const noexcept {
    std::uint64_t sum = 0;
    for (const bucket& b : phases_) sum += b.ticks;
    for (const bucket& b : tags_) sum += b.ticks;
    return sum;
  }

  /// Exclusive handler ticks across all dispatch tags (sampler column).
  std::uint64_t handler_ticks() const noexcept {
    std::uint64_t sum = 0;
    for (const bucket& b : tags_) sum += b.ticks;
    return sum;
  }

  void reset() noexcept {
    phases_ = {};
    tags_ = {};
    depth_ = 0;
    loop_ticks_ = 0;
    events_ = 0;
    sampled_events_ = 0;
    sampled_span_ = 0;
    until_sample_ = 0;
    sampling_ = true;
  }

 private:
  struct frame {
    std::uint32_t slot;
    bucket* table;
  };
  static constexpr int max_depth = 16;

  void push(std::uint32_t slot, bucket* table) noexcept {
    const std::uint64_t t = profile_ticks();
    if (depth_ > 0) {
      frame& f = stack_[depth_ - 1];
      f.table[f.slot].ticks += t - last_;
    }
    if (depth_ < max_depth) {
      stack_[depth_].slot = slot;
      stack_[depth_].table = table;
    }
    // Beyond max_depth (never reached by the instrumented sites, which
    // nest at most ~6 deep) the span degrades to attributing into the
    // deepest tracked frame rather than writing out of bounds.
    else {
      --depth_;
    }
    ++depth_;
    ++table[slot].count;
    last_ = t;
  }

  std::array<bucket, phase_count> phases_{};
  std::array<bucket, tag_count> tags_{};
  std::array<frame, max_depth> stack_{};
  int depth_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t loop_started_ = 0;
  std::uint64_t loop_ticks_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t sampled_events_ = 0;
  std::uint64_t event_started_ = 0;
  std::uint64_t sampled_span_ = 0;
  std::uint32_t sample_every_ = 32;
  std::uint32_t until_sample_ = 0;
  // True outside the event gate so manual begin/end use (tests, ad-hoc
  // instrumentation) always attributes.
  bool sampling_ = true;
};

/// Stable lower-case name of a fixed phase ("queue_pop", "fault_rule", ...).
const char* profile_phase_name(cost_profiler::phase p) noexcept;

/// RAII span: no-op when `p` is nullptr (the disarmed case), so call sites
/// stay one line.  The tag overload opens a dispatch-tag handler span.
class prof_scope {
 public:
  prof_scope(cost_profiler* p, cost_profiler::phase ph) noexcept : p_(p) {
    if (p_ != nullptr) p_->begin(ph);
  }
  struct tag_t {};
  prof_scope(cost_profiler* p, std::uint8_t tag, tag_t) noexcept : p_(p) {
    if (p_ != nullptr) p_->begin_tag(tag);
  }
  ~prof_scope() {
    if (p_ != nullptr) p_->end();
  }
  prof_scope(const prof_scope&) = delete;
  prof_scope& operator=(const prof_scope&) = delete;

 private:
  cost_profiler* p_;
};

}  // namespace asyncrd::sim
