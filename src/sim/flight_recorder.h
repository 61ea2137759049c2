// Flight recorder: a fixed-size ring of the last K dispatched scheduler
// events, cheap enough to leave armed on production-sized runs.
//
// The recorder is an ordinary network observer.  It keeps a small POD
// projection of every event record except sends — event kind, the
// endpoints, the message's one-byte dispatch tag (so no type-name string is
// touched on the hot path), virtual time, the activation id the event ran
// as, and its genealogy cause — with one struct store per event.  No
// allocation ever happens after construction.
//
// The point of the recorder is the postmortem: when a checker violation or a
// stall-watchdog trip aborts a run, the ring holds the K events leading up
// to it.  telemetry::write_flight_dump serializes it (with cause edges) as
// JSON and tools/trace_analyze --flight reads the dump back — the last
// moments of a sick run without paying full-trace cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "sim/network.h"

namespace asyncrd::sim {

/// One dispatched event.  `event_id` is the activation id the event ran as
/// (deliveries and wakes; `none` for timer events, which run between
/// activations), `cause` its genealogy parent — the same id space the causal
/// tracer uses, so dump entries link to each other while their parents are
/// still in the ring.
struct flight_entry {
  static constexpr std::uint64_t none = event_record::none;
  enum class kind : std::uint8_t { wake = 0, deliver = 1, timer = 2 };

  sim_time at = 0;
  std::uint64_t event_id = none;
  std::uint64_t cause = none;  ///< timer events: the adapter's timer key
  node_id a = invalid_node;    ///< wake: woken node; deliver: sender
  node_id b = invalid_node;    ///< deliver: receiver
  kind what = kind::wake;
  std::uint8_t tag = 0;        ///< deliver: message dispatch tag
};

/// Attach with network::add_observer; every wake, delivery and adapter
/// timer lands in the ring.
class flight_recorder final : public observer {
 public:
  explicit flight_recorder(std::size_t capacity = 4096)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void on_event(const event_record& r) override {
    switch (r.what) {
      case event_record::kind::send:
        return;
      case event_record::kind::wake:
        record({r.at, r.id, r.cause, r.to, invalid_node,
                flight_entry::kind::wake, 0});
        return;
      case event_record::kind::deliver:
        record({r.at, r.id, r.cause, r.from, r.to, flight_entry::kind::deliver,
                r.m->dispatch_tag()});
        return;
      case event_record::kind::timer:
        record({r.at, r.id, r.cause, invalid_node, invalid_node,
                flight_entry::kind::timer, 0});
        return;
    }
  }

  std::size_t capacity() const noexcept { return ring_.size(); }
  std::size_t size() const noexcept { return size_; }
  /// Events that fell off the back of the ring.
  std::uint64_t dropped() const noexcept { return dropped_; }

  void record(const flight_entry& e) noexcept {
    ring_[head_] = e;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size())
      ++size_;
    else
      ++dropped_;
  }

  /// i-th retained entry, oldest first (0 <= i < size()).
  const flight_entry& at(std::size_t i) const noexcept {
    const std::size_t start = size_ < ring_.size() ? 0 : head_;
    std::size_t idx = start + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    return ring_[idx];
  }

  /// Applies `f` to each retained entry, oldest first.
  template <typename F>
  void visit(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(at(i));
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<flight_entry> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace asyncrd::sim
