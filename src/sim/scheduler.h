// Delivery scheduling — where the asynchronous adversary lives.
//
// The paper's model: "messages sent will eventually arrive after a finite
// but unbounded time" with FIFO per ordered node pair.  The network enforces
// FIFO structurally (per-channel queues; a delivery event always releases
// the channel head), so a scheduler only chooses *when* the next delivery on
// a channel fires.  Adversaries additionally (a) hold whole senders until
// quiescence (Theorem 1's stalling adversary) and (b) inject wake-ups at
// quiescence points (Lemma 3.1's sequential wake-up).
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/heap.h"
#include "common/ids.h"
#include "common/rng.h"
#include "sim/message.h"

namespace asyncrd::sim {

class network;

/// Simulated time.  Unitless; only relative order matters.
using sim_time = std::uint64_t;

/// Wall-clock accounting of the event loop, accumulated across the
/// run_to_quiescence calls of one network.  This is the telemetry layer's
/// event-throughput source: unlike sim_time it measures host time, so it is
/// only meaningful for comparing implementations on one machine.
struct run_timing {
  std::uint64_t loops = 0;     ///< event-loop invocations timed
  std::uint64_t events = 0;    ///< events dispatched inside timed loops
  std::uint64_t wall_ns = 0;   ///< total host time spent dispatching

  double wall_ms() const noexcept {
    return static_cast<double>(wall_ns) / 1e6;
  }
  /// Events dispatched per wall-clock second (0 if nothing was timed).
  double events_per_sec() const noexcept;
};

// --- calendar event queue -------------------------------------------------
//
// The event queue is the single hottest structure in the simulator: every
// send and every wake passes through it.  All five schedulers in the tree
// (unit, uniform-random, the three adversaries) draw *small* delays almost
// always — 1 for unit/adversarial schedules, <= 64 for the default random
// sweep — so a binary heap's O(log n) per operation buys generality nothing
// here.  calendar_queue dispenses events in O(1) amortized: a ring of
// per-tick buckets covers the near future [base, base + window), and the
// rare far-future event (the heavy-tail scheduler's Pareto stragglers) falls
// back to a binary heap that migrates into the ring as time advances.
//
// Ordering contract (what the determinism suite pins): pop() yields events
// in exactly the (at, seq) lexicographic order the old heap produced.
// Within a bucket all events share one timestamp, pushes append in seq
// order (seq is globally monotone), and heap->ring migration happens only
// when the window slides — before any new push can target the freed range —
// so appended order *is* seq order.
//
// Memory follows pending events: a bucket frees its buffer the moment its
// last event pops, so the ring holds buffers only for ticks with events
// still to dispatch.  A cleared bucket would keep the capacity of the
// largest tick it ever held, and over a run every bucket holds some large
// tick: on a 40k-node Generic run that is 23 MB of buffers against a peak
// depth of 39,999 events (1.3 MB).
//
// Event must expose `.at` (sim_time) and `.seq` (uint64_t); After is the
// strict-weak ordering of a max-heap on (at, seq) reversed, i.e. the usual
// priority_queue comparator for a min-queue.
template <typename Event, typename After>
class calendar_queue {
 public:
  /// `window_log2`: ring covers 2^window_log2 ticks of near future.
  explicit calendar_queue(unsigned window_log2 = 12)
      : buckets_(std::size_t{1} << window_log2),
        mask_((std::size_t{1} << window_log2) - 1) {}

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Events currently parked in the far-future heap (telemetry/tests).
  std::size_t overflowed() const noexcept { return overflow_.size(); }

  /// Heap bytes the ring holds (common/heap.h): the bucket array plus
  /// each bucket's buffer.  Walks every bucket, so it is for reports, not
  /// the hot path.
  std::size_t bucket_bytes() const noexcept {
    std::size_t bytes = heap_bytes(buckets_.capacity() * sizeof(bucket));
    for (const bucket& b : buckets_)
      bytes += heap_bytes(b.events.capacity() * sizeof(Event));
    return bytes;
  }
  /// Heap bytes the far-future heap's buffer holds.
  std::size_t overflow_bytes() const noexcept {
    return heap_bytes(overflow_.capacity() * sizeof(Event));
  }

  void push(Event ev) {
    // A past-time event is corruption, not a tolerable slip: `at & mask_`
    // would land it in a *future* ring bucket (the ring is modular), so it
    // would pop out of order up to a whole window late and silently break
    // the (at, seq) total order every replay guarantee rests on.  A bug in
    // any caller's delay arithmetic would surface as a silently reordered
    // run, so the check must survive Release builds.
    ASYNCRD_CHECK(ev.at >= base_ && "calendar_queue: event scheduled in the past");
    ++size_;
    if (ev.at - base_ <= mask_) {
      bucket& b = buckets_[ev.at & mask_];
      b.events.push_back(ev);
      ++in_ring_;
    } else {
      overflow_.push(ev);
    }
  }

  /// Removes and returns the (at, seq)-least event.  Precondition: !empty().
  Event pop() {
    assert(size_ > 0);
    bucket& b = settle();
    const Event ev = b.events[b.head++];
    if (b.head == b.events.size()) {
      std::vector<Event>().swap(b.events);  // drained: free the buffer
      b.head = 0;
    }
    --in_ring_;
    --size_;
    return ev;
  }

 private:
  struct bucket {
    std::vector<Event> events;
    std::size_t head = 0;  ///< first not-yet-popped element
  };

  /// Positions base_ on the earliest non-empty tick and returns its bucket.
  /// Precondition: size_ > 0.
  bucket& settle() {
    if (in_ring_ == 0) {
      // Ring drained: jump straight to the earliest far-future event.
      base_ = overflow_.top().at;
      migrate();
    }
    bucket* b = &buckets_[base_ & mask_];
    while (b->events.empty()) {
      ++base_;
      migrate();  // window slid: the freed tick may pull heap events in
      b = &buckets_[base_ & mask_];
    }
    return *b;
  }

  /// Moves every heap event that now fits the window into its bucket.
  /// Heap pops come out in (at, seq) order, so appends preserve seq order.
  void migrate() {
    while (!overflow_.empty() && overflow_.top().at - base_ <= mask_) {
      const Event& e = overflow_.top();
      buckets_[e.at & mask_].events.push_back(e);
      ++in_ring_;
      overflow_.pop();
    }
  }

  std::vector<bucket> buckets_;
  std::size_t mask_;
  sim_time base_ = 0;         ///< earliest time the ring can hold
  std::size_t in_ring_ = 0;   ///< events resident in buckets
  std::size_t size_ = 0;      ///< total events (ring + heap)
  /// The far-future heap; a priority_queue that reports its capacity.
  struct heap : std::priority_queue<Event, std::vector<Event>, After> {
    std::size_t capacity() const noexcept { return this->c.capacity(); }
  };
  heap overflow_;
};

/// Chooses per-message delivery delays and reacts to quiescence.
class scheduler {
 public:
  virtual ~scheduler() = default;

  /// Delay (>= 1) applied to the delivery event created for this send.
  virtual sim_time delay(node_id from, node_id to, const message& m) = 0;

  /// Called when the event queue drains.  May wake nodes or unblock held
  /// senders via the network reference.  Return true iff anything was
  /// injected (the run loop continues); false ends the run.
  virtual bool on_quiescence(network&) { return false; }

  /// Timing hook: called by the network after each event loop with the
  /// cumulative run_timing.  Default is a no-op; adaptive schedulers and
  /// telemetry collectors can override to observe throughput.
  virtual void on_run_timing(const run_timing&) {}
};

/// Every message takes exactly one time unit.  With the deterministic
/// seq-number tie-break this yields a canonical, repeatable execution.
class unit_delay_scheduler final : public scheduler {
 public:
  sim_time delay(node_id, node_id, const message&) override { return 1; }
};

/// Uniform random delays in [min_delay, max_delay] — the workhorse for
/// property sweeps: different seeds exercise different interleavings.
class random_delay_scheduler final : public scheduler {
 public:
  explicit random_delay_scheduler(std::uint64_t seed, sim_time min_delay = 1,
                                  sim_time max_delay = 64);
  sim_time delay(node_id, node_id, const message&) override;

 private:
  rng rng_;
  sim_time min_delay_;
  sim_time max_delay_;
};

/// Heavy-tailed delays (discrete Pareto-like: ~1/d^alpha tail, capped) —
/// closer to Internet latency than uniform jitter: most messages are fast,
/// a few straggle by orders of magnitude.  The model only requires finite
/// delays, so every correctness property must survive these schedules too.
class heavy_tail_delay_scheduler final : public scheduler {
 public:
  explicit heavy_tail_delay_scheduler(std::uint64_t seed,
                                      double tail_alpha = 1.3,
                                      sim_time cap = 100'000);
  sim_time delay(node_id, node_id, const message&) override;

 private:
  rng rng_;
  double tail_alpha_;
  sim_time cap_;
};

}  // namespace asyncrd::sim
