// The asynchronous message-passing network: event queue, FIFO channels,
// wake-up control, sender blocking (for adversarial executions), accounting.
//
// Model fidelity (paper §1.2):
//   * reliable: every sent message is eventually delivered;
//   * asynchronous: delivery delays are arbitrary (scheduler-chosen);
//   * FIFO per ordered pair (u, v): enforced structurally — each channel is
//     a queue and a delivery event always releases the channel head;
//   * no global start: nodes wake via explicit wake events, via adversary
//     quiescence hooks, or implicitly upon first message delivery
//     ("nodes ... may wake-up nearby neighbors").
//
// The knowledge-graph constraint (u may only message nodes whose id it
// knows) is the *algorithms'* obligation; the network transports any
// (from, to) pair.  Tests audit the discipline with an observer that
// replays the model's E-growth rule over the send/deliver stream.
//
// Chaos mode relaxes "reliable": an installed fault_plan drops, duplicates,
// extra-delays, or outage-blackholes transmissions at the send/release
// choke points, and an installed link_adapter (sim/reliable_link.h) rebuilds
// the reliable-FIFO contract above the lossy wire so the paper's algorithms
// run unmodified.  Observers and sim::stats see the *transport* level —
// envelopes, retransmissions, and acks — which is what makes the chaos
// overhead measurable (bench_chaos_overhead).
//
// Hot-path layout (the dense core): node ids are compacted to dense slot
// indices on add_node, so the node table is a std::vector and the per-event
// lookups are array indexing.  A channel holds a record only while its
// queue holds a message: records live in a slab (a std::vector plus a free
// list) addressed through a flat open-addressed table keyed by the packed
// (from, to) index pair, and the channel retires (leaves the table, returns
// its slot) the moment it drains.  A pair carries about two messages over a
// whole discovery run, so channel memory follows the messages in flight,
// not the Θ(n log n) messages sent.  A retired slot keeps its vector FIFO
// (common/fifo.h) buffer for the next channel that reuses it.  A sender
// counts its live channels (block_sender's guard) and, while blocked, lists
// the channels it holds messages on (unblock_sender orders them by
// destination id at release time).  A pair's fault stream lives in a side
// table keyed by node ids, so it continues across retirements.  Events flow
// through a calendar queue (sim/scheduler.h) instead of a binary heap.
// All externally observable orders — event (at, seq) order, channel
// iteration order, node id order — are identical to the original
// std::map-based implementation; the determinism suite and the golden trace
// pin that equivalence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/fifo.h"
#include "common/flat_hash.h"
#include "common/ids.h"
#include "common/rng.h"
#include "sim/message.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/transport.h"

namespace asyncrd::sim {

class network;

/// Seeded per-channel fault plan — the chaos transport layer under the
/// paper's reliable-FIFO model.  Faults are injected where a transmission
/// is put on the wire: the send choke point for unblocked senders, the
/// release choke point for adversarially held messages.  Wakes are local
/// and never faulted, and manual mode (exhaustive exploration) is mutually
/// exclusive with a fault plan.
///
/// Every decision draws from a per-pair splitmix stream keyed by
/// (seed, from, to), so a chaos execution is byte-deterministic per seed
/// regardless of channel creation order, channel retirement or wall-clock
/// timing.
///
/// The paper's algorithms assume reliable links (§1.2); running them
/// directly on a faulty transport voids every guarantee.  Layer
/// sim::reliable_link_layer on top (network::set_link_adapter) to restore
/// the reliable-FIFO contract — the algorithms then run unmodified.
struct fault_plan {
  std::uint64_t seed = 1;
  double drop = 0.0;       ///< per-transmission loss probability
  double duplicate = 0.0;  ///< per-transmission duplication probability
  /// Adversarial extra-reorder: up to this much additional delivery delay,
  /// drawn uniformly per transmission.  Stays inside the model's delay
  /// freedom (delays remain finite and >= the scheduler's choice) but
  /// shuffles cross-channel interleavings far harder than the scheduler
  /// alone; per-channel FIFO stays structural either way.
  sim_time reorder_slack = 0;
  /// Transient link outages: each ordered link (u, v) is down for
  /// `outage_duration` ticks out of every `outage_period`, with a per-link
  /// phase offset derived from the seed.  Transmissions attempted inside a
  /// window are lost.  0 disables outages.
  sim_time outage_period = 0;
  sim_time outage_duration = 0;

  bool enabled() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || reorder_slack > 0 ||
           (outage_period > 0 && outage_duration > 0);
  }
};

/// Chaos-transport accounting (network::faults()).  All counters are
/// cumulative over the run and deterministic per seed.
struct fault_stats {
  std::uint64_t transmissions = 0;  ///< wire attempts the plan ruled on
  std::uint64_t drops = 0;          ///< random losses
  std::uint64_t outage_drops = 0;   ///< losses inside an outage window
  std::uint64_t duplicates = 0;     ///< extra copies injected
  std::uint64_t reorder_delay = 0;  ///< total extra delay ticks injected
};

/// Hook a reliable-delivery adapter implements (sim/reliable_link.h).
/// When installed on a network, application sends (context::send) route
/// through app_send, every transport-level delivery is handed to
/// transport_deliver *inside* the delivery activation (the adapter calls
/// network::app_deliver for each application message it releases in order),
/// and network::schedule_adapter_timer feeds on_timer for retransmission.
class link_adapter {
 public:
  virtual ~link_adapter() = default;
  virtual void app_send(node_id from, node_id to, message_ptr m) = 0;
  virtual void transport_deliver(node_id from, node_id to,
                                 const message_ptr& m) = 0;
  virtual void on_timer(std::uint64_t key) = 0;
};

/// Egress hook for destinations this network does not host (service mode).
/// With a gateway installed, an application send whose destination id is not
/// a local node is handed here — after stats accounting, before the local
/// fault plan or link adapter see it — instead of throwing "unknown
/// destination".  The gateway (src/net/node_host.h) encodes the message
/// into its frame, carries it to the owning process over its own transport,
/// and returns the frame's size in bytes, which the network counts under
/// wire_bytes_sent.  The reply path comes back through
/// network::inject_remote.
class remote_gateway {
 public:
  virtual ~remote_gateway() = default;
  virtual std::size_t remote_send(node_id from, node_id to, message_ptr m) = 0;
};

/// Handle a process uses to interact with the network from inside a handler.
class context {
 public:
  context(network& net, node_id self) noexcept : net_(&net), self_(self) {}

  node_id self() const noexcept { return self_; }
  sim_time now() const noexcept;

  /// Send a message; it will be delivered after a scheduler-chosen delay,
  /// in FIFO order relative to other messages on the same (self, to) pair.
  void send(node_id to, message_ptr m);

 private:
  network* net_;
  node_id self_;
};

/// A protocol endpoint.  One instance per node; driven by the event loop.
class process {
 public:
  virtual ~process() = default;

  /// Called exactly once, before the first message is delivered to this
  /// node (whether the wake was scheduled explicitly or induced by a
  /// message arrival).
  virtual void on_wake(context& ctx) = 0;

  /// Called for each delivered message, after on_wake.  The shared pointer
  /// lets protocols park messages for later (selective receive) without
  /// copying payloads.
  virtual void on_message(context& ctx, node_id from, const message_ptr& m) = 0;
};

/// One network event, as every observer sees it: the paper's stream of wake
/// and delivery events (§1.2), the sends that feed it, and the link
/// adapter's timers.
///
/// Every wake and delivery runs as one *activation* with a unique id.  Two
/// causal edges feed an activation (both happened-before edges in Lamport's
/// sense):
///   * `cause`   — message genealogy: the activation in which the delivered
///     message was sent (or, for a message-induced wake, the same);
///   * `release` — scheduling causality: the activation whose quiescence
///     made the adversary release a held message or inject a wake
///     (Theorem 1's staged stalling, Lemma 3.1's sequential wake-up).
/// Either may be `none` (explicit initial wakes are roots).
struct event_record {
  /// "No such activation": the one sentinel for activation ids.
  static constexpr std::uint64_t none = ~std::uint64_t{0};
  enum class kind : std::uint8_t { send, wake, deliver, timer };

  kind what = kind::send;
  sim_time at = 0;
  node_id from = invalid_node;  ///< send, deliver: the sender
  node_id to = invalid_node;    ///< send, deliver: receiver; wake: woken node
  const message* m = nullptr;   ///< send, deliver: the message
  /// Wake, deliver: this activation.  Send: the activation that sends it
  /// (none for a driver send).  Timer: none (timers run between
  /// activations).
  std::uint64_t id = none;
  /// Wake, deliver: genealogy parent.  Timer: the adapter's timer key.
  std::uint64_t cause = none;
  std::uint64_t release = none;  ///< wake, deliver: scheduling parent
  sim_time sent_at = 0;          ///< deliver: sim time the message left
};

/// Passive sink of network events: the trace recorder, the flight ring,
/// load and metrics feeds, and invariant checkers that must run at every
/// step (e.g. Lemma 5.1).  A delivery reaches observers before the
/// receiving process handles it.
class observer {
 public:
  virtual ~observer() = default;
  virtual void on_event(const event_record& r) = 0;
};

/// Periodic virtual-time callback driven by the event loop (runtime health
/// layer: series samplers, stall watchdogs).  The network fires on_probe
/// after dispatching the first event at or past the probe's due time — the
/// unarmed cost is one integer compare per event.  Probes run *between*
/// activations (like quiescence hooks) and must not send traffic.
class health_probe {
 public:
  virtual ~health_probe() = default;
  /// Returns the next virtual time this probe wants to fire (values <= now
  /// are clamped to now + 1), or 0 to detach for the rest of the run.
  virtual sim_time on_probe(network& net) = 0;
};

/// One holder of a run's memory (network::memory_parts,
/// core::discovery_run::memory_parts): the heap bytes its buffers hold,
/// from capacities times element sizes, each buffer rounded as the
/// allocator rounds it (common/heap.h).
struct memory_part {
  std::string_view name;
  std::size_t bytes = 0;
};

/// Result of network::run.
struct run_result {
  std::uint64_t events_processed = 0;
  /// False iff the event cap was hit (indicates a bug / livelock) or a
  /// health probe aborted the run (`stopped`).
  bool completed = true;
  /// True iff a health probe called network::request_stop (e.g. a stall
  /// watchdog configured to abort on trip).
  bool stopped = false;
};

class network : public transport {
 public:
  explicit network(scheduler& sched) : sched_(&sched) {}

  network(const network&) = delete;
  network& operator=(const network&) = delete;

  // --- topology / membership -------------------------------------------

  /// Registers a node.  May be called before run() or during it (dynamic
  /// node additions, §6); a node added mid-run still needs wake().
  void add_node(node_id id, std::unique_ptr<process> p);

  /// Pre-sizes the dense node table for `n` nodes.  discovery_run calls
  /// this with the graph size before the add_node loop; purely an
  /// optimization.
  void reserve_nodes(std::size_t n);

  std::size_t node_count() const noexcept { return slots_.size(); }
  std::vector<node_id> node_ids() const;
  bool has_node(node_id id) const { return index_of(id) != npos; }

  /// Access to the process object (checkers downcast to the concrete type).
  process* find(node_id id);
  const process* find(node_id id) const;

  bool is_awake(node_id id) const;

  /// Fixes the id width used for bit accounting.  Called automatically on
  /// first run() from the current node count; call explicitly when nodes
  /// will be added dynamically and the final size is larger.
  void set_id_bits(std::size_t bits) { stats_.set_id_bits(bits); }

  // --- scheduling control ----------------------------------------------

  /// Schedules a wake event for the node at now + 1.
  void wake(node_id id);

  /// Adversary control: messages sent by `id` are queued but no delivery is
  /// scheduled until unblock_sender(id).  Must be invoked before `id` sends
  /// anything (Theorem 1 stalls senders from the very start).
  void block_sender(node_id id);

  /// Releases everything `id` has queued and lets future sends through.
  /// Held channels release in destination-id order, each in FIFO order.
  void unblock_sender(node_id id);

  bool is_blocked(node_id id) const {
    const std::uint32_t i = index_of(id);
    return i != npos && slots_[i].blocked;
  }

  // --- chaos transport ---------------------------------------------------
  //
  // A fault plan makes the wire lossy (drop/duplicate/extra-reorder/outage)
  // at the send/release choke points; a link adapter layers a reliable
  // delivery protocol above it.  Both must be installed before any traffic
  // and are mutually exclusive with manual mode.

  /// Installs (or, with a default-constructed plan, clears) the fault plan
  /// and forgets every per-pair fault stream, so each pair's stream starts
  /// afresh from the new plan's seed on its next transmission.
  void set_fault_plan(const fault_plan& plan);
  const fault_plan& fault_config() const noexcept { return plan_; }
  bool faults_enabled() const noexcept { return faults_on_; }
  const fault_stats& faults() const noexcept { return fault_stats_; }

  /// Installs a reliable-delivery adapter (not owned; must outlive the
  /// run).  nullptr uninstalls.
  void set_link_adapter(link_adapter* a);
  link_adapter* adapter() const noexcept { return adapter_; }

  /// Seed for adapter jitter streams (sim::transport): the fault-plan seed,
  /// so a chaos execution replays bit for bit whichever driver the adapter
  /// runs over.
  std::uint64_t link_seed() const noexcept override { return plan_.seed; }

  // --- service mode (src/net/) -------------------------------------------
  //
  // A multi-process deployment hosts a subset of the graph's nodes on each
  // network instance.  Sends to non-local ids exit through the gateway;
  // datagrams arriving from peer processes re-enter via inject_remote.

  /// Installs (nullptr uninstalls) the egress gateway (not owned; must
  /// outlive the run).
  void set_remote_gateway(remote_gateway* g) noexcept { gateway_ = g; }
  remote_gateway* gateway() const noexcept { return gateway_; }

  /// Delivers a message that arrived from a peer process to local node
  /// `to`, as its own delivery activation (advances virtual time by one
  /// tick, wakes the node if needed, fires observers).  `from` need not be
  /// a local node.  Driver-level call: only valid between activations.
  void inject_remote(node_id to, node_id from, const message_ptr& m);

  /// Per-tag accounting of the frames the gateway encoded (all zero
  /// without a gateway).  Each remote send is one frame, counted once when
  /// it is handed to the gateway; transport retransmissions are not.
  struct wire_slot {
    std::string_view name;     ///< type_name ("" = tag never sent)
    std::uint64_t frames = 0;  ///< frames handed to the gateway
    std::uint64_t bytes = 0;   ///< frame bytes, header byte included
  };
  std::uint64_t wire_bytes_sent() const noexcept { return wire_bytes_; }
  std::uint64_t wire_frames() const noexcept { return wire_frames_; }
  const std::array<wire_slot, 128>& wire_by_tag() const noexcept {
    return wire_slots_;
  }

  /// Raw transport-level send, bypassing the installed adapter (adapters
  /// use this to put envelopes and acks on the wire; the fault plan
  /// applies).  With no adapter installed this is exactly what
  /// context::send does.
  void transport_send(node_id from, node_id to, message_ptr m) override;

  /// Delivers an application message to `to`'s process.  Only valid inside
  /// a delivery activation (adapters call it from transport_deliver after
  /// reassembling FIFO order); the activation's causal identity covers all
  /// messages released this way.
  void app_deliver(node_id to, node_id from, const message_ptr& m) override;

  /// Schedules adapter::on_timer(key) at now + delay (delay >= 1).  Timer
  /// events are causally "between activations", like quiescence hooks.
  void schedule_adapter_timer(sim_time delay, std::uint64_t key) override;

  // --- execution ---------------------------------------------------------

  /// Runs until the event queue drains and scheduler::on_quiescence
  /// declines to inject more work.  max_events guards against livelock.
  run_result run(std::uint64_t max_events = default_event_cap);

  /// Process events until the queue is empty once (no quiescence hook).
  /// Used by drivers that interleave their own actions with execution.
  run_result run_to_quiescence(std::uint64_t max_events = default_event_cap);

  // --- manual stepping (exhaustive interleaving exploration) --------------
  //
  // In manual mode nothing is scheduled: sends park in their FIFO channels
  // and wakes park in a pending map; an external driver enumerates the
  // currently ready steps and picks which fires next.  This exposes every
  // delivery/wake interleaving the asynchronous model admits (FIFO per
  // channel is still structural: only channel heads are offered).
  // See sim/explore.h for the exhaustive driver.

  struct manual_step {
    bool is_wake;
    node_id a;  // the woken node / channel source
    node_id b;  // channel destination (deliver only)
    bool operator<(const manual_step& o) const noexcept {
      return std::tie(is_wake, a, b) < std::tie(o.is_wake, o.a, o.b);
    }
    bool operator==(const manual_step& o) const noexcept {
      return is_wake == o.is_wake && a == o.a && b == o.b;
    }
  };

  /// Enables manual mode.  Must be called before any traffic or wakes.
  void set_manual_mode();

  /// Ready steps, deterministically ordered (pending wakes first, then
  /// channel heads by (from, to)).
  std::vector<manual_step> manual_options() const;

  /// Fires one ready step (must be an element of manual_options()).
  void take_step(const manual_step& s);

  sim_time now() const noexcept override { return now_; }
  stats& statistics() noexcept { return stats_; }
  const stats& statistics() const noexcept { return stats_; }

  /// Wall-clock timing of the event loops run so far (cumulative).
  const run_timing& timing() const noexcept { return timing_; }

  // --- observers ---------------------------------------------------------
  //
  // Any number of observers can be armed at once; each event_record fans
  // out in registration order.  Observers are not owned and must outlive
  // the run.

  void add_observer(observer* obs);
  /// Unregisters; returns false if the observer was not registered.
  bool remove_observer(observer* obs);

  // --- runtime health ----------------------------------------------------
  //
  // Probes are virtual-time periodic callbacks (telemetry samplers, stall
  // watchdogs).  They are not owned and must outlive the run.

  /// Registers a health probe; its first firing is at or after `first_at`.
  void add_health_probe(health_probe* p, sim_time first_at);
  /// Unregisters; returns false if the probe was not registered.
  bool remove_health_probe(health_probe* p);

  /// Installs (nullptr uninstalls) an online cost profiler (sim/profiler.h):
  /// hot-path phases — queue pop, fault ruling, ARQ, per-dispatch-tag
  /// handlers, observer fan-out, health probes — get exclusive wall-clock
  /// attribution.  Disarmed cost is one pointer test per site.  Not owned;
  /// must outlive the run.
  void set_profiler(cost_profiler* p) noexcept { prof_ = p; }
  cost_profiler* profiler() const noexcept { return prof_; }

  /// Asks the running event loop to stop after the current event; the
  /// run_result comes back with stopped = true, completed = false.  Called
  /// by probes (watchdog abort-on-trip); a no-op outside run().
  void request_stop() noexcept { stop_requested_ = true; }

  /// Undelivered messages across all channels (held ones included).
  std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// Scheduled events not yet dispatched.
  std::size_t queue_depth() const noexcept { return events_.size(); }
  /// Application-level messages handed to processes (with a reliable-link
  /// adapter installed this counts released app messages, not envelopes) —
  /// the watchdog's delivery-progress signal.
  std::uint64_t app_deliveries() const noexcept { return app_deliveries_; }

  /// True iff no undelivered messages exist anywhere (including held ones).
  bool channels_empty() const noexcept { return in_flight_ == 0; }

  /// Channel records: a record exists only while its channel holds a
  /// message.  channel_opens counts records opened over the run (a pair
  /// that drains and sends again opens a fresh one); channel_slots is the
  /// slab's high-water mark, the most records ever live at once;
  /// live_channels is the number live now.
  std::uint64_t channel_opens() const noexcept { return channel_opens_; }
  std::size_t channel_slots() const noexcept { return channels_.size(); }
  std::size_t live_channels() const noexcept { return channel_index_.size(); }

  /// Heap bytes the network's structures hold, part by part: the queue's
  /// buckets and far-future heap, the channel slab with its FIFO buffers,
  /// the channel and node indexes, the node slots (with blocked senders'
  /// held lists) and the fault-stream tables.  The processes the slots own
  /// are not included.  Walks the queue and the slab: for reports, not for
  /// the hot path.
  std::vector<memory_part> memory_parts() const;

  static constexpr std::uint64_t default_event_cap = 500'000'000;

 private:
  friend class context;

  static constexpr std::uint32_t npos = flat_u64_map::npos;

  /// A message in flight, with the causal record of how it got there.
  struct queued_msg {
    message_ptr m;
    /// Activation that sent it (event_record::none for driver sends).
    std::uint64_t sent_in = event_record::none;
    /// Activation whose quiescence released it (held messages) or preceded
    /// the out-of-activation send; none for ordinary in-activation sends.
    std::uint64_t released_in = event_record::none;
    sim_time sent_at = 0;
  };

  /// A live channel's record.  It is opened by the first message on an
  /// empty (from, to) channel and retired (retire_if_empty) when the last
  /// one leaves; a retired slot keeps its queue's buffer for reuse.
  struct channel {
    /// Messages in flight on this channel, oldest first.
    fifo<queued_msg> queue;
    /// Tail messages with no delivery event yet (sender blocked, or manual
    /// mode).
    std::uint32_t unscheduled = 0;
    std::uint32_t from_index = npos;
    std::uint32_t to_index = npos;
    node_id from = invalid_node;
    node_id to = invalid_node;
  };
  static_assert(std::is_nothrow_move_constructible_v<channel>);

  enum class event_kind : std::uint8_t { wake, deliver, timer };

  struct event {
    sim_time at;
    std::uint64_t seq;
    /// Wake events: the activation that requested the wake (none = root).
    /// Timer events: the adapter's opaque 64-bit timer key.
    std::uint64_t cause;
    /// Wake: target slot index.  Deliver: channel index.  Timer: unused.
    /// A deliver event never names a retired or reused record: each
    /// scheduled message has exactly one delivery event, each delivery pops
    /// one message, and a record retires only once its queue is empty, so
    /// an empty channel has no delivery event pending.
    std::uint32_t target;
    event_kind kind;
  };

  struct event_after {
    bool operator()(const event& x, const event& y) const noexcept {
      if (x.at != y.at) return x.at > y.at;
      return x.seq > y.seq;
    }
  };

  struct node_slot {
    std::unique_ptr<process> proc;
    node_id id = invalid_node;
    bool awake = false;
    bool blocked = false;
    /// Live outgoing channels (block_sender's "after traffic" guard).
    std::uint32_t live_out = 0;
    /// While blocked: channels this sender holds messages on, each added
    /// when its unscheduled count leaves 0.  unblock_sender drops stale
    /// entries and orders the rest by destination id.
    std::vector<std::uint32_t> held;
  };

  /// Slot index for an id; npos if unregistered.  An id equal to its slot
  /// index (every id when they are exactly 0..n-1, as discovery_run builds
  /// them) is found by array indexing; only the others are in node_index_.
  std::uint32_t index_of(node_id id) const noexcept {
    if (id < slots_.size() && slots_[id].id == id) return id;
    return node_index_.find(id);
  }

  /// Live channel index for (from, to) slot indices, opening a record (from
  /// the free list, else a new slab slot) if the channel is empty.
  std::uint32_t channel_of(std::uint32_t from, std::uint32_t to);

  /// Retires channel `ci` if its queue is empty: erases it from the index,
  /// drops the sender's live count and frees the slot.  Called wherever a
  /// queue can empty: the delivery pop, take_step, after a held tail's
  /// release, and after a send (the fault plan may drop a new channel's
  /// first message).
  void retire_if_empty(std::uint32_t ci);

  /// Live channel index, or npos if the channel holds no message.
  std::uint32_t find_channel(std::uint32_t from, std::uint32_t to) const noexcept {
    if (from == npos || to == npos) return npos;
    return channel_index_.find(pack(from, to));
  }

  static std::uint64_t pack(std::uint32_t from, std::uint32_t to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// The one place scheduler::delay is consulted: enforces the ">= 1"
  /// contract (asserted in debug builds, clamped in release so simulated
  /// time stays strictly monotone even under a misbehaving scheduler).
  sim_time scheduled_delay(node_id from, node_id to, const message& m);

  void send_internal(node_id from, node_id to, message_ptr m);

  /// The one place a transmission goes on the wire: rolls the channel's
  /// fault plan (outage / drop / duplicate / extra reorder delay), enqueues
  /// the surviving copies, and schedules their delivery events.  `counted`
  /// says whether `q` is already included in in_flight_ (release path).
  void schedule_transmission(std::uint32_t ci, queued_msg q, bool counted);

  /// True iff the (from, to) link is inside one of its outage windows now.
  bool outage_active(node_id from, node_id to) const noexcept;

  /// The (from, to) pair's fault stream, seeded from (plan seed, from, to)
  /// on the pair's first draw under the current plan.
  rng& fault_stream(node_id from, node_id to);

  void ensure_awake(std::uint32_t idx, std::uint64_t cause,
                    std::uint64_t release);
  /// Fires every due probe and recomputes next_probe_ (the cached minimum
  /// the hot loop compares against).
  void fire_probes();
  void dispatch(const event& ev);
  void push_event(sim_time at, event_kind kind, std::uint32_t target,
                  std::uint64_t cause = event_record::none);
  void finalize_id_bits();

  /// Opens one activation (assigning its id, which it returns) and closes
  /// it, around its callbacks.
  std::uint64_t begin_activation() noexcept {
    active_ = next_event_id_++;
    return active_;
  }
  void end_activation() noexcept {
    last_event_ = active_;
    active_ = event_record::none;
  }
  bool in_activation() const noexcept { return active_ != event_record::none; }
  /// The causal anchor for actions taken right now: the running activation
  /// if inside one, else the last completed one (quiescence ordering).
  std::uint64_t current_anchor() const noexcept {
    return in_activation() ? active_ : last_event_;
  }

  /// Fans one record out to every observer, in registration order.
  void notify(const event_record& r) {
    if (observers_.empty()) return;
    prof_scope ps(prof_, cost_profiler::phase::observers);
    for (observer* o : observers_) o->on_event(r);
  }

  scheduler* sched_;
  std::vector<node_slot> slots_;
  flat_u64_map node_index_;     ///< id -> slot index, for id != index only
  std::vector<channel> channels_;              ///< slab of channel records
  std::vector<std::uint32_t> free_channels_;  ///< retired slots, LIFO
  flat_u64_map channel_index_;  ///< pack(from, to) indices -> live channel
  std::uint64_t channel_opens_ = 0;
  calendar_queue<event, event_after> events_;
  std::uint64_t in_flight_ = 0;  ///< undelivered messages across all channels
  fault_plan plan_;
  fault_stats fault_stats_;
  /// Per-pair fault streams: pack(from id, to id) -> fault_rngs_ index.
  /// Touched only while a fault plan is armed; set_fault_plan clears both.
  flat_u64_map fault_index_;
  std::vector<rng> fault_rngs_;
  bool faults_on_ = false;
  link_adapter* adapter_ = nullptr;
  remote_gateway* gateway_ = nullptr;
  std::array<wire_slot, 128> wire_slots_{};
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t wire_frames_ = 0;
  stats stats_;
  std::vector<observer*> observers_;
  run_timing timing_;
  /// Registered health probes with their next due times.  next_probe_
  /// caches the minimum so the event loop pays one compare per event; it is
  /// the sentinel no_probe when nothing is armed.
  static constexpr sim_time no_probe = ~sim_time{0};
  std::vector<std::pair<health_probe*, sim_time>> probes_;
  sim_time next_probe_ = no_probe;
  cost_profiler* prof_ = nullptr;
  std::uint64_t app_deliveries_ = 0;
  bool stop_requested_ = false;
  sim_time now_ = 0;
  std::uint64_t seq_ = 0;
  /// Causal bookkeeping: every activation (wake or delivery callback) gets
  /// the next id, and each queued message remembers the activation that
  /// sent it, so observers can reconstruct the run's genealogy
  /// (telemetry/tracer.h does).  active_ is the running activation's id,
  /// none between activations; last_event_ is the last completed one.
  std::uint64_t active_ = event_record::none;
  std::uint64_t next_event_id_ = 0;
  std::uint64_t last_event_ = event_record::none;
  bool id_bits_fixed_ = false;
  bool manual_mode_ = false;
  /// Manual mode: woken-but-not-yet-fired nodes, each with the causal
  /// anchor of the wake request (the activation — or last completed
  /// activation — that asked for it).  Keyed by id: deterministic option
  /// order and the anchor survives until take_step fires the wake.
  std::map<node_id, std::uint64_t> pending_wakes_;
};

}  // namespace asyncrd::sim
