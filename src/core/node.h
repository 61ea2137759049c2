// The Generic asynchronous resource-discovery algorithm (paper §4) as an
// event-driven state machine, with the policy knobs of §4.5 selecting the
// Bounded and Ad-hoc variants.
//
// The paper's pseudocode (Figures 3-6) is written in blocking "wait for
// message" style; this engine realizes the same semantics with *selective
// receive*: every state declares which message types it consumes, and
// anything else is parked in a per-node deferred queue that is re-scanned
// after every state change.  FIFO order among same-type messages from the
// same sender is preserved.
//
// Paper typos handled here (also listed in DESIGN.md):
//  * Fig 4, WAIT, release-merge arm reads "state := conqueror; send merge
//    accept; state := conquered; goto CONQUEROR" — the stray assignment is
//    ignored; the transition is wait -> conqueror (matching Fig 1).
//  * Fig 5's conquer handler omits the phase guard the §4.4 text requires;
//    we follow the text: `next` is only redirected when the conqueror's
//    (phase, id) is lexicographically above the currently known leader's.
//  * WAIT doubles as "awaiting my release" and "out of work"; §4.1's text
//    ("the leader v waits until v.more becomes non-empty") implies an
//    out-of-work waiting leader resumes EXPLORE when work appears, so the
//    engine tracks awaiting_release_ explicitly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/fifo.h"
#include "common/flat_set.h"
#include "common/ids.h"
#include "core/messages.h"
#include "core/status.h"
#include "core/trace.h"
#include "sim/network.h"

namespace asyncrd::core {

/// Which of the paper's three algorithms the engine runs (§4.5).
enum class variant : unsigned char {
  generic,  ///< Oblivious model: component size unknown, conquer per phase
  bounded,  ///< §4.5.1: size known; final conquer broadcast; terminates
  adhoc,    ///< §4.5.2: no conquer messages; probe-to-leader on demand
};

constexpr std::string_view to_string(variant v) noexcept {
  switch (v) {
    case variant::generic: return "generic";
    case variant::bounded: return "bounded";
    case variant::adhoc: return "adhoc";
  }
  return "?";
}

/// Per-run configuration shared by all nodes (owned by the runner).
struct config {
  variant algo = variant::generic;
  /// Probe replies carry the full id census (true) or just the leader id.
  bool census_in_probe_reply = true;
  /// Ablation knob: disable path compression on release/reply routing
  /// (intermediate nodes keep their old `next` pointer).
  bool path_compression = true;
  /// Ablation knob: disable the phase mechanism (all comparisons fall back
  /// to id order, i.e. no union-by-rank analogue).
  bool use_phases = true;
  /// Ablation knob: disable the balanced query mechanism.  The paper's
  /// leaders request exactly min{|more|+|done|+1, |local|} ids per query —
  /// "leader nodes receive just as many ids as needed in order to
  /// progress" (§4.1); this is what keeps the exploration frontier small
  /// (Lemma 5.10's invariant) and improves the bit complexity over Kutten
  /// & Peleg [3].  With false, a query drains the member's whole local set
  /// at once ("the trivial solution ... would lead to a higher bit
  /// complexity O(|E0| log^2 n)").
  bool balanced_queries = true;
  /// Optional transition trace.
  trace_sink* trace = nullptr;
};

/// Result of an Ad-hoc census probe, observed by the requesting node.
struct census_result {
  node_id leader = invalid_node;
  std::vector<node_id> ids;
  sim::sim_time completed_at = 0;
};

class node final : public sim::process {
 public:
  /// `initial_local` is the node's out-neighborhood in E0; `component_size`
  /// is required for variant::bounded (the Bounded model's extra knowledge)
  /// and ignored otherwise.
  node(node_id id, const config& cfg, flat_set<node_id> initial_local,
       std::size_t component_size = 0);

  // --- sim::process ------------------------------------------------------
  void on_wake(sim::context& ctx) override;
  void on_message(sim::context& ctx, node_id from,
                  const sim::message_ptr& m) override;

  // --- external stimuli (harness API) -------------------------------------
  /// Ad-hoc: ask for the current component snapshot (§4.5.2).  The reply
  /// lands in last_census() after the network runs.
  void initiate_probe(sim::network& net);

  /// §6: a new link (this -> target) appears at run time.  A link to the
  /// node's own `next` costs nothing; any other target goes to learn_id,
  /// which skips only ids the node holds in its sets.  The node keeps no
  /// record of ids it already reported or searched, so re-adding such a
  /// link is handled as a new link (for an inactive node, a report round
  /// trip).
  void add_link(sim::network& net, node_id target);

  // --- inspection (checker / benches) -------------------------------------
  node_id id() const noexcept { return id_; }
  status_t status() const noexcept { return status_; }
  bool is_leader() const noexcept { return is_leader_status(status_); }
  phase_t phase() const noexcept { return phase_; }
  node_id next() const noexcept { return next_; }

  const flat_set<node_id>& local() const noexcept { return local_; }
  const flat_set<node_id>& more() const noexcept { return more_; }
  const flat_set<node_id>& done() const noexcept { return done_; }
  const flat_set<node_id>& unaware() const noexcept { return unaware_; }
  const flat_set<node_id>& unexplored() const noexcept {
    return unexplored_;
  }

  /// Members this leader would report: more ∪ done ∪ unaware.
  std::vector<node_id> known_members() const;

  /// The latest completed census, or nothing before the first.  Returned
  /// by value: the node keeps it out of line, since only Ad-hoc probes
  /// ever set it.
  std::optional<census_result> last_census() const {
    if (census_ == nullptr) return std::nullopt;
    return *census_;
  }
  std::size_t pending_queue_depth() const noexcept { return previous_.size(); }
  bool has_deferred() const noexcept { return !deferred_.empty(); }
  /// Type names of parked messages (diagnostics; empty when none).
  std::vector<std::string> deferred_types() const;

  /// Heap bytes this node holds (common/heap.h): the object plus the
  /// buffers of its id sets, its routed-request queue, its deferred
  /// messages' list and its census (the messages themselves live in the
  /// message pool).
  std::size_t memory_bytes() const noexcept;

 private:
  // -- state transitions ----------------------------------------------------
  void set_status(status_t s);
  void wake_body(sim::context& ctx);

  // -- message dispatch ------------------------------------------------------
  bool accepts(const sim::message& m) const;
  /// The status-only part of accepts() — every kind whose answer needs no
  /// payload peek.
  bool accepts_kind(msg_kind k) const;
  void handle(sim::context& ctx, node_id from, const sim::message_ptr& m);
  /// Shared search body (Fig 5 preprocessing + inactive/leader split).
  /// `original` is the delivered message — forwarded as-is on the routing
  /// path unless preprocessing flipped the new flag.
  void handle_search(sim::context& ctx, node_id from, const search_msg& s,
                     const sim::message_ptr& original);
  void handle_release(sim::context& ctx, const release_msg& r,
                      const sim::message_ptr& original);
  void handle_probe_reply(sim::context& ctx, const probe_reply_msg& pr,
                          const sim::message_ptr& original);
  void handle_report_ack(sim::context& ctx, const report_ack_msg& ra,
                         const sim::message_ptr& original);
  void drain_deferred(sim::context& ctx);

  // -- EXPLORE (Fig 3) -------------------------------------------------------
  void enter_explore(sim::context& ctx);
  void explore_step(sim::context& ctx);
  void apply_query_reply(sim::context& ctx, node_id from,
                         const query_reply_msg& m);
  /// "v itself may appear in v.more, in this case v simulates the message
  /// sending internally" (§4.1).
  void self_query(std::size_t k, id_vec& out, bool& done_flag);

  // -- WAIT / PASSIVE (Fig 4) --------------------------------------------------
  void leader_on_search(sim::context& ctx, node_id from, const search_msg& m);
  void leader_on_own_release(sim::context& ctx, const release_msg& m);
  void maybe_resume_explore(sim::context& ctx);

  // -- CONQUERED / CONQUEROR (Fig 6) -------------------------------------------
  void on_merge_accept(sim::context& ctx, const merge_accept_msg& m);
  void on_merge_fail(sim::context& ctx);
  void on_info(sim::context& ctx, const info_msg& m);
  void on_member_reply(sim::context& ctx, node_id from,
                       const member_reply_msg& m);
  void conquest_maybe_finished(sim::context& ctx);
  void finalize_bounded(sim::context& ctx);

  // -- INACTIVE routing (Fig 5) --------------------------------------------------
  void inactive_on_query(sim::context& ctx, node_id from, const query_msg& m);
  void route_request(sim::context& ctx, node_id from, sim::message_ptr m);
  void route_reply(sim::context& ctx, node_id new_next, sim::message_ptr m,
                   node_id final_target);
  void on_conquer(sim::context& ctx, node_id from, const conquer_msg& m);

  // -- leader-side request handling -----------------------------------------
  void leader_on_probe(sim::context& ctx, node_id from, const probe_msg& m);
  void leader_on_report(sim::context& ctx, node_id from, const report_msg& m);

  // -- misc helpers -------------------------------------------------------------
  bool is_member(node_id v) const;
  void send_search(sim::context& ctx, node_id u);
  id_vec census_ids() const;
  /// Monotone next-pointer update: redirect only toward a lexicographically
  /// higher (phase, id) key, so routing chains never cycle.
  void maybe_update_next(phase_t ph, node_id leader);
  /// Knowledge-graph growth: record a newly learned id and guarantee it is
  /// eventually reported to (or explored by) the current leader.  Used by
  /// §6 link additions and by the refused-merge path (see node.cpp).
  void learn_id(sim::context& ctx, node_id w);
  void absorb_query_reply(node_id w, const id_vec& ids, bool done_flag);

  // Member order packs the object (232 bytes; tests pin the bound): the
  // one-byte fields share a word with id_, and the census, which only
  // Ad-hoc probes set, lives out of line.

  // -- identity & configuration --
  node_id id_;
  // -- Fig 2 status, then engine flags --
  status_t status_ = status_t::asleep;
  /// True iff this leader has an outstanding search (WAIT awaits a release).
  bool awaiting_release_ = false;
  /// Probe requested before wake / while asleep — sent on wake.
  bool probe_queued_ = false;
  /// Re-entrancy guard for drain_deferred.
  bool draining_ = false;
  const config* cfg_;
  std::size_t component_size_;

  // -- Fig 2 data structures --
  // All id sets are flat_sets (common/flat_set.h): sorted vectors that turn
  // into bitmaps once large and dense, as a big leader's more, done and
  // unexplored do.  Both forms iterate in std::set's ascending order, so
  // every deterministic "smallest first" choice is preserved.
  flat_set<node_id> local_;
  flat_set<node_id> more_, done_, unaware_, unexplored_;
  /// FIFO of (routed request, node it arrived from) awaiting this node's
  /// `next` hop; only the head is in flight at any time.  Most nodes never
  /// route a request, and the fifo allocates nothing until one does.
  fifo<std::pair<sim::message_ptr, node_id>> previous_;
  node_id next_;
  phase_t phase_ = 1;
  /// Phase of the leader `next_` points at (for the conquer guard).
  phase_t next_phase_ = 1;

  // -- engine bookkeeping --
  /// Target of the query currently in flight (EXPLORE), or invalid.
  node_id pending_query_ = invalid_node;
  /// Messages the current state does not consume, in arrival order.
  std::vector<std::pair<node_id, sim::message_ptr>> deferred_;
  /// Latest completed census (Ad-hoc probes); null before the first.
  std::unique_ptr<census_result> census_;
};

}  // namespace asyncrd::core
