// Implementation of the Generic algorithm (paper §4, Figures 3-6) and its
// Bounded / Ad-hoc variants (§4.5, §6).  See node.h for the selective-
// receive architecture and the list of paper typos handled.
#include "core/node.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/check.h"
#include "common/heap.h"

namespace asyncrd::core {

namespace {

/// set difference helper: items of `src` not present in any of the filters.
/// Survivors are collected first so the destination grows by one merge
/// instead of |src| individual inserts (info absorption ships whole sets).
template <typename... Sets>
void insert_unknown(flat_set<node_id>& dst, const id_vec& src, node_id self,
                    const Sets&... filters) {
  // Scratch survives across calls: this runs once per absorbed reply/info,
  // and a fresh vector here was a measurable slice of the run's mallocs.
  // Safe: insert_unknown never re-enters itself.
  static thread_local std::vector<node_id> keep;
  keep.clear();
  keep.reserve(src.size());
  for (const node_id v : src) {
    if (v == self) continue;
    if ((filters.contains(v) || ...)) continue;
    keep.push_back(v);
  }
  dst.insert(keep.begin(), keep.end());
}

id_vec to_vector(const flat_set<node_id>& s) { return {s.begin(), s.end()}; }

}  // namespace

node::node(node_id id, const config& cfg, flat_set<node_id> initial_local,
           std::size_t component_size)
    : id_(id),
      cfg_(&cfg),
      component_size_(component_size),
      local_(std::move(initial_local)),
      next_(id) {
  local_.erase(id_);  // a node trivially knows itself; never reported
  more_.insert(id_);  // Fig 2: more initially contains {id}
}

// ---------------------------------------------------------------------------
// wake-up
// ---------------------------------------------------------------------------

void node::on_wake(sim::context& ctx) { wake_body(ctx); }

void node::wake_body(sim::context& ctx) {
  ASYNCRD_CHECK(status_ == status_t::asleep);
  enter_explore(ctx);
  if (probe_queued_) {
    probe_queued_ = false;
    // A freshly woken node is its own leader: the census is its own view.
    const id_vec c = census_ids();
    census_ = std::make_unique<census_result>(
        census_result{id_, {c.begin(), c.end()}, ctx.now()});
  }
}

// ---------------------------------------------------------------------------
// dispatch: selective receive
// ---------------------------------------------------------------------------

void node::on_message(sim::context& ctx, node_id from,
                      const sim::message_ptr& m) {
  if (accepts(*m))
    handle(ctx, from, m);
  else
    deferred_.emplace_back(from, m);
}

bool node::accepts(const sim::message& m) const {
  // Three routed replies depend on a payload field: their addressee reads
  // them, and any other node forwards them, which only an inactive node
  // does.
  switch (static_cast<msg_kind>(m.dispatch_tag())) {
    case msg_kind::release:
      if (static_cast<const release_msg&>(m).initiator == id_)
        return status_ == status_t::wait || status_ == status_t::passive ||
               status_ == status_t::conquered || status_ == status_t::inactive;
      return status_ == status_t::inactive;
    case msg_kind::probe_reply:
      return static_cast<const probe_reply_msg&>(m).requester == id_ ||
             status_ == status_t::inactive;
    case msg_kind::report_ack:
      return static_cast<const report_ack_msg&>(m).reporter == id_ ||
             status_ == status_t::inactive;
    default:
      return accepts_kind(static_cast<msg_kind>(m.dispatch_tag()));
  }
}

bool node::accepts_kind(msg_kind k) const {
  using s = status_t;
  switch (k) {
    case msg_kind::query:
      // query is a pure local_-set transaction; answerable in any awake
      // state.
      return true;

    case msg_kind::query_reply:
      return status_ == s::explore;

    case msg_kind::search:
      // Terminated (Bounded) leaders still answer stragglers: a search sent
      // by an ex-leader *before* it was conquered may be delayed arbitrarily
      // and arrive after termination; without a release-abort the routing
      // queues along its path would stay wedged forever.
      return status_ == s::wait || status_ == s::passive ||
             status_ == s::inactive || status_ == s::terminated;

    case msg_kind::merge_accept:
    case msg_kind::merge_fail:
      return status_ == s::conquered;

    case msg_kind::info:
      return status_ == s::conqueror;

    case msg_kind::conquer:
      return status_ == s::inactive;

    case msg_kind::member_reply:
      return status_ == s::conqueror || status_ == s::terminated;

    case msg_kind::probe:
      return status_ == s::wait || status_ == s::inactive ||
             status_ == s::terminated;

    case msg_kind::report:
      return status_ == s::wait || status_ == s::passive ||
             status_ == s::inactive || status_ == s::terminated;

    default:
      return false;  // untagged / foreign message: never consumed
  }
}

void node::handle(sim::context& ctx, node_id from, const sim::message_ptr& m) {
  switch (static_cast<msg_kind>(m->dispatch_tag())) {
  case msg_kind::query: {
    const auto* q = static_cast<const query_msg*>(m.get());
    inactive_on_query(ctx, from, *q);
    return;
  }
  case msg_kind::query_reply: {
    apply_query_reply(ctx, from, *static_cast<const query_reply_msg*>(m.get()));
    return;
  }
  case msg_kind::search: {
    handle_search(ctx, from, *static_cast<const search_msg*>(m.get()), m);
    return;
  }
  case msg_kind::release: {
    handle_release(ctx, *static_cast<const release_msg*>(m.get()), m);
    return;
  }
  case msg_kind::merge_accept: {
    on_merge_accept(ctx, *static_cast<const merge_accept_msg*>(m.get()));
    return;
  }
  case msg_kind::merge_fail: {
    on_merge_fail(ctx);
    return;
  }
  case msg_kind::info: {
    on_info(ctx, *static_cast<const info_msg*>(m.get()));
    return;
  }
  case msg_kind::conquer: {
    on_conquer(ctx, from, *static_cast<const conquer_msg*>(m.get()));
    return;
  }
  case msg_kind::member_reply: {
    const auto* mr = static_cast<const member_reply_msg*>(m.get());
    if (status_ == status_t::conqueror) on_member_reply(ctx, from, *mr);
    // terminated (Bounded): the final conquer's replies are absorbed.
    return;
  }
  case msg_kind::probe: {
    const auto* p = static_cast<const probe_msg*>(m.get());
    if (status_ == status_t::inactive)
      route_request(ctx, from, m);
    else
      leader_on_probe(ctx, from, *p);
    return;
  }
  case msg_kind::probe_reply: {
    handle_probe_reply(ctx, *static_cast<const probe_reply_msg*>(m.get()), m);
    return;
  }
  case msg_kind::report: {
    const auto* rep = static_cast<const report_msg*>(m.get());
    if (status_ == status_t::inactive)
      route_request(ctx, from, m);
    else
      leader_on_report(ctx, from, *rep);
    return;
  }
  case msg_kind::report_ack: {
    handle_report_ack(ctx, *static_cast<const report_ack_msg*>(m.get()), m);
    return;
  }
  default:
    ASYNCRD_CHECK(false && "unhandled message type");
  }
}

void node::handle_search(sim::context& ctx, node_id from, const search_msg& s,
                         const sim::message_ptr& original) {
  // --- Fig 5 target-side preprocessing, shared by every receiver role:
  // "if id == u.id and v.id ∉ local then local := local ∪ {v};
  //  M.new := true".  The literal test against `local` (not against
  // everything ever known) is load-bearing: when the initiator later goes
  // passive, re-injecting its id into the target's unreported pool is what
  // lets the surviving leader re-discover it — this is exactly the
  // bidirectional-edge argument in the proof of Lemma 5.4.
  bool new_flag = s.new_flag;
  if (s.target == id_ && s.initiator != id_ &&
      !local_.contains(s.initiator)) {
    local_.insert(s.initiator);
    new_flag = true;
  }
  // "if new == true and u ∈ done then done := done \ {u};
  //  more := more ∪ {u}" — meaningful at the leader; a routing hop has
  // empty more/done so this is a no-op there.  A terminated Bounded
  // leader skips it: its census is already complete (done == component),
  // so the "new" id is necessarily a member it knows.
  if (status_ != status_t::terminated && new_flag && done_.contains(s.target)) {
    done_.erase(s.target);
    more_.insert(s.target);
  }
  if (status_ == status_t::inactive) {
    sim::message_ptr fwd = original;
    if (new_flag != s.new_flag)
      fwd = sim::make_message<search_msg>(s.initiator, s.initiator_phase,
                                          s.target, new_flag);
    route_request(ctx, from, std::move(fwd));
  } else {
    leader_on_search(ctx, from, s);
  }
}

void node::handle_release(sim::context& ctx, const release_msg& r,
                          const sim::message_ptr& original) {
  if (r.initiator == id_) {
    if (status_ == status_t::wait) {
      leader_on_own_release(ctx, r);
    } else {
      // passive / conquered / inactive: Fig 4-6 — a merge request can no
      // longer be honored; an abort needs no action.
      if (r.answer == release_msg::answer_t::merge) {
        ctx.send(r.from_leader, sim::make_message<merge_fail_msg>());
        // The knowledge graph grew: we just received from_leader's id
        // (§1: "the edge set E grows each time a node receives an id of
        // a node it did not know of").  The refused merger will go
        // passive; if its id were dropped here, no leader could ever
        // rediscover it and liveness (property 4) would fail.  A node
        // that still owns its sets passes the tip along in its info
        // (unexplored ships to the conqueror); an inactive node feeds it
        // through the unreported pool + §6 report machinery.
        if (status_ == status_t::inactive)
          learn_id(ctx, r.from_leader);
        else if (!is_member(r.from_leader))
          unexplored_.insert(r.from_leader);
      }
    }
  } else {
    // Fig 5: next := l happens before the queued search is re-forwarded.
    if (cfg_->path_compression)
      maybe_update_next(r.from_phase, r.from_leader);
    route_reply(ctx, r.from_leader, original, r.initiator);
  }
}

void node::handle_probe_reply(sim::context& ctx, const probe_reply_msg& pr,
                              const sim::message_ptr& original) {
  if (pr.requester == id_) {
    census_ = std::make_unique<census_result>(census_result{
        pr.leader, {pr.census.begin(), pr.census.end()}, ctx.now()});
    // The requester is the deepest node on the find path; compress it too.
    if (status_ == status_t::inactive && cfg_->path_compression)
      maybe_update_next(pr.leader_phase, pr.leader);
  } else {
    if (cfg_->path_compression) maybe_update_next(pr.leader_phase, pr.leader);
    route_reply(ctx, pr.leader, original, pr.requester);
  }
}

void node::handle_report_ack(sim::context& ctx, const report_ack_msg& ra,
                             const sim::message_ptr& original) {
  if (ra.reporter == id_) {  // our report reached the leader
    if (status_ == status_t::inactive && cfg_->path_compression)
      maybe_update_next(ra.leader_phase, ra.leader);
    return;
  }
  if (cfg_->path_compression) maybe_update_next(ra.leader_phase, ra.leader);
  route_reply(ctx, ra.leader, original, ra.reporter);
}

void node::drain_deferred(sim::context& ctx) {
  if (draining_) return;
  draining_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < deferred_.size();) {
      if (accepts(*deferred_[i].second)) {
        auto [from, m] = deferred_[i];
        deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        handle(ctx, from, m);
        progress = true;
        i = 0;  // state may have changed; rescan from the front (FIFO)
      } else {
        ++i;
      }
    }
  }
  draining_ = false;
}

void node::set_status(status_t s) {
  if (s == status_) return;
  if (cfg_->trace != nullptr) cfg_->trace->on_transition(id_, status_, s);
  status_ = s;
}

// ---------------------------------------------------------------------------
// EXPLORE (Fig 3)
// ---------------------------------------------------------------------------

void node::enter_explore(sim::context& ctx) {
  set_status(status_t::explore);
  explore_step(ctx);
}

void node::explore_step(sim::context& ctx) {
  ASYNCRD_CHECK(status_ == status_t::explore);
  for (;;) {
    // §4.5.1 Bounded: "when a leader node reaches |done| = n, it sends a
    // conquer message to all the nodes in done and terminates."
    if (cfg_->algo == variant::bounded && component_size_ > 0 &&
        done_.size() == component_size_) {
      finalize_bounded(ctx);
      return;
    }

    if (!unexplored_.empty()) {
      const node_id u = *unexplored_.begin();
      // Exploring a member would route a search back to ourselves.  The
      // frontier holds none: on_info drops the ids it makes members, and
      // every other path filters members out before adding to it.
      ASYNCRD_CHECK(!is_member(u) && u != id_);
      unexplored_.erase(unexplored_.begin());
      send_search(ctx, u);
      awaiting_release_ = true;
      set_status(status_t::wait);
      drain_deferred(ctx);
      return;
    }

    if (more_.empty()) {
      // Out of work: wait until a search with the new flag (or a §6 report)
      // repopulates `more` (§4.1 text).
      awaiting_release_ = false;
      set_status(status_t::wait);
      drain_deferred(ctx);
      return;
    }

    const node_id w = *more_.begin();
    const std::size_t k = cfg_->balanced_queries
                              ? more_.size() + done_.size() + 1
                              : std::numeric_limits<std::size_t>::max();
    if (w == id_) {
      // "v itself may appear in v.more, in this case v simulates the
      // message sending internally" — zero messages.
      id_vec extracted;
      bool done_flag = false;
      self_query(k, extracted, done_flag);
      absorb_query_reply(w, extracted, done_flag);
      continue;
    }
    ctx.send(w, sim::make_message<query_msg>(k));
    pending_query_ = w;
    return;  // remain in explore awaiting the query reply
  }
}

void node::self_query(std::size_t k, id_vec& out, bool& done_flag) {
  if (local_.size() <= k) {
    out.assign(local_.begin(), local_.end());
    local_.clear();
    done_flag = true;
    return;
  }
  done_flag = false;
  // flat_set iterates ascending, so the extracted prefix is exactly the k
  // smallest ids — the same picks std::set made — removable in one erase.
  const auto cut = std::next(local_.begin(), static_cast<std::ptrdiff_t>(k));
  out.assign(local_.begin(), cut);
  local_.erase(local_.begin(), cut);
}

void node::absorb_query_reply(node_id w, const id_vec& ids, bool done_flag) {
  if (done_flag && more_.contains(w)) {
    more_.erase(w);
    done_.insert(w);
  }
  insert_unknown(unexplored_, ids, id_, more_, done_, unaware_);
}

void node::apply_query_reply(sim::context& ctx, node_id from,
                             const query_reply_msg& m) {
  ASYNCRD_CHECK(from == pending_query_);
  pending_query_ = invalid_node;
  absorb_query_reply(from, m.ids, m.done_flag);
  explore_step(ctx);
}

// ---------------------------------------------------------------------------
// WAIT / PASSIVE (Fig 4)
// ---------------------------------------------------------------------------

void node::leader_on_search(sim::context& ctx, node_id from,
                            const search_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::wait || status_ == status_t::passive ||
                status_ == status_t::terminated);
  if (status_ == status_t::terminated) {
    // A terminated leader conquered every node in its component, so its
    // (phase, id) dominates any key a member's stale search can carry.
    ASYNCRD_CHECK(!lex_greater(m.initiator_phase, m.initiator, phase_, id_));
    ctx.send(from,
             sim::make_message<release_msg>(id_, phase_,
                                            release_msg::answer_t::abort,
                                            m.initiator));
    return;
  }
  if (lex_greater(m.initiator_phase, m.initiator, phase_, id_)) {
    ctx.send(from,
             sim::make_message<release_msg>(id_, phase_,
                                            release_msg::answer_t::merge,
                                            m.initiator));
    set_status(status_t::conquered);
    drain_deferred(ctx);
  } else {
    ctx.send(from,
             sim::make_message<release_msg>(id_, phase_,
                                            release_msg::answer_t::abort,
                                            m.initiator));
    // The search's new flag may have moved its target back into `more`
    // (handled in the shared preprocessing); an idle waiting leader resumes.
    maybe_resume_explore(ctx);
  }
}

void node::leader_on_own_release(sim::context& ctx, const release_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::wait);
  ASYNCRD_CHECK(awaiting_release_);
  awaiting_release_ = false;
  if (m.answer == release_msg::answer_t::abort) {
    // "A leader receiving a release message with an abort value stops
    // sending new search messages" — passive until found.
    set_status(status_t::passive);
    drain_deferred(ctx);
    return;
  }
  // Fig 4's release-merge arm (typo corrected): wait -> conqueror.
  ctx.send(m.from_leader, sim::make_message<merge_accept_msg>(id_, phase_));
  set_status(status_t::conqueror);
  drain_deferred(ctx);
}

void node::maybe_resume_explore(sim::context& ctx) {
  if (status_ == status_t::wait && !awaiting_release_ &&
      (!more_.empty() || !unexplored_.empty()))
    enter_explore(ctx);
}

// ---------------------------------------------------------------------------
// CONQUERED / CONQUEROR (Fig 6)
// ---------------------------------------------------------------------------

void node::on_merge_accept(sim::context& ctx, const merge_accept_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::conquered);
  maybe_update_next(m.conqueror_phase, m.conqueror);
  // If our unreported pool regrew after we had emptied it (a search's new
  // flag or a refused merge re-injected an id), we must ship ourselves in
  // `more`, not `done`, or the conqueror would never query us again and the
  // re-injected ids would be dead knowledge.
  if (!local_.empty() && done_.contains(id_)) {
    done_.erase(id_);
    more_.insert(id_);
  }
  const bool ship_unaware = cfg_->algo == variant::generic;
  ctx.send(m.conqueror,
           sim::make_message<info_msg>(
               phase_, to_vector(more_), to_vector(done_),
               ship_unaware ? to_vector(unaware_) : id_vec{},
               to_vector(unexplored_)));
  more_.clear();
  done_.clear();
  unaware_.clear();
  unexplored_.clear();
  set_status(status_t::inactive);
  drain_deferred(ctx);
}

void node::on_merge_fail(sim::context& ctx) {
  ASYNCRD_CHECK(status_ == status_t::conquered);
  set_status(status_t::passive);
  drain_deferred(ctx);
}

void node::on_info(sim::context& ctx, const info_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::conqueror);
  if (cfg_->algo == variant::generic) {
    ASYNCRD_CHECK(unaware_.empty());
    insert_unknown(unaware_, m.more, id_, more_, done_);
    insert_unknown(unaware_, m.done, id_, more_, done_);
    insert_unknown(unaware_, m.unaware, id_, more_, done_);
    insert_unknown(unexplored_, m.unexplored, id_, more_, done_, unaware_);
    // unaware_ was empty, so it now holds exactly the members this info
    // made; only they can be stale in the frontier.
    unexplored_.erase_sorted(unaware_.begin(), unaware_.end());
    const std::size_t members = more_.size() + done_.size() + unaware_.size();
    if (cfg_->use_phases &&
        (phase_ == m.phase || members >= (std::size_t{1} << (phase_ + 1)))) {
      ++phase_;
      next_phase_ = phase_;
    }
    for (const node_id u : unaware_)
      ctx.send(u, sim::make_message<conquer_msg>(id_, phase_));
  } else {
    // §4.5 variants: merge each set directly; no unaware bookkeeping.
    insert_unknown(more_, m.more, id_);
    insert_unknown(done_, m.done, id_, more_);
    insert_unknown(unexplored_, m.unexplored, id_, more_, done_);
    // The members this info made came from its (ascending) more and done.
    unexplored_.erase_sorted(m.more.begin(), m.more.end());
    unexplored_.erase_sorted(m.done.begin(), m.done.end());
    const std::size_t members = more_.size() + done_.size();
    if (cfg_->use_phases &&
        (phase_ == m.phase || members >= (std::size_t{1} << (phase_ + 1)))) {
      ++phase_;
      next_phase_ = phase_;
    }
  }
  conquest_maybe_finished(ctx);
}

void node::on_member_reply(sim::context& ctx, node_id from,
                           const member_reply_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::conqueror);
  const auto it = unaware_.find(from);
  if (it == unaware_.end()) return;  // stale duplicate; ignore
  unaware_.erase(it);
  (m.has_more ? more_ : done_).insert(from);
  conquest_maybe_finished(ctx);
}

void node::conquest_maybe_finished(sim::context& ctx) {
  if (unaware_.empty()) enter_explore(ctx);
}

void node::finalize_bounded(sim::context& ctx) {
  ASYNCRD_CHECK(cfg_->algo == variant::bounded);
  for (const node_id u : done_)
    if (u != id_) ctx.send(u, sim::make_message<conquer_msg>(id_, phase_));
  set_status(status_t::terminated);
  drain_deferred(ctx);
}

// ---------------------------------------------------------------------------
// INACTIVE (Fig 5)
// ---------------------------------------------------------------------------

void node::inactive_on_query(sim::context& ctx, node_id from,
                             const query_msg& m) {
  id_vec extracted;
  bool done_flag = false;
  self_query(m.requested, extracted, done_flag);
  ctx.send(from, sim::make_message<query_reply_msg>(std::move(extracted),
                                                    done_flag));
}

void node::route_request(sim::context& ctx, node_id from, sim::message_ptr m) {
  ASYNCRD_CHECK(status_ == status_t::inactive);
  ASYNCRD_CHECK(next_ != id_);
  previous_.push_back({std::move(m), from});
  // Only the head of the queue is in flight; the rest wait for its reply
  // (this serialization is what makes the search/release cost amortize like
  // a sequential union-find execution).
  if (previous_.size() == 1) ctx.send(next_, previous_.front().first);
}

void node::route_reply(sim::context& ctx, node_id /*new_next*/,
                       sim::message_ptr m, node_id /*final_target*/) {
  ASYNCRD_CHECK(status_ == status_t::inactive);
  ASYNCRD_CHECK(!previous_.empty());
  const node_id y = previous_.pop_front().second;
  ctx.send(y, std::move(m));
  // Release the next queued request toward next_ — the caller has already
  // applied path compression (Fig 5 sets next := l before forwarding).
  if (!previous_.empty()) ctx.send(next_, previous_.front().first);
}

void node::on_conquer(sim::context& ctx, node_id from, const conquer_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::inactive);
  (void)from;
  // §4.4 text: only "a phase higher than its current leader" redirects the
  // pointer (Fig 5 omits the guard; see node.h).
  maybe_update_next(m.phase, m.leader);
  ctx.send(m.leader, sim::make_message<member_reply_msg>(!local_.empty()));
}

// ---------------------------------------------------------------------------
// leader-side probe / report handling (§4.5.2, §6)
// ---------------------------------------------------------------------------

void node::leader_on_probe(sim::context& ctx, node_id from,
                           const probe_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::wait || status_ == status_t::terminated);
  ctx.send(from, sim::make_message<probe_reply_msg>(
                     id_, phase_, m.requester,
                     cfg_->census_in_probe_reply ? census_ids() : id_vec{}));
}

void node::leader_on_report(sim::context& ctx, node_id from,
                            const report_msg& m) {
  ASYNCRD_CHECK(status_ == status_t::wait || status_ == status_t::passive ||
                status_ == status_t::terminated);
  // A terminated Bounded leader only acknowledges: its census is complete,
  // so whatever id regrew the reporter's local pool is already a member
  // (late reports come from the refused-merge retention path, whose
  // subject was conquered before |done| could reach n).
  if (status_ != status_t::terminated && done_.contains(m.reporter)) {
    done_.erase(m.reporter);
    more_.insert(m.reporter);
  }
  ctx.send(from, sim::make_message<report_ack_msg>(id_, phase_, m.reporter));
  maybe_resume_explore(ctx);
}

// ---------------------------------------------------------------------------
// harness API (§4.5.2 probes, §6 dynamic links)
// ---------------------------------------------------------------------------

void node::initiate_probe(sim::network& net) {
  sim::context ctx(net, id_);
  if (status_ == status_t::asleep) {
    probe_queued_ = true;
    net.wake(id_);
    return;
  }
  if (is_leader() || next_ == id_) {
    // We are the leader (or a passive ex-leader that still heads its own
    // chain): the snapshot is our own census.
    const id_vec c = census_ids();
    census_ = std::make_unique<census_result>(
        census_result{id_, {c.begin(), c.end()}, ctx.now()});
    return;
  }
  ctx.send(next_, sim::make_message<probe_msg>(id_));
}

void node::add_link(sim::network& net, node_id target) {
  if (target == next_) return;
  sim::context ctx(net, id_);
  learn_id(ctx, target);
}

void node::learn_id(sim::context& ctx, node_id w) {
  if (w == id_ || is_member(w) || local_.contains(w)) return;
  if (status_ == status_t::asleep) {
    local_.insert(w);  // reported naturally after wake-up
    return;
  }
  if (is_leader()) {
    // A leader folds new knowledge straight into its frontier.
    unexplored_.insert(w);
    maybe_resume_explore(ctx);
    return;
  }
  const bool had_reported_all = local_.empty();
  local_.insert(w);
  if (!had_reported_all) return;  // §6 case 1: rides the unreported pool
  if (status_ == status_t::passive || status_ == status_t::conquered) {
    // We still head our own chain; fix our own bookkeeping so the id ships
    // (in `more`) when we are eventually conquered.
    if (done_.contains(id_)) {
      done_.erase(id_);
      more_.insert(id_);
    }
    return;
  }
  // §6 case 2 (inactive): "u initiates a search message towards its leader
  // with the new flag set to true" — our dedicated report message.
  ctx.send(next_, sim::make_message<report_msg>(id_));
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

bool node::is_member(node_id v) const {
  return more_.contains(v) || done_.contains(v) || unaware_.contains(v);
}

void node::send_search(sim::context& ctx, node_id u) {
  ctx.send(u, sim::make_message<search_msg>(id_, phase_, u, false));
}

id_vec node::census_ids() const {
  flat_set<node_id> all = more_;
  all.insert(done_.begin(), done_.end());
  all.insert(unaware_.begin(), unaware_.end());
  all.insert(id_);
  return to_vector(all);
}

void node::maybe_update_next(phase_t ph, node_id leader) {
  if (lex_greater(ph, leader, next_phase_, next_)) {
    next_ = leader;
    next_phase_ = ph;
  }
}

std::vector<node_id> node::known_members() const {
  const id_vec c = census_ids();
  return {c.begin(), c.end()};
}

std::vector<std::string> node::deferred_types() const {
  std::vector<std::string> out;
  out.reserve(deferred_.size());
  for (const auto& [from, m] : deferred_)
    out.emplace_back(m->type_name());
  return out;
}

std::size_t node::memory_bytes() const noexcept {
  std::size_t bytes = heap_bytes(sizeof(node)) + local_.capacity_bytes() +
                      more_.capacity_bytes() + done_.capacity_bytes() +
                      unaware_.capacity_bytes() +
                      unexplored_.capacity_bytes() +
                      previous_.capacity_bytes() +
                      heap_bytes(deferred_.capacity() * sizeof(deferred_[0]));
  if (census_ != nullptr)
    bytes += heap_bytes(sizeof(census_result)) +
             heap_bytes(census_->ids.capacity() * sizeof(node_id));
  return bytes;
}

}  // namespace asyncrd::core
