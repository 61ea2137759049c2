// Per-node traffic accounting: messages sent/received by each node.
// Used for hotspot analysis (the discovery leader concentrates traffic;
// how badly does the maximum per-node load grow with n?).
//
// Node ids are dense (0..n-1, with small sparse islands for dynamically
// added nodes), so the counters live in vectors indexed by id — this sits
// on the per-message hot path of every instrumented run and must not pay a
// map lookup per event.  Ids beyond the dense window spill to a
// flat_u64_map overflow table instead of growing the vectors: one
// dynamically added node with id 10^9 used to balloon the dense vectors to
// a billion entries.  sent_by/received_by add a node's spilled count to
// its dense one, and all_loads() merges both homes into the one per-node
// view, so the split is invisible.
// To combine with other observers, register both on the network
// (network::add_observer fans out to every armed observer).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/ids.h"
#include "sim/network.h"

namespace asyncrd::sim {

class load_observer final : public observer {
 public:
  /// Ids below the dense limit index straight into vectors; ids at or above
  /// it go to the spill table.  reserve_dense widens the window when the
  /// run's size is known up front.
  static constexpr std::size_t default_dense_limit = 4096;

  void on_event(const event_record& r) override {
    if (r.what == event_record::kind::send)
      bump(sent_, r.from);
    else if (r.what == event_record::kind::deliver)
      bump(received_, r.to);
  }

  /// Widens the dense window to at least `n` ids (never narrows it).
  /// Counts already spilled stay in the spill table; readers see the sum.
  void reserve_dense(std::size_t n);

  std::uint64_t sent_by(node_id v) const noexcept {
    return (v < sent_.size() ? sent_[v] : 0) + spilled(v, /*received=*/false);
  }
  std::uint64_t received_by(node_id v) const noexcept {
    return (v < received_.size() ? received_[v] : 0) +
           spilled(v, /*received=*/true);
  }
  std::uint64_t load_of(node_id v) const noexcept {
    return sent_by(v) + received_by(v);
  }

  /// Node with the largest total load (invalid_node if no traffic).
  node_id hottest() const;
  std::uint64_t max_load() const;

  /// (id, total load) for every node that saw traffic — dense and spilled —
  /// ascending by id.
  std::vector<std::pair<node_id, std::uint64_t>> all_loads() const;

 private:
  struct spill_entry {
    node_id id = invalid_node;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };

  void bump(std::vector<std::uint64_t>& v, node_id id) {
    if (id < dense_limit_) {
      if (id >= v.size()) v.resize(static_cast<std::size_t>(id) + 1, 0);
      ++v[id];
    } else {
      spill_entry& e = spill_for(id);
      ++(&v == &received_ ? e.received : e.sent);
    }
  }

  spill_entry& spill_for(node_id id);
  std::uint64_t spilled(node_id id, bool received) const noexcept;

  std::vector<std::uint64_t> sent_, received_;
  std::size_t dense_limit_ = default_dense_limit;
  flat_u64_map spill_index_;  ///< id -> spill_ index
  std::vector<spill_entry> spill_;
};

}  // namespace asyncrd::sim
