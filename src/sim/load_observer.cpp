#include "sim/load_observer.h"

#include <algorithm>

namespace asyncrd::sim {

void load_observer::reserve_dense(std::size_t n) {
  if (n > dense_limit_) dense_limit_ = n;
  sent_.reserve(std::min(n, dense_limit_));
  received_.reserve(std::min(n, dense_limit_));
}

load_observer::spill_entry& load_observer::spill_for(node_id id) {
  const std::uint32_t found = spill_index_.find(id);
  if (found != flat_u64_map::npos) return spill_[found];
  const auto index = static_cast<std::uint32_t>(spill_.size());
  spill_.emplace_back();
  spill_.back().id = id;
  spill_index_.insert(id, index);
  return spill_[index];
}

std::uint64_t load_observer::spilled(node_id id, bool received) const noexcept {
  if (spill_.empty()) return 0;
  const std::uint32_t found = spill_index_.find(id);
  if (found == flat_u64_map::npos) return 0;
  return received ? spill_[found].received : spill_[found].sent;
}

std::vector<std::pair<node_id, std::uint64_t>> load_observer::all_loads()
    const {
  std::vector<std::pair<node_id, std::uint64_t>> out;
  const std::size_t dense = std::max(sent_.size(), received_.size());
  out.reserve(dense + spill_.size());
  for (std::size_t v = 0; v < dense; ++v) {
    const std::uint64_t l = (v < sent_.size() ? sent_[v] : 0) +
                            (v < received_.size() ? received_[v] : 0);
    if (l != 0) out.emplace_back(static_cast<node_id>(v), l);
  }
  for (const spill_entry& e : spill_) {
    const std::uint64_t l = e.sent + e.received;
    if (l != 0) out.emplace_back(e.id, l);
  }
  // Spill order is first-touch order; merge into one ascending-by-id view.
  // An id can appear in both homes after reserve_dense widened the window
  // mid-run, so combine equal ids.
  std::sort(out.begin(), out.end());
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (w > 0 && out[w - 1].first == out[r].first)
      out[w - 1].second += out[r].second;
    else
      out[w++] = out[r];
  }
  out.resize(w);
  return out;
}

node_id load_observer::hottest() const {
  node_id best = invalid_node;
  std::uint64_t best_load = 0;
  for (const auto& [id, l] : all_loads()) {
    if (l > best_load) {
      best_load = l;
      best = id;
    }
  }
  return best;
}

std::uint64_t load_observer::max_load() const {
  std::uint64_t best = 0;
  for (const auto& [id, l] : all_loads()) best = std::max(best, l);
  return best;
}

}  // namespace asyncrd::sim
