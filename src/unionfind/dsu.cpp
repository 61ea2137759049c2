#include "unionfind/dsu.h"

#include <cassert>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"

namespace asyncrd::uf {

dsu::dsu(std::size_t n, link_policy lp, compress_policy cp)
    : parent_(n), rank_(n, 0), components_(n), link_(lp), compress_(cp) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t dsu::find(std::size_t x) {
  assert(x < parent_.size());
  std::size_t root = x;
  while (parent_[root] != root) {
    root = parent_[root];
    ++find_steps_;
  }
  if (compress_ == compress_policy::full) {
    while (parent_[x] != root) {
      const std::size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
  }
  return root;
}

bool dsu::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (link_ == link_policy::by_rank) {
    if (rank_[ra] > rank_[rb]) std::swap(ra, rb);
    parent_[ra] = rb;
    if (rank_[ra] == rank_[rb]) ++rank_[rb];
  } else {
    parent_[ra] = rb;
  }
  --components_;
  return true;
}

std::vector<uf_op> random_schedule(std::size_t n, std::size_t finds,
                                   std::uint64_t seed) {
  if (n == 0) return {};
  rng r(seed);
  // Track live set representatives so every unite joins two distinct sets.
  dsu tracker(n);
  std::vector<std::size_t> reps(n);
  std::iota(reps.begin(), reps.end(), std::size_t{0});

  std::vector<uf_op> unites;
  unites.reserve(n - 1);
  while (reps.size() > 1) {
    const std::size_t i = static_cast<std::size_t>(r.below(reps.size()));
    std::size_t j = static_cast<std::size_t>(r.below(reps.size() - 1));
    if (j >= i) ++j;
    unites.push_back({uf_op::kind::unite, reps[i], reps[j]});
    tracker.unite(reps[i], reps[j]);
    // Both arguments were roots before the unite; exactly one survives.
    const std::size_t root = tracker.find(reps[i]);
    const std::size_t gone = (root == reps[i]) ? j : i;
    reps.erase(reps.begin() + static_cast<std::ptrdiff_t>(gone));
  }

  // Interleave finds uniformly between unites.
  std::vector<uf_op> schedule;
  schedule.reserve(unites.size() + finds);
  std::size_t remaining_finds = finds;
  const std::size_t slots = unites.size() + 1;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t here =
        s + 1 == slots ? remaining_finds
                       : std::min<std::size_t>(remaining_finds, finds / slots + 1);
    for (std::size_t f = 0; f < here; ++f)
      schedule.push_back(
          {uf_op::kind::find, static_cast<std::size_t>(r.below(n)), 0});
    remaining_finds -= here;
    if (s < unites.size()) schedule.push_back(unites[s]);
  }
  return schedule;
}

std::vector<uf_op> adversarial_schedule(std::size_t n, std::size_t finds) {
  if (n == 0) return {};
  std::vector<uf_op> schedule;
  // Binomial merge pattern: round k unites blocks of size 2^k pairwise,
  // which builds maximally deep rank trees; finds then probe round-robin
  // over all elements, repeatedly re-deepening the work per probe.
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t base = 0; base + width < n; base += 2 * width)
      schedule.push_back({uf_op::kind::unite, base, base + width});
    // Interleave a sweep of finds between merge rounds.
    const std::size_t sweep = std::min<std::size_t>(finds, n);
    for (std::size_t f = 0; f < sweep && schedule.size() < n + finds; ++f)
      schedule.push_back({uf_op::kind::find, (f * 7919) % n, 0});
  }
  std::size_t probe = 0;
  while (schedule.size() < n - 1 + finds) {
    schedule.push_back({uf_op::kind::find, probe, 0});
    probe = (probe + 1) % n;
  }
  return schedule;
}

}  // namespace asyncrd::uf
