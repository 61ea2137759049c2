// Sequential disjoint-set (Union-Find) structures.
//
// Used three ways in this repository:
//   1. as the reference oracle for Lemma 3.1's reduction (the distributed
//      Ad-hoc execution must agree with a classical DSU on every find);
//   2. to generate the adversarial union/find sequences that drive the
//      Theorem 2 lower-bound experiment;
//   3. as the ablation baseline: the core engine's release path implements
//      Tarjan-style path compression and its phase rule implements union by
//      rank, so bench_ablation_unionfind contrasts both systems with the
//      same policy knobs on/off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncrd::uf {

/// How roots are chosen when uniting two trees.
enum class link_policy {
  by_rank,  ///< classic union by rank (the paper's phase mechanism)
  naive,    ///< always link first argument's root under second's — ablation
};

/// Whether find() compresses the path it traverses.
enum class compress_policy {
  full,  ///< Tarjan path compression (the paper's release messages)
  none,  ///< plain pointer chasing — ablation
};

class dsu {
 public:
  explicit dsu(std::size_t n, link_policy lp = link_policy::by_rank,
               compress_policy cp = compress_policy::full);

  std::size_t size() const noexcept { return parent_.size(); }

  /// Representative of x's set.
  std::size_t find(std::size_t x);

  /// Unites the sets of a and b; returns false iff already united.
  bool unite(std::size_t a, std::size_t b);

  bool same(std::size_t a, std::size_t b) { return find(a) == find(b); }

  std::size_t component_count() const noexcept { return components_; }

  /// Total parent-pointer hops performed by find() so far — the sequential
  /// analogue of the distributed algorithm's search/release message count.
  std::uint64_t find_steps() const noexcept { return find_steps_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t components_;
  std::uint64_t find_steps_ = 0;
  link_policy link_;
  compress_policy compress_;
};

/// One operation of a union/find schedule (Lemma 3.1's sequence U).
struct uf_op {
  enum class kind : std::uint8_t { unite, find };
  kind op;
  std::size_t a = 0;
  std::size_t b = 0;  // unused for find
};

/// Random schedule: n-1 unites (always joining distinct sets, so all n sets
/// end merged) interleaved with `finds` find operations, deterministic in
/// the seed.
std::vector<uf_op> random_schedule(std::size_t n, std::size_t finds,
                                   std::uint64_t seed);

/// An adversarial schedule in the spirit of Tarjan's Omega(n alpha(n, n))
/// construction: builds binomial-tree-like union structure and then probes
/// deep leaves round-robin, maximizing pointer-chain work for bounded-
/// compression structures.
std::vector<uf_op> adversarial_schedule(std::size_t n, std::size_t finds);

}  // namespace asyncrd::uf
