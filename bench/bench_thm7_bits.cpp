// Theorem 7 (+ Lemmas 5.9, 5.10): bit complexity O(|E0| log n + n log^2 n).
//
// Reproduction: sweep density regimes — sparse (|E0| ~ n), the paper's
// interesting regime (|E0| ~ n log n), and dense (|E0| ~ n sqrt n) — and
// audit the bytes a socket would carry: an observer encodes every sent
// message into its wire frame (core::wire::encode: header, varints, delta
// sets) and sums the frame sizes, which are checked against the theorem's
// envelope stated in bytes.  Each run's final state is also checked
// against the §1.2 specification (core::check_final_state).
// The two per-type bit lemmas are still checked on the paper's O(log n)
// field accounting: query-reply bits <= 2 |E0| log n and info bits
// <= 4 n log^2 n.
//
// The byte bound carries explicit constants (the asymptotic statement
// hides them; a gate cannot):
//
//   bytes(n, |E0|) <= (6 |E0| lg + 8 n lg^2) / 8
//
// The |E0| term triples Lemma 5.9's 2 |E0| lg to also cover the search /
// release traffic (O(|E0|) messages of O(lg) bits each, Theorem 5) plus
// one frame-header byte and the varint length rounding (a varint spends 8
// bits per 7 payload bits).  The n lg^2 term doubles Lemma 5.10's 4 n lg^2
// for the same rounding on the query/conquer machinery.  bench_diff gates
// measured <= bound tolerance-free, so the measured/bound ratio staying
// below 1 across all nine density cells is a hard CI invariant.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_report.h"
#include "common/bitmath.h"
#include "common/table.h"
#include "core/checker.h"
#include "core/messages.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/scheduler.h"

namespace {

using namespace asyncrd;

/// Sums the encoded frame size of every transmission.  Every routing hop is
/// a transmission of its own, so a forwarded message counts again.
class frame_bytes final : public sim::observer {
 public:
  void on_event(const sim::event_record& r) override {
    if (r.what != sim::event_record::kind::send) return;
    frame_.clear();
    core::wire::encode(*r.m, frame_);
    bytes_ += frame_.size();
  }
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> frame_;
  std::uint64_t bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== Theorem 7: wire bytes vs O(|E0| log n + n log^2 n) ==\n\n";

  bench::reporter rep("thm7_bits", argc, argv);

  text_table t({"regime", "n", "|E0|", "wire bytes", "byte bound", "ratio",
                "acct bits", "qreply<=2|E0|lg", "info<=4n lg^2"});
  bool all_ok = true;

  const auto row = [&](const std::string& name, const graph::digraph& g) {
    sim::random_delay_scheduler sched(5);
    core::config cfg;
    frame_bytes audit;
    core::discovery_run run(g, cfg, sched);
    run.net().add_observer(&audit);
    run.wake_all();
    const auto r = run.run();
    all_ok = all_ok && r.completed && core::check_final_state(run, g).ok();
    const double n = static_cast<double>(g.node_count());
    const double e0 = static_cast<double>(g.edge_count());
    const double lg = static_cast<double>(ceil_log2(g.node_count()));
    const double wire_bytes = static_cast<double>(audit.bytes());
    const double byte_bound = (6.0 * e0 * lg + 8.0 * n * lg * lg) / 8.0;
    all_ok = all_ok && wire_bytes <= byte_bound;
    const auto& st = run.statistics();
    const double qreply_cap = 2.0 * e0 * lg;
    const double info_cap = 4.0 * n * lg * lg;
    const bool qr_ok = static_cast<double>(st.bits_of("query_reply")) <=
                       qreply_cap + 8 * lg;  // slack for re-injected ids
    const bool info_ok = static_cast<double>(st.bits_of("info")) <= info_cap;
    all_ok = all_ok && qr_ok && info_ok;
    rep.add(name, n, wire_bytes, byte_bound);
    rep.merge_stats(st);
    t.add_row({name, std::to_string(g.node_count()),
               std::to_string(g.edge_count()),
               std::to_string(audit.bytes()),
               fmt_double(byte_bound, 0), fmt_ratio(wire_bytes, byte_bound),
               std::to_string(st.total_bits()), qr_ok ? "yes" : "NO",
               info_ok ? "yes" : "NO"});
  };

  for (const std::size_t n : {128u, 512u, 2048u}) {
    row("sparse |E0|~n", graph::random_weakly_connected(n, n / 2, 3 + n));
    row("mid |E0|~n lg n",
        graph::random_weakly_connected(n, n * ceil_log2(n), 5 + n));
    const auto dense_extra =
        static_cast<std::size_t>(static_cast<double>(n) * std::sqrt(n));
    row("dense |E0|~n sqrt n",
        graph::random_weakly_connected(n, dense_extra, 7 + n));
  }

  t.print(std::cout);
  std::cout << "\npaper: Theorem 7 — total bits O(|E0| log n + n log^2 n):"
               " measured wire bytes stay under the explicit-constant byte\n"
               "envelope in every density regime; Lemma 5.9 (query-reply"
               " bits) and Lemma 5.10 (info bits) hold per row.\n";
  return rep.finish(all_ok);
}
