// Service-mode integration tests, in one process: several net::node_host
// shards wired through real UDP loopback sockets run the discovery
// algorithms to completion, and the result is verified with
// core::check_membership — the same checker the loadgen orchestrator uses
// against out-of-process clusters.  Running the shards in-process keeps the
// failure surface inspectable (no fork/exec) while exercising the entire
// service data path: gateway egress, wire frames over real sockets, ARQ
// reassembly, inject_remote re-entry, wall-clock retransmit timers.
//
// Also covered here: the garbage-datagram contract (malformed and
// misaddressed datagrams are counted decode drops and never disturb
// convergence), the run-report shape service shards emit, and the record
// stream that carries loadgen's control records.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/checker.h"
#include "graph/digraph.h"
#include "net/envelope.h"
#include "net/genspec.h"
#include "net/node_host.h"
#include "net/udp.h"
#include "telemetry/report.h"

namespace asyncrd {
namespace {

/// Builds P hosts over `g`, exchanges port maps, and starts every shard.
struct cluster {
  cluster(const graph::digraph& g, const core::config& cfg, std::size_t procs,
          std::uint64_t seed) {
    for (std::size_t p = 0; p < procs; ++p)
      hosts.push_back(std::make_unique<net::node_host>(g, cfg, p, procs, seed));
    std::vector<std::uint16_t> ports;
    for (const auto& h : hosts) ports.push_back(h->port());
    for (const auto& h : hosts) h->set_peers(ports);
    for (const auto& h : hosts) h->start();
  }

  /// Pumps every shard until cluster-wide quiescence (zero outstanding and
  /// progress stable across two consecutive rounds) — the same convergence
  /// predicate loadgen evaluates over the control streams.  False on
  /// timeout.
  bool converge(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::uint64_t last_progress = ~0ull;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& h : hosts) h->poll_once(1);
      std::uint64_t outstanding = 0, progress = 0;
      for (const auto& h : hosts) {
        outstanding += h->outstanding();
        progress += h->progress();
      }
      if (outstanding == 0 && progress == last_progress) return true;
      last_progress = progress;
    }
    return false;
  }

  /// Every node's state as loadgen receives it: discoveryd's dg_state
  /// record (net::put_state), decoded by net::read_state.
  std::vector<core::member_state> members() const {
    std::vector<core::member_state> out;
    std::vector<std::uint8_t> record;
    for (const auto& h : hosts) {
      for (const node_id v : h->local_nodes()) {
        record.clear();
        net::put_state(record, core::snapshot(h->at(v)));
        sim::wire::reader r(record.data() + 1, record.size() - 1);
        net::read_state(r, out.emplace_back());
      }
    }
    return out;
  }

  std::uint64_t decode_errors() const {
    std::uint64_t sum = 0;
    for (const auto& h : hosts) sum += h->decode_errors();
    return sum;
  }

  std::vector<std::unique_ptr<net::node_host>> hosts;
};

void run_and_verify(core::variant algo, const char* spec, std::size_t procs,
                    std::uint64_t seed) {
  const net::genspec_result gen = net::parse_genspec(spec);
  ASSERT_TRUE(gen.ok()) << gen.error;
  core::config cfg;
  cfg.algo = algo;
  cluster c(gen.graph, cfg, procs, seed);
  ASSERT_TRUE(c.converge()) << "cluster did not converge";
  const core::check_report verdict = core::check_membership(
      c.members(), gen.graph.weak_components(), algo);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  EXPECT_EQ(c.decode_errors(), 0u);
}

TEST(ServiceLoopback, GenericConvergesAcrossThreeShards) {
  run_and_verify(core::variant::generic, "random:24:36:5", 3, 7);
}

TEST(ServiceLoopback, BoundedConvergesAcrossThreeShards) {
  run_and_verify(core::variant::bounded, "random:24:36:5", 3, 7);
}

TEST(ServiceLoopback, AdhocConvergesAcrossThreeShards) {
  run_and_verify(core::variant::adhoc, "random:24:36:5", 3, 7);
}

TEST(ServiceLoopback, DisconnectedComponentsElectOneLeaderEach) {
  // Two disjoint cliques generated as one spec would be nicer, but the
  // generators emit connected shapes — so build the forest by hand.
  graph::digraph g;
  for (node_id v = 0; v < 6; ++v)
    for (node_id u = 0; u < 6; ++u)
      if (u != v) g.add_edge(v, u);
  for (node_id v = 6; v < 12; ++v) g.add_edge(v, 6 + (v - 5) % 6);
  core::config cfg;
  cfg.algo = core::variant::generic;
  cluster c(g, cfg, 2, 3);
  ASSERT_TRUE(c.converge());
  const auto verdict =
      core::check_membership(c.members(), g.weak_components(),
                             core::variant::generic);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

TEST(ServiceLoopback, GarbageDatagramsAreCountedAndHarmless) {
  const net::genspec_result gen = net::parse_genspec("random:20:30:9");
  ASSERT_TRUE(gen.ok());
  core::config cfg;
  cfg.algo = core::variant::generic;
  cluster c(gen.graph, cfg, 2, 5);

  // Blast junk at both shards' data ports mid-run from a foreign socket:
  // random noise, truncated ARQ envelopes, and control tags, which mean
  // nothing on UDP.
  net::udp_socket junk_sock;
  junk_sock.bind_loopback();
  rng grng(0xBADC0FFEEull);
  std::vector<std::uint8_t> junk;
  std::uint64_t sent = 0;
  for (int round = 0; round < 25; ++round) {
    for (const auto& h : c.hosts) {
      junk.clear();
      switch (round % 3) {
        case 0: junk.push_back(static_cast<std::uint8_t>(grng.next())); break;
        case 1: junk.push_back(0xE7); break;           // truncated data
        case 2: junk.push_back(net::dg_status_req); break;  // control tag
      }
      const std::uint64_t pad = grng.below(24);
      for (std::uint64_t b = 0; b < pad; ++b)
        junk.push_back(static_cast<std::uint8_t>(grng.next()));
      if (junk_sock.send_to(net::loopback(h->port()), junk.data(),
                            junk.size()))
        ++sent;
    }
    for (const auto& h : c.hosts) h->poll_once(1);
  }
  ASSERT_GT(sent, 0u);

  ASSERT_TRUE(c.converge()) << "garbage stalled the cluster";
  const auto verdict = core::check_membership(
      c.members(), gen.graph.weak_components(), core::variant::generic);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  // Every junk datagram that reached a socket before convergence must be
  // counted; none may be silently absorbed as protocol traffic.
  EXPECT_EQ(c.decode_errors(), sent);
}

TEST(ServiceLoopback, ShardReportCarriesServiceCounters) {
  const net::genspec_result gen = net::parse_genspec("tree:15:2:3");
  ASSERT_TRUE(gen.ok());
  core::config cfg;
  cfg.algo = core::variant::generic;
  cluster c(gen.graph, cfg, 2, 11);
  ASSERT_TRUE(c.converge());

  const telemetry::run_report rep = c.hosts[0]->report(true);
  EXPECT_EQ(rep.label, "discoveryd");
  EXPECT_EQ(rep.nodes, c.hosts[0]->local_nodes().size());
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.wire.enabled);
  EXPECT_GT(rep.wire.frames, 0u);
  EXPECT_GT(rep.wire.bytes_sent, 0u);
  EXPECT_EQ(rep.wire.decode_errors, 0u);
  // Chaos block carries the UDP/ARQ counters in service mode.
  EXPECT_TRUE(rep.chaos.enabled);
  EXPECT_GT(rep.chaos.transmissions, 0u);
  // The JSON must serialize without throwing and carry the wire block
  // (json_check --report validation runs in the ctest loadgen fixtures).
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"decode_errors\""), std::string::npos);
  EXPECT_NE(json.find("\"wire\""), std::string::npos);
}

// Records come back whole and in order, whatever their size — an empty
// one, and one larger than a datagram and than one read — and across reads
// that split a record.  The end of the stream reads as the peer gone.
TEST(RecordStream, DeliversWholeRecordsInOrderThenSeesThePeerGo) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  net::record_stream a(sv[0]), b(sv[1]);
  std::vector<std::vector<std::uint8_t>> sent = {
      {}, {net::dg_status_req}, std::vector<std::uint8_t>(100000, 0xAB)};
  for (std::size_t k = 0; k < sent[2].size(); k += 7)
    sent[2][k] = static_cast<std::uint8_t>(k);
  // 100 KB is more than the socket buffers hold: write from a thread.
  std::thread writer([&] {
    for (const auto& r : sent) EXPECT_TRUE(a.send(r));
  });
  std::vector<std::uint8_t> rec;
  for (const auto& want : sent) {
    while (!b.next(rec)) ASSERT_TRUE(b.fill(1000));
    EXPECT_EQ(rec, want);
  }
  writer.join();
  EXPECT_FALSE(b.next(rec));
  ::close(sv[0]);
  EXPECT_FALSE(b.fill(1000));
  ::close(sv[1]);
}

}  // namespace
}  // namespace asyncrd
