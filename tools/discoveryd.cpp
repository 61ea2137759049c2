// discoveryd — one OS process's share of a service-mode discovery cluster.
//
//   discoveryd --gen KIND:N[:EXTRA[:SEED]] --procs P --index I
//              [--variant generic|bounded|adhoc] [--seed S] [--json PATH]
//              [--quiet]
//
// Runs the nodes {v : v mod P == I} of the generated topology over real
// UDP loopback sockets (src/net/node_host.h).  Its stdin is the control
// stream from the orchestrator (tools/loadgen.cpp, which makes one
// socketpair per child), and it speaks the control records of
// net/envelope.h there:
//
//   1. announce the data port (dg_hello);
//   2. accept dg_portmap (node -> port routing) and dg_start (wake the
//      local nodes), then serve discovery traffic — the data socket is
//      pumped only once mapped, so that the first datagram finds its
//      routes;
//   3. answer dg_status_req with progress/outstanding/decode-error
//      counters (the orchestrator's convergence detector);
//   4. on dg_finalize, report every local node's checkable final state
//      (core::snapshot, one net::put_state record each) and the process
//      totals (dg_state_end), and write the --json run report — the same
//      schema simulation runs emit, json_check --report valid;
//   5. exit 0 on dg_stop.
//
// Trust: only the data socket faces the network.  Any datagram that fails
// the wire-frame grammar, control-looking bytes included, is counted as a
// decode drop and otherwise ignored (the garbage-injection tests drive
// this path).  A malformed control record can only come from the
// orchestrator itself: it ends the process.
//
// Exit codes: 0 stopped cleanly, 1 runtime failure (socket error, a
// malformed control record, the stream closed: the orchestrator is gone),
// 2 usage.
#include <poll.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.h"
#include "core/checker.h"
#include "net/envelope.h"
#include "net/genspec.h"
#include "net/node_host.h"
#include "net/udp.h"
#include "sim/wire.h"

namespace {

using namespace asyncrd;

constexpr int exit_usage = 2;

[[noreturn]] void usage(const char* err) {
  if (err != nullptr) std::cerr << "discoveryd: " << err << "\n\n";
  std::cerr <<
      "usage: discoveryd --gen KIND:N[:EXTRA[:SEED]] --procs P --index I\n"
      "                  [options]   (stdin: loadgen's control stream)\n"
      "  --variant generic|bounded|adhoc   algorithm variant (default generic)\n"
      "  --seed S          link seed for ARQ retransmit jitter (default 1)\n"
      "  --json PATH       write the run report (json_check --report valid)\n"
      "  --quiet           suppress the start/stop log lines\n";
  std::exit(exit_usage);
}

std::uint64_t num_u64(const std::string& flag, const std::string& text) {
  const auto v = parse_u64(text);
  if (!v)
    usage((flag + ": expected a non-negative integer, got '" + text + "'")
              .c_str());
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gen_spec, variant_name = "generic", json_path;
  std::uint64_t procs = 0, index = 0, seed = 1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--gen") gen_spec = next();
    else if (a == "--variant") variant_name = next();
    else if (a == "--procs") procs = num_u64(a, next());
    else if (a == "--index") index = num_u64(a, next());
    else if (a == "--seed") seed = num_u64(a, next());
    else if (a == "--json") json_path = next();
    else if (a == "--quiet") quiet = true;
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown flag " + a).c_str());
  }
  if (gen_spec.empty()) usage("--gen is required");
  if (procs == 0) usage("--procs must be >= 1");
  if (index >= procs) usage("--index must be < --procs");

  core::config cfg;
  if (variant_name == "generic") cfg.algo = core::variant::generic;
  else if (variant_name == "bounded") cfg.algo = core::variant::bounded;
  else if (variant_name == "adhoc") cfg.algo = core::variant::adhoc;
  else usage("unknown --variant");

  const net::genspec_result gen = net::parse_genspec(gen_spec);
  if (!gen.ok()) usage(gen.error.c_str());

  const std::string who = "discoveryd[" + std::to_string(index) + "]: ";
  try {
    net::node_host host(gen.graph, cfg, static_cast<std::size_t>(index),
                        static_cast<std::size_t>(procs), seed);
    net::record_stream ctl(STDIN_FILENO);

    if (!quiet)
      std::cerr << "discoveryd[" << index << "/" << procs << "]: "
                << host.local_nodes().size() << " nodes on port "
                << host.port() << "\n";

    std::vector<std::uint8_t> out, rec;
    const auto reply = [&]() {
      if (!ctl.send(out))
        throw std::runtime_error(
            "cannot write the control stream on stdin; discoveryd runs "
            "under loadgen");
    };

    const auto send_states = [&]() {
      for (const node_id v : host.local_nodes()) {
        out.clear();
        net::put_state(out, core::snapshot(host.at(v)));
        reply();
      }
      out.clear();
      out.push_back(net::dg_state_end);
      sim::wire::put_varint(out, host.net().statistics().total_messages());
      sim::wire::put_varint(out, host.net().wire_frames());
      sim::wire::put_varint(out, host.net().wire_bytes_sent());
      sim::wire::put_varint(out, host.decode_errors());
      reply();
    };

    out = {net::dg_hello};
    sim::wire::put_varint(out, host.port());
    reply();

    bool mapped = false;
    pollfd fds[2] = {{ctl.fd(), POLLIN, 0}, {host.fd(), POLLIN, 0}};
    for (;;) {
      // Until mapped, only the stream is watched: datagrams wait in the
      // socket for their routes.
      ::poll(fds, mapped ? 2 : 1, mapped ? host.wait_ms(50) : -1);
      if (mapped) host.pump();
      if (fds[0].revents != 0 && !ctl.fill(0))
        throw std::runtime_error(
            "the control stream on stdin closed; loadgen has gone");
      while (ctl.next(rec)) {
        if (rec.empty()) throw sim::wire::decode_error("empty record");
        sim::wire::reader r(rec.data() + 1, rec.size() - 1);
        switch (rec[0]) {
          case net::dg_portmap: {
            const std::uint64_t count = r.varint();
            if (count != procs)
              throw sim::wire::decode_error("portmap: wrong process count");
            std::vector<std::uint16_t> ports;
            ports.reserve(count);
            for (std::uint64_t k = 0; k < count; ++k) {
              const std::uint64_t port = r.varint();
              if (port == 0 || port > 0xFFFF)
                throw sim::wire::decode_error("portmap: bad port");
              ports.push_back(static_cast<std::uint16_t>(port));
            }
            r.expect_end();
            host.set_peers(std::move(ports));
            mapped = true;
            break;
          }
          case net::dg_start:
            r.expect_end();
            if (!mapped)
              throw sim::wire::decode_error("start: no portmap yet");
            host.start();
            break;
          case net::dg_status_req:
            r.expect_end();
            out.clear();
            out.push_back(net::dg_status);
            sim::wire::put_varint(out, host.progress());
            sim::wire::put_varint(out, host.outstanding());
            sim::wire::put_varint(out, host.decode_errors());
            reply();
            break;
          case net::dg_finalize: {
            r.expect_end();
            send_states();
            if (!json_path.empty()) {
              std::ofstream f(json_path);
              f << host.report(host.outstanding() == 0).to_json();
            }
            break;
          }
          case net::dg_stop:
            r.expect_end();
            if (!quiet)
              std::cerr << who << "stopped ("
                        << host.net().statistics().total_messages()
                        << " messages, " << host.decode_errors()
                        << " decode drops)\n";
            return 0;
          default:
            throw sim::wire::decode_error("unknown tag");
        }
      }
    }
  } catch (const sim::wire::decode_error& e) {
    std::cerr << who << "malformed control record: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << who << e.what() << "\n";
    return 1;
  }
}
