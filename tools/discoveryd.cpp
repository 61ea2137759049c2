// discoveryd — one OS process's share of a service-mode discovery cluster.
//
//   discoveryd --gen KIND:N[:EXTRA[:SEED]] --procs P --index I
//              --control PORT [--variant generic|bounded|adhoc]
//              [--seed S] [--json PATH] [--quiet]
//
// Runs the nodes {v : v mod P == I} of the generated topology over real
// UDP loopback sockets (src/net/node_host.h) and speaks the control plane
// of net/envelope.h with the orchestrator listening on 127.0.0.1:PORT
// (tools/loadgen.cpp, or anything else that implements it):
//
//   1. announce the data socket by sending dg_hello from it (repeated
//      until dg_portmap arrives — the control plane rides the same lossy
//      UDP as the data plane and is loss-tolerant by idempotence);
//   2. accept dg_portmap (node -> port routing) and dg_start (wake the
//      local nodes), then serve discovery traffic;
//   3. answer dg_status_req with progress/outstanding/decode-error
//      counters (the orchestrator's convergence detector);
//   4. on dg_finalize, report every local node's checkable final state
//      (core::snapshot, one net::put_state datagram each) and the
//      process totals (dg_state_end), and write the --json run report —
//      the same schema simulation runs emit, json_check --report valid;
//   5. exit 0 on dg_stop.
//
// Trust: control datagrams are honored only from the --control endpoint;
// anything else that looks like control — or any datagram that fails the
// wire-frame grammar — is counted as a decode drop and otherwise ignored
// (the garbage-injection tests drive this path).
//
// Exit codes: 0 stopped cleanly, 1 runtime failure (socket error, orphaned
// by the orchestrator), 2 usage.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "core/checker.h"
#include "net/envelope.h"
#include "net/genspec.h"
#include "net/node_host.h"
#include "sim/wire.h"

namespace {

using namespace asyncrd;

constexpr int exit_usage = 2;

[[noreturn]] void usage(const char* err) {
  if (err != nullptr) std::cerr << "discoveryd: " << err << "\n\n";
  std::cerr <<
      "usage: discoveryd --gen KIND:N[:EXTRA[:SEED]] --procs P --index I\n"
      "                  --control PORT [options]\n"
      "  --variant generic|bounded|adhoc   algorithm variant (default generic)\n"
      "  --seed S          link seed for ARQ retransmit jitter (default 1)\n"
      "  --json PATH       write the run report (json_check --report valid)\n"
      "  --idle-timeout S  exit 1 after S seconds without control traffic\n"
      "                    (default 120; orphan protection)\n"
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
  std::uint64_t procs = 0, index = 0, seed = 1, control_port = 0;
  std::uint64_t idle_timeout_s = 120;
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
    else if (a == "--control") control_port = num_u64(a, next());
    else if (a == "--json") json_path = next();
    else if (a == "--idle-timeout") idle_timeout_s = num_u64(a, next());
    else if (a == "--quiet") quiet = true;
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown flag " + a).c_str());
  }
  if (gen_spec.empty()) usage("--gen is required");
  if (procs == 0) usage("--procs must be >= 1");
  if (index >= procs) usage("--index must be < --procs");
  if (control_port == 0 || control_port > 0xFFFF)
    usage("--control needs a port in 1..65535");

  core::config cfg;
  if (variant_name == "generic") cfg.algo = core::variant::generic;
  else if (variant_name == "bounded") cfg.algo = core::variant::bounded;
  else if (variant_name == "adhoc") cfg.algo = core::variant::adhoc;
  else usage("unknown --variant");

  const net::genspec_result gen = net::parse_genspec(gen_spec);
  if (!gen.ok()) usage(gen.error.c_str());

  try {
    net::node_host host(gen.graph, cfg, static_cast<std::size_t>(index),
                        static_cast<std::size_t>(procs), seed);
    const net::endpoint control_ep =
        net::loopback(static_cast<std::uint16_t>(control_port));

    if (!quiet)
      std::cerr << "discoveryd[" << index << "/" << procs << "]: "
                << host.local_nodes().size() << " nodes on port "
                << host.port() << "\n";

    bool portmapped = false;
    bool report_written = false;
    bool stop = false;
    std::vector<std::uint8_t> out;
    // Control replies ride the data socket; loss is fine — every exchange
    // is re-driven by the orchestrator until answered.
    const auto reply = [&]() {
      host.send_control(control_ep, out.data(), out.size());
    };

    const auto send_states = [&]() {
      for (const node_id v : host.local_nodes()) {
        out.clear();
        net::put_state(out, index, core::snapshot(host.at(v)));
        reply();
      }
      out.clear();
      out.push_back(net::dg_state_end);
      sim::wire::put_varint(out, index);
      sim::wire::put_varint(out, host.net().statistics().total_messages());
      sim::wire::put_varint(out, host.net().wire_frames());
      sim::wire::put_varint(out, host.net().wire_bytes_sent());
      sim::wire::put_varint(out, host.decode_errors());
      sim::wire::put_varint(out, host.net().now());
      reply();
    };

    auto last_control = std::chrono::steady_clock::now();

    host.set_control([&](const net::endpoint& from, const std::uint8_t* p,
                         std::size_t n) -> bool {
      if (from != control_ep) return false;  // untrusted source
      try {
        sim::wire::reader r(p + 1, n - 1);
        switch (p[0]) {
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
            if (!portmapped) {
              host.set_peers(std::move(ports));
              portmapped = true;
            }
            break;
          }
          case net::dg_start:
            r.expect_end();
            // Before the portmap arrives there is nowhere to route; the
            // orchestrator re-sends both until status answers flow.
            if (portmapped) host.start();
            break;
          case net::dg_status_req:
            r.expect_end();
            out.clear();
            out.push_back(net::dg_status);
            sim::wire::put_varint(out, index);
            sim::wire::put_varint(out, host.progress());
            sim::wire::put_varint(out, host.outstanding());
            sim::wire::put_varint(out, host.decode_errors());
            reply();
            break;
          case net::dg_finalize: {
            const std::uint64_t magic = r.varint();
            r.expect_end();
            if (magic != net::finalize_magic)
              throw sim::wire::decode_error("finalize: bad magic");
            send_states();
            if (!json_path.empty() && !report_written) {
              const telemetry::run_report rep =
                  host.report(host.outstanding() == 0);
              std::ofstream f(json_path);
              f << rep.to_json();
              report_written = f.good();
            }
            break;
          }
          case net::dg_stop:
            r.expect_end();
            stop = true;
            break;
          default:
            return false;
        }
      } catch (const sim::wire::decode_error&) {
        return false;  // malformed control: counted as a decode drop
      }
      last_control = std::chrono::steady_clock::now();
      return true;
    });

    while (!stop) {
      if (!portmapped) {
        // Announce the data endpoint until the orchestrator maps us.
        out.clear();
        out.push_back(net::dg_hello);
        sim::wire::put_varint(out, index);
        reply();
      }
      host.poll_once(50);
      const auto idle = std::chrono::steady_clock::now() - last_control;
      if (idle > std::chrono::seconds(idle_timeout_s)) {
        std::cerr << "discoveryd[" << index
                  << "]: no control traffic for " << idle_timeout_s
                  << "s; orphaned — exiting\n";
        return 1;
      }
    }

    if (!quiet)
      std::cerr << "discoveryd[" << index << "]: stopped ("
                << host.net().statistics().total_messages() << " messages, "
                << host.decode_errors() << " decode drops)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "discoveryd: " << e.what() << "\n";
    return 1;
  }
}
