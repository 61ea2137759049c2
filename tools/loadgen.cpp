// loadgen — spawns and drives a service-mode discovery cluster on loopback.
//
//   loadgen --gen KIND:N[:EXTRA[:SEED]] [--variant V] [--procs P]
//           [--seed S] [--garbage K] [--report PREFIX] [--timeout SEC]
//           [--daemon PATH] [--json PATH | --no-json]
//
// The full service-mode acceptance path in one binary:
//
//   1. fork/exec P discoveryd processes (found next to this binary unless
//      --daemon overrides), each hosting the nodes {v : v mod P == i} of
//      the generated topology;
//   2. collect dg_hello announcements to learn each child's data port,
//      then broadcast dg_portmap + dg_start (re-sent until status answers
//      flow — the control plane is idempotent over lossy UDP);
//   3. optionally blast --garbage K malformed datagrams at every data port
//      from an untrusted socket (they must be *counted* as decode drops,
//      never crash a child or stall convergence);
//   4. poll dg_status_req until the cluster converges: every process
//      reports zero outstanding work and cluster-wide progress is
//      unchanged across two consecutive complete rounds;
//   5. dg_finalize: collect every node's member_state (net::read_state)
//      and verify the discovery result with core::check_membership — the
//      simulator's §1.2 verdict (exactly one leader per weak component,
//      complete done set, routed non-leaders, no parked work);
//   6. run the in-process simulator twin (same graph, same variant) and
//      emit BENCH_service_loopback.json with the convergence time, the
//      service's messages, frames and wire bytes, and the twin's message
//      count;
//   7. dg_stop everything and reap; any child exiting nonzero fails the
//      run.
//
// Exit codes: 0 verified convergence, 1 failure (timeout, checker
// violation, child crash), 2 usage.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_report.h"
#include "common/parse.h"
#include "common/rng.h"
#include "core/checker.h"
#include "core/runner.h"
#include "net/envelope.h"
#include "net/genspec.h"
#include "net/udp.h"
#include "sim/scheduler.h"
#include "sim/wire.h"
#include "telemetry/report.h"

namespace {

using namespace asyncrd;
using clock_t_ = std::chrono::steady_clock;

constexpr int exit_usage = 2;

[[noreturn]] void usage(const char* err) {
  if (err != nullptr) std::cerr << "loadgen: " << err << "\n\n";
  std::cerr <<
      "usage: loadgen --gen KIND:N[:EXTRA[:SEED]] [options]\n"
      "  --variant generic|bounded|adhoc  algorithm variant (default generic)\n"
      "  --procs P        discoveryd processes to spawn (default 4)\n"
      "  --seed S         link seed (default 1)\n"
      "  --garbage K      inject K malformed datagrams per data port\n"
      "  --report PREFIX  children write PREFIX.<i>.json run reports\n"
      "  --timeout SEC    overall deadline (default 120)\n"
      "  --daemon PATH    discoveryd binary (default: next to loadgen)\n"
      "  --json PATH      bench output (default BENCH_service_loopback.json)\n"
      "  --no-json        skip the bench file\n";
  std::exit(exit_usage);
}

std::uint64_t num_u64(const std::string& flag, const std::string& text) {
  const auto v = parse_u64(text);
  if (!v)
    usage((flag + ": expected a non-negative integer, got '" + text + "'")
              .c_str());
  return *v;
}

/// Directory of the running binary, from /proc/self/exe.
std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

struct child {
  pid_t pid = -1;
  net::endpoint data;     ///< learned from dg_hello's source address
  bool known = false;     ///< hello received
  bool answered = false;  ///< at least one dg_status received
  std::uint64_t progress = 0;
  std::uint64_t outstanding = ~0ull;
  std::uint64_t decode_errors = 0;
  bool state_end = false;
  std::uint64_t total_messages = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t final_decode_errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string gen_spec, variant_name = "generic", report_prefix, daemon_path;
  std::uint64_t procs = 4, seed = 1, garbage = 0, timeout_s = 120;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--gen") gen_spec = next();
    else if (a == "--variant") variant_name = next();
    else if (a == "--procs") procs = num_u64(a, next());
    else if (a == "--seed") seed = num_u64(a, next());
    else if (a == "--garbage") garbage = num_u64(a, next());
    else if (a == "--report") report_prefix = next();
    else if (a == "--timeout") timeout_s = num_u64(a, next());
    else if (a == "--daemon") daemon_path = next();
    else if (a == "--json") { ++i; }       // consumed by bench::reporter
    else if (a == "--no-json") {}          // consumed by bench::reporter
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown flag " + a).c_str());
  }
  if (gen_spec.empty()) usage("--gen is required");
  if (procs == 0 || procs > 256) usage("--procs must be in 1..256");

  core::config cfg;
  if (variant_name == "generic") cfg.algo = core::variant::generic;
  else if (variant_name == "bounded") cfg.algo = core::variant::bounded;
  else if (variant_name == "adhoc") cfg.algo = core::variant::adhoc;
  else usage("unknown --variant");

  const net::genspec_result gen = net::parse_genspec(gen_spec);
  if (!gen.ok()) usage(gen.error.c_str());
  const graph::digraph& g = gen.graph;
  const std::size_t n = g.node_count();

  bench::reporter rep("service_loopback", argc, argv);
  std::vector<child> kids(procs);
  const auto deadline = clock_t_::now() + std::chrono::seconds(timeout_s);

  const auto kill_all = [&kids]() {
    for (child& c : kids)
      if (c.pid > 0) ::kill(c.pid, SIGKILL);
    for (child& c : kids) {
      if (c.pid > 0) ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
  };
  const auto fail = [&](const std::string& why) -> int {
    std::cerr << "loadgen: FAIL: " << why << "\n";
    kill_all();
    rep.note("failed", 1.0);
    return rep.finish(false) == 0 ? 1 : 1;
  };

  try {
    net::udp_socket control;
    control.bind_loopback();

    // --- 1. spawn -------------------------------------------------------
    const std::string daemon =
        daemon_path.empty() ? self_dir() + "/discoveryd" : daemon_path;
    for (std::uint64_t i = 0; i < procs; ++i) {
      const pid_t pid = ::fork();
      if (pid < 0) return fail("fork failed");
      if (pid == 0) {
        ::execl(daemon.c_str(), daemon.c_str(), "--gen", gen_spec.c_str(),
                "--variant", variant_name.c_str(), "--procs",
                std::to_string(procs).c_str(), "--index",
                std::to_string(i).c_str(), "--seed",
                std::to_string(seed).c_str(), "--control",
                std::to_string(control.port()).c_str(), "--quiet",
                report_prefix.empty() ? nullptr : "--json",
                report_prefix.empty()
                    ? nullptr
                    : (report_prefix + "." + std::to_string(i) + ".json")
                          .c_str(),
                nullptr);
        std::perror("loadgen: execl discoveryd");
        std::_Exit(127);
      }
      kids[i].pid = pid;
    }

    std::vector<std::uint8_t> out, in(net::max_datagram);
    net::endpoint from;
    const auto send_to_all = [&](const std::vector<std::uint8_t>& d) {
      for (const child& c : kids)
        if (c.known) control.send_to(c.data, d.data(), d.size());
    };
    const auto check_children_alive = [&]() -> bool {
      for (child& c : kids) {
        if (c.pid <= 0) continue;
        int status = 0;
        if (::waitpid(c.pid, &status, WNOHANG) == c.pid) {
          c.pid = -1;
          return false;  // a child died before dg_stop
        }
      }
      return true;
    };

    // Drains pending control-socket datagrams into the child table.
    std::vector<core::member_state> members;
    std::unordered_set<node_id> member_ids;  ///< ids already in `members`
    const auto drain = [&]() {
      for (;;) {
        const std::ptrdiff_t got =
            control.recv_from(from, in.data(), in.size());
        if (got < 0) break;
        if (got == 0) continue;
        try {
          sim::wire::reader r(in.data() + 1, static_cast<std::size_t>(got) - 1);
          switch (in[0]) {
            case net::dg_hello: {
              const std::uint64_t idx = r.varint();
              r.expect_end();
              if (idx >= procs) break;
              kids[idx].data = from;
              kids[idx].known = true;
              break;
            }
            case net::dg_status: {
              const std::uint64_t idx = r.varint();
              if (idx >= procs) break;
              child& c = kids[idx];
              c.progress = r.varint();
              c.outstanding = r.varint();
              c.decode_errors = r.varint();
              r.expect_end();
              c.answered = true;
              break;
            }
            case net::dg_state: {
              core::member_state m;
              if (net::read_state(r, m) >= procs) break;
              // Idempotent finalize: children re-send on every dg_finalize,
              // so the first copy of each node's state wins.
              if (member_ids.insert(m.id).second)
                members.push_back(std::move(m));
              break;
            }
            case net::dg_state_end: {
              const std::uint64_t idx = r.varint();
              if (idx >= procs) break;
              child& c = kids[idx];
              c.total_messages = r.varint();
              c.wire_frames = r.varint();
              c.wire_bytes = r.varint();
              c.final_decode_errors = r.varint();
              r.varint();  // virtual completion time (per-proc, unused)
              r.expect_end();
              c.state_end = true;
              break;
            }
            default:
              break;  // stray datagram on the control socket: ignore
          }
        } catch (const sim::wire::decode_error&) {
          // Malformed control traffic: ignore (children are trusted, UDP
          // is not; the next idempotent round recovers).
        }
      }
    };

    // --- 2. hello -> portmap -> start -----------------------------------
    while (clock_t_::now() < deadline) {
      drain();
      if (std::all_of(kids.begin(), kids.end(),
                      [](const child& c) { return c.known; }))
        break;
      if (!check_children_alive()) return fail("a child exited during hello");
      net::wait_readable(control.fd(), 50);
    }
    if (!std::all_of(kids.begin(), kids.end(),
                     [](const child& c) { return c.known; }))
      return fail("timed out waiting for dg_hello from every child");

    out.clear();
    out.push_back(net::dg_portmap);
    sim::wire::put_varint(out, procs);
    for (const child& c : kids) sim::wire::put_varint(out, c.data.port);
    const std::vector<std::uint8_t> portmap = out;
    const std::vector<std::uint8_t> start = {net::dg_start};
    const std::vector<std::uint8_t> status_req = {net::dg_status_req};

    const auto started_at = clock_t_::now();
    send_to_all(portmap);
    send_to_all(start);

    // --- 3. garbage injection (from an *untrusted* socket) ---------------
    if (garbage > 0) {
      net::udp_socket garbage_sock;
      garbage_sock.bind_loopback();
      rng grng(seed ^ 0x6A72'6261'6765ull);
      std::vector<std::uint8_t> junk;
      for (const child& c : kids) {
        for (std::uint64_t k = 0; k < garbage; ++k) {
          junk.clear();
          // Rotate through the datagram planes: raw noise, truncated
          // data-plane envelopes, and control-plane tags from this
          // unknown endpoint.  All must be counted, none may crash.
          const std::uint64_t kind = k % 3;
          if (kind == 0) junk.push_back(static_cast<std::uint8_t>(grng.next()));
          else if (kind == 1) junk.push_back(net::dg_data);
          else junk.push_back(net::dg_status_req);
          const std::uint64_t len = grng.below(48);
          for (std::uint64_t b = 0; b < len; ++b)
            junk.push_back(static_cast<std::uint8_t>(grng.next()));
          garbage_sock.send_to(c.data, junk.data(), junk.size());
        }
      }
    }

    // --- 4. convergence polling ------------------------------------------
    bool converged = false;
    double convergence_ms = 0.0;
    std::uint64_t last_progress_sum = ~0ull;
    while (clock_t_::now() < deadline) {
      for (child& c : kids) c.answered = false;
      send_to_all(status_req);
      // A child that never answered may have lost portmap/start: re-send.
      const auto round_end = clock_t_::now() + std::chrono::milliseconds(60);
      while (clock_t_::now() < round_end) {
        net::wait_readable(control.fd(), 20);
        drain();
        if (std::all_of(kids.begin(), kids.end(),
                        [](const child& c) { return c.answered; }))
          break;
      }
      if (!check_children_alive())
        return fail("a child exited during convergence");
      if (!std::all_of(kids.begin(), kids.end(),
                       [](const child& c) { return c.answered; })) {
        send_to_all(portmap);
        send_to_all(start);
        continue;
      }
      std::uint64_t outstanding_sum = 0, progress_sum = 0;
      for (const child& c : kids) {
        outstanding_sum += c.outstanding;
        progress_sum += c.progress;
      }
      if (outstanding_sum == 0 && progress_sum == last_progress_sum) {
        converged = true;
        convergence_ms = std::chrono::duration<double, std::milli>(
                             clock_t_::now() - started_at)
                             .count();
        break;
      }
      last_progress_sum = progress_sum;
    }
    if (!converged) return fail("cluster did not converge before --timeout");

    // --- 5. finalize + membership check ----------------------------------
    const std::vector<std::uint8_t> finalize = [] {
      std::vector<std::uint8_t> d{net::dg_finalize};
      sim::wire::put_varint(d, net::finalize_magic);
      return d;
    }();
    while (clock_t_::now() < deadline) {
      send_to_all(finalize);
      const auto round_end = clock_t_::now() + std::chrono::milliseconds(100);
      while (clock_t_::now() < round_end) {
        net::wait_readable(control.fd(), 25);
        drain();
        if (std::all_of(kids.begin(), kids.end(),
                        [](const child& c) { return c.state_end; }))
          break;
      }
      if (std::all_of(kids.begin(), kids.end(),
                      [](const child& c) { return c.state_end; }))
        break;
    }
    if (!std::all_of(kids.begin(), kids.end(),
                     [](const child& c) { return c.state_end; }))
      return fail("timed out collecting final state");
    if (members.size() != n)
      return fail("collected " + std::to_string(members.size()) +
                  " member states for " + std::to_string(n) + " nodes");

    const core::check_report verdict =
        core::check_membership(members, g.weak_components(), cfg.algo);
    if (!verdict.ok())
      return fail("membership check:\n" + verdict.to_string());

    std::uint64_t svc_messages = 0, svc_frames = 0, svc_bytes = 0,
                  svc_decode_errors = 0;
    for (const child& c : kids) {
      svc_messages += c.total_messages;
      svc_frames += c.wire_frames;
      svc_bytes += c.wire_bytes;
      svc_decode_errors += c.final_decode_errors;
    }
    if (garbage > 0 && svc_decode_errors == 0)
      return fail("--garbage was injected but no decode drops were counted");

    // --- 6. simulator twin + bench report --------------------------------
    sim::unit_delay_scheduler sched;
    core::discovery_run twin(g, cfg, sched);
    twin.wake_all();
    const sim::run_result twin_res = twin.run();
    const core::check_report twin_verdict = core::check_final_state(twin, g);
    if (!twin_res.completed || !twin_verdict.ok())
      return fail("simulator twin failed its own checker");
    const std::uint64_t sim_messages = twin.net().statistics().total_messages();

    const double dn = static_cast<double>(n);
    rep.add("convergence_ms", dn, convergence_ms, 0.0);
    rep.add("service_messages", dn, static_cast<double>(svc_messages), 0.0);
    rep.add("service_wire_frames", dn, static_cast<double>(svc_frames), 0.0);
    rep.add("service_wire_bytes", dn, static_cast<double>(svc_bytes), 0.0);
    rep.add("sim_messages", dn, static_cast<double>(sim_messages), 0.0);
    rep.merge_stats(twin.net().statistics());
    rep.note("procs", static_cast<double>(procs));
    rep.note("seed", static_cast<double>(seed));
    rep.note("garbage_per_port", static_cast<double>(garbage));
    rep.note("decode_errors", static_cast<double>(svc_decode_errors));
    rep.note("service_vs_sim_messages",
             sim_messages > 0 ? static_cast<double>(svc_messages) /
                                    static_cast<double>(sim_messages)
                              : 0.0);

    // --- 7. stop + reap ---------------------------------------------------
    send_to_all({net::dg_stop});
    bool clean = true;
    for (child& c : kids) {
      if (c.pid <= 0) continue;
      int status = 0;
      const auto stop_deadline = clock_t_::now() + std::chrono::seconds(5);
      for (;;) {
        const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
        if (r == c.pid) break;
        if (clock_t_::now() > stop_deadline) {
          // dg_stop lost repeatedly or the child wedged: re-send, then kill.
          control.send_to(c.data, out.data(), 0);
          const std::vector<std::uint8_t> stop_dg = {net::dg_stop};
          control.send_to(c.data, stop_dg.data(), stop_dg.size());
          ::kill(c.pid, SIGKILL);
          ::waitpid(c.pid, &status, 0);
          clean = false;
          break;
        }
        const std::vector<std::uint8_t> stop_dg = {net::dg_stop};
        control.send_to(c.data, stop_dg.data(), stop_dg.size());
        net::wait_readable(control.fd(), 50);
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
      c.pid = -1;
    }
    if (!clean) return fail("a child did not exit cleanly");

    std::cout << "loadgen: " << variant_name << " cluster of " << n
              << " nodes over " << procs << " processes converged in "
              << convergence_ms << " ms (" << svc_messages << " messages, "
              << svc_bytes << " wire bytes, " << svc_decode_errors
              << " decode drops); membership verified\n";
    return rep.finish(true);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
