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
//      the generated topology.  Each child's stdin is its end of a
//      socketpair: one reliable, ordered stream of control records
//      (net/envelope.h) per child, while UDP carries only the data plane;
//   2. read each child's dg_hello (its data port), then send dg_portmap to
//      every child before dg_start to any;
//   3. optionally blast --garbage K malformed datagrams at every data port
//      from an untrusted socket (they must be *counted* as decode drops,
//      never crash a child or stall convergence);
//   4. poll dg_status_req until the cluster converges: every process
//      reports zero outstanding work and cluster-wide progress is
//      unchanged across two consecutive complete rounds;
//   5. dg_finalize each child in turn: collect its nodes' member_state
//      (net::read_state) up to its dg_state_end, and verify the discovery
//      result with core::check_membership — the simulator's §1.2 verdict
//      (exactly one leader per weak component, complete done set, routed
//      non-leaders, no parked work);
//   6. run the in-process simulator twin (same graph, same variant) and
//      emit BENCH_service_loopback.json with the convergence time, the
//      service's messages, frames and wire bytes, and the twin's message
//      count;
//   7. dg_stop everything and reap; any child exiting nonzero fails the
//      run.
//
// A child that dies closes its stream, which fails the run at the next
// record; when loadgen dies, each child sees its stream close and exits.
//
// Exit codes: 0 verified convergence, 1 failure (timeout, checker
// violation, child crash), 2 usage.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
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
  net::record_stream ctl;  ///< loadgen's end of the child's stdin stream
  std::uint16_t port = 0;  ///< data port, from dg_hello
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
    // --- 1. spawn -------------------------------------------------------
    const std::string daemon =
        daemon_path.empty() ? self_dir() + "/discoveryd" : daemon_path;
    for (std::uint64_t i = 0; i < procs; ++i) {
      // CLOEXEC keeps every pair out of the other children: a child's exit
      // must close the last copy of its end, so that loadgen sees the end
      // of the stream.  dup2 clears the flag on the child's stdin.
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        return fail("socketpair failed");
      const pid_t pid = ::fork();
      if (pid < 0) return fail("fork failed");
      if (pid == 0) {
        ::dup2(sv[1], STDIN_FILENO);
        ::execl(daemon.c_str(), daemon.c_str(), "--gen", gen_spec.c_str(),
                "--variant", variant_name.c_str(), "--procs",
                std::to_string(procs).c_str(), "--index",
                std::to_string(i).c_str(), "--seed",
                std::to_string(seed).c_str(), "--quiet",
                report_prefix.empty() ? nullptr : "--json",
                report_prefix.empty()
                    ? nullptr
                    : (report_prefix + "." + std::to_string(i) + ".json")
                          .c_str(),
                nullptr);
        std::perror("loadgen: execl discoveryd");
        std::_Exit(127);
      }
      ::close(sv[1]);
      kids[i].pid = pid;
      kids[i].ctl = net::record_stream(sv[0]);
    }

    const auto send = [&](std::size_t i, const std::vector<std::uint8_t>& r) {
      if (!kids[i].ctl.send(r))
        throw std::runtime_error("discoveryd " + std::to_string(i) +
                                 " closed its stream");
    };
    const auto send_all = [&](const std::vector<std::uint8_t>& r) {
      for (std::size_t i = 0; i < procs; ++i) send(i, r);
    };
    // Child i's next record into `rec`, and a reader over its body; the
    // record's tag must be `tag` unless that is 0.
    std::vector<std::uint8_t> rec;
    const auto receive = [&](std::size_t i, std::uint8_t tag) {
      const std::string name = "discoveryd " + std::to_string(i);
      while (!kids[i].ctl.next(rec)) {
        if (clock_t_::now() >= deadline)
          throw std::runtime_error("timed out waiting for " + name);
        if (!kids[i].ctl.fill(100))
          throw std::runtime_error(name + " closed its stream");
      }
      if (rec.empty() || (tag != 0 && rec[0] != tag))
        throw std::runtime_error("unexpected record from " + name);
      return sim::wire::reader(rec.data() + 1, rec.size() - 1);
    };

    // --- 2. hello -> portmap -> start -----------------------------------
    std::vector<std::uint8_t> portmap = {net::dg_portmap};
    sim::wire::put_varint(portmap, procs);
    for (std::size_t i = 0; i < procs; ++i) {
      sim::wire::reader r = receive(i, net::dg_hello);
      const std::uint64_t port = r.varint();
      r.expect_end();
      kids[i].port = static_cast<std::uint16_t>(port);
      sim::wire::put_varint(portmap, port);
    }
    const auto started_at = clock_t_::now();
    // Every child is mapped before any starts, so that the first data
    // datagram finds its routes.
    send_all(portmap);
    send_all({net::dg_start});

    // --- 3. garbage injection (from an *untrusted* socket) ---------------
    if (garbage > 0) {
      net::udp_socket garbage_sock;
      garbage_sock.bind_loopback();
      rng grng(seed ^ 0x6A72'6261'6765ull);
      std::vector<std::uint8_t> junk;
      for (const child& c : kids) {
        for (std::uint64_t k = 0; k < garbage; ++k) {
          junk.clear();
          // Rotate through raw noise, truncated data-plane envelopes, and
          // control tags, which have no meaning on UDP.  All must be
          // counted, none may crash.
          const std::uint64_t kind = k % 3;
          if (kind == 0) junk.push_back(static_cast<std::uint8_t>(grng.next()));
          else if (kind == 1) junk.push_back(net::dg_data);
          else junk.push_back(net::dg_status_req);
          const std::uint64_t len = grng.below(48);
          for (std::uint64_t b = 0; b < len; ++b)
            junk.push_back(static_cast<std::uint8_t>(grng.next()));
          garbage_sock.send_to(net::loopback(c.port), junk.data(),
                               junk.size());
        }
      }
    }

    // --- 4. convergence polling ------------------------------------------
    double convergence_ms = 0.0;
    std::uint64_t last_progress_sum = ~0ull;
    for (;;) {
      if (clock_t_::now() >= deadline)
        return fail("cluster did not converge before --timeout");
      send_all({net::dg_status_req});
      std::uint64_t outstanding_sum = 0, progress_sum = 0;
      for (std::size_t i = 0; i < procs; ++i) {
        sim::wire::reader r = receive(i, net::dg_status);
        progress_sum += r.varint();
        outstanding_sum += r.varint();
        r.varint();  // decode drops so far; dg_state_end has the final count
        r.expect_end();
      }
      if (outstanding_sum == 0 && progress_sum == last_progress_sum) {
        convergence_ms = std::chrono::duration<double, std::milli>(
                             clock_t_::now() - started_at)
                             .count();
        break;
      }
      last_progress_sum = progress_sum;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // --- 5. finalize + membership check ----------------------------------
    std::vector<core::member_state> members;
    members.reserve(n);
    std::uint64_t svc_messages = 0, svc_frames = 0, svc_bytes = 0,
                  svc_decode_errors = 0;
    for (std::size_t i = 0; i < procs; ++i) {
      send(i, {net::dg_finalize});
      for (;;) {
        sim::wire::reader r = receive(i, 0);
        if (rec[0] == net::dg_state) {
          net::read_state(r, members.emplace_back());
          continue;
        }
        if (rec[0] != net::dg_state_end)
          throw std::runtime_error("unexpected record during finalize");
        svc_messages += r.varint();
        svc_frames += r.varint();
        svc_bytes += r.varint();
        svc_decode_errors += r.varint();
        r.expect_end();
        break;
      }
    }
    const core::check_report verdict =
        core::check_membership(members, g.weak_components(), cfg.algo);
    if (!verdict.ok())
      return fail("membership check:\n" + verdict.to_string());

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
    send_all({net::dg_stop});
    bool clean = true;
    for (child& c : kids) {
      // The stream closes before the child can be reaped: give it a
      // bounded time to exit, then kill it.
      int status = 0;
      const auto stop_deadline = clock_t_::now() + std::chrono::seconds(5);
      while (::waitpid(c.pid, &status, WNOHANG) != c.pid) {
        if (clock_t_::now() > stop_deadline) {
          ::kill(c.pid, SIGKILL);
          ::waitpid(c.pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
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
