// Shared `--gen KIND:N[:EXTRA[:SEED]]` topology-spec parser.
//
// Service mode derives one graph in several places — every discoveryd
// process and the loadgen orchestrator must construct the *identical*
// topology from the spec string alone (the graph is never shipped over the
// wire) — so the parser lives here rather than per binary, and
// examples/discovery_cli.cpp's --gen flag uses it too.  All numeric
// fields go through the checked parser (common/parse.h), so a malformed
// spec yields a named error, never an uncaught std::stoull.
#pragma once

#include <optional>
#include <sstream>
#include <string>

#include "common/parse.h"
#include "graph/topology.h"

namespace asyncrd::net {

struct genspec_result {
  graph::digraph graph;
  std::string error;  ///< non-empty iff parsing failed
  bool ok() const noexcept { return error.empty(); }
};

inline genspec_result parse_genspec(const std::string& spec) {
  genspec_result out;
  std::istringstream ss(spec);
  std::string kind, tok;
  std::getline(ss, kind, ':');
  std::size_t n = 0, extra = 0;
  std::uint64_t seed = 1;
  const auto field = [&](const char* what,
                         std::uint64_t& into) -> bool {
    const auto v = parse_u64(tok);
    if (!v) {
      out.error = std::string("--gen ") + what +
                  ": expected a non-negative integer, got '" + tok + "'";
      return false;
    }
    into = *v;
    return true;
  };
  std::uint64_t n64 = 0, extra64 = 0;
  if (std::getline(ss, tok, ':') && !field("N", n64)) return out;
  if (std::getline(ss, tok, ':') && !field("EXTRA", extra64)) return out;
  if (std::getline(ss, tok, ':') && !field("SEED", seed)) return out;
  n = static_cast<std::size_t>(n64);
  extra = static_cast<std::size_t>(extra64);
  if (n == 0) {
    out.error = "--gen needs KIND:N";
    return out;
  }
  if (kind == "random")
    out.graph = graph::random_weakly_connected(n, extra, seed);
  else if (kind == "tree")
    out.graph = graph::directed_binary_tree(n);
  else if (kind == "path")
    out.graph = graph::directed_path(n);
  else if (kind == "star_in")
    out.graph = graph::star_in(n);
  else if (kind == "star_out")
    out.graph = graph::star_out(n);
  else if (kind == "clique")
    out.graph = graph::clique(n);
  else
    out.error = "unknown --gen kind '" + kind + "'";
  return out;
}

}  // namespace asyncrd::net
