#include "sweep/preflight.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/thread_plan.hpp"
#include "graph/builders.hpp"
#include "graph/graph_workspace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace plurality::sweep {

namespace {

// Saturating u64 arithmetic: estimates feed a "fits / cannot fit"
// comparison, so wrapping is the one failure mode preflight must never
// have — a clique at n = 7e9 once wrapped (n*(n-1))/2 to a small number
// and sailed through the budget check. Saturated values compare as
// "cannot fit", which is always the safe answer.
constexpr std::uint64_t kSatMax = ~std::uint64_t{0};

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  const auto wide = static_cast<__uint128_t>(a) * b;
  return wide > kSatMax ? kSatMax : static_cast<std::uint64_t>(wide);
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum < a ? kSatMax : sum;
}

std::uint64_t sat_from_double(double v) {
  if (!(v > 0.0)) return 0;
  if (v >= 1.8e19) return kSatMax;  // below kSatMax, above any real estimate
  return static_cast<std::uint64_t>(v);
}

/// Edge-count upper bound for the packed CSR, from the topology grammar
/// (graph/topology_registry.hpp). Unknown/garbled arguments fall back to
/// the clique worst case — preflight must never under-estimate.
std::uint64_t estimate_edges(const std::string& topology, std::uint64_t n) {
  const std::uint64_t clique_edges = sat_mul(n, n > 0 ? n - 1 : 0) / 2;
  const std::size_t colon = topology.find(':');
  const std::string kind = topology.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : topology.substr(colon + 1);
  try {
    if (kind == "clique" || kind == "gossip") return clique_edges;
    if (kind == "ring") return n;
    if (kind == "torus") return sat_mul(2, n);
    if (kind == "lattice") return sat_mul(std::stoull(arg), n) / 2;
    if (kind == "regular") return sat_add(sat_mul(std::stoull(arg), n), 1) / 2;
    // Patching isolated nodes adds at most one edge per node.
    if (kind == "gnm") return sat_add(std::stoull(arg), n);
    if (kind == "er") {
      const double p = std::stod(arg);
      // Mean p*C(n,2) plus slack for the binomial tail.
      const double mean = p * 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
      return sat_add(sat_from_double(mean * 1.25), sat_mul(4, n));
    }
    if (kind == "edges") {
      // Proxy: an edge list line is >= 4 bytes ("a b\n"), so file bytes / 4
      // bounds the edge count from above.
      std::error_code ec;
      const auto size = std::filesystem::file_size(arg, ec);
      if (!ec) return static_cast<std::uint64_t>(size) / 4 + 1;
    }
  } catch (...) {
    // stoull/stod failure: validation will reject the spec; estimate big.
  }
  return clique_edges;
}

/// Smallest power of two >= v, saturating (the edge table's slot count).
std::uint64_t sat_bit_ceil(std::uint64_t v) {
  return v > (std::uint64_t{1} << 63) ? kSatMax : std::bit_ceil(v);
}

/// Bytes allocated while building an arena topology with m undirected
/// edges (graph/builders.cpp, graph/agent_graph.cpp):
///   builder scratch   regular: a u32 stub per arc and a u32 row cursor per
///                     node, plus, above graph::kRowScanMaxDegree, the flat
///                     edge-key table (a power of two of at least 2m u64
///                     slots); every other topology: the 16-byte edge pairs
///                     plus two u64 per node of slack, and for er/gnm the
///                     same edge-key table
///   arena             u64 offsets + a u32 id per arc
/// The builders write their rows straight into the arena while the
/// scratch is live, so the two are billed as one sum.
std::uint64_t arena_build_bytes(const std::string& kind, std::uint64_t n,
                                std::uint64_t m) {
  const std::uint64_t arcs = sat_mul(2, m);
  const std::uint64_t offsets = sat_mul(sat_add(n, 1), 8);
  const std::uint64_t arena = sat_add(offsets, sat_mul(arcs, 4));
  const std::uint64_t edge_table = sat_mul(sat_bit_ceil(arcs), 8);
  std::uint64_t scratch = sat_add(sat_mul(m, 16), sat_mul(n, 16));
  if (kind == "regular") {
    scratch = sat_add(sat_mul(arcs, 4), sat_mul(n, 4));
    // arcs / n is the degree (estimate_edges rounds d*n up to even).
    if (n == 0 || arcs / n > graph::kRowScanMaxDegree) scratch = sat_add(scratch, edge_table);
  } else if (kind == "er" || kind == "gnm") {
    scratch = sat_add(scratch, edge_table);
  }
  return sat_add(scratch, arena);
}

/// Per-node state bytes of the graph step workspace: one state array and
/// its double buffer, at the width graph::byte_states picks. Adversaries
/// edit the same array, so they add nothing per node.
std::uint64_t graph_state_bytes_per_node(const scenario::ScenarioSpec& spec) {
  return graph::byte_states(spec.k) ? 2 * 1 : 2 * 4;
}

/// Graph step workspaces alive at once: run_graph_trials builds one per
/// thread of the trial team its thread plan picks.
std::uint64_t concurrent_workspaces(const scenario::ScenarioSpec& spec) {
  return plan_threads(spec.trials, spec.n, available_threads(), /*team_rounds=*/true)
      .trial_team;
}

}  // namespace

std::string cell_backend(const scenario::ScenarioSpec& spec) {
  try {
    return spec.resolved_backend();
  } catch (...) {
    return spec.backend == "auto" ? "graph" : spec.backend;
  }
}

std::uint64_t estimate_cell_memory_bytes(const scenario::ScenarioSpec& spec) {
  const std::string backend = cell_backend(spec);
  const std::uint64_t n = spec.n;
  const std::uint64_t k = spec.k;
  constexpr std::uint64_t kFixed = 1ull << 20;  // code, spec, summaries

  if (backend == "count") {
    // Θ(k) counters per engine state; trials reuse one workspace.
    return kFixed + 64 * k * 8;
  }

  // graph backend. Implicit topologies (gossip/clique, and ring/torus/
  // lattice from n = 2^22 on) build no arena: total state is the step
  // workspaces — at n = 1e9 with k <= 256 that is ~2 GB per trial
  // thread, which is exactly why preflight must NOT bill such cells for a
  // clique-sized CSR.
  bool implicit = false;
  try {
    implicit = spec.resolved_topology_backend() == "implicit";
  } catch (...) {
    // Validation will reject the spec; bill the arena model.
  }
  const std::uint64_t workspace =
      sat_mul(sat_add(sat_mul(graph_state_bytes_per_node(spec), n), 64 * k * 8),
              concurrent_workspaces(spec));
  if (implicit) {
    return sat_add(kFixed, workspace);
  }
  const std::string kind = spec.topology.substr(0, spec.topology.find(':'));
  const std::uint64_t build =
      arena_build_bytes(kind, n, estimate_edges(spec.topology, n));
  return sat_add(sat_add(kFixed, build), workspace);
}

std::uint64_t default_memory_budget_bytes() {
  constexpr std::uint64_t kFallback = 2ull << 30;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGESIZE)
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGESIZE);
  if (pages > 0 && page > 0) {
    const std::uint64_t physical =
        static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
    return physical - physical / 5;  // keep 20% headroom for the OS
  }
#endif
  return kFallback;
}

std::string format_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", value, units[unit]);
  return buf;
}

}  // namespace plurality::sweep
