#include "sweep/preflight.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>

#include "graph/graph_trials.hpp"

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

/// Bytes allocated while building and packing an arena topology with m
/// undirected edges (graph/builders.cpp, graph/agent_graph.cpp):
///   builder scratch   regular: a u32 stub per arc, a u32 row cursor per
///                     node and the flat edge-key table (a power of two of
///                     at least 2m u64 slots); every other topology: the
///                     16-byte edge pairs plus from_edges' two u64 counters
///                     per node, and for er/gnm the same edge-key table
///   Topology CSR      u64 offsets + a u64 id per arc
///   arena             u64 offsets + a u32 id per arc
/// Billed as one sum although the scratch is freed before the arena is
/// packed, so the bill errs high by the scratch.
std::uint64_t arena_build_bytes(const std::string& kind, std::uint64_t n,
                                std::uint64_t m) {
  const std::uint64_t arcs = sat_mul(2, m);
  const std::uint64_t offsets = sat_mul(sat_add(n, 1), 8);
  const std::uint64_t topology_csr = sat_add(offsets, sat_mul(arcs, 8));
  const std::uint64_t arena = sat_add(offsets, sat_mul(arcs, 4));
  const std::uint64_t edge_table = sat_mul(sat_bit_ceil(arcs), 8);
  std::uint64_t scratch = sat_add(sat_mul(m, 16), sat_mul(n, 16));
  if (kind == "regular") {
    scratch = sat_add(sat_add(sat_mul(arcs, 4), sat_mul(n, 4)), edge_table);
  } else if (kind == "er" || kind == "gnm") {
    scratch = sat_add(scratch, edge_table);
  }
  return sat_add(sat_add(scratch, topology_csr), arena);
}

/// Per-node state bytes of the graph step workspace, matching the memory
/// mode run_graph_trials will actually pick (graph_workspace.hpp):
/// bytes-only = the two u8 buffers; k <= 256 = u32 pair + u8 mirror pair;
/// otherwise u32 pair only.
std::uint64_t graph_state_bytes_per_node(const scenario::ScenarioSpec& spec) {
  const bool has_adversary = spec.adversary != "none";
  if (spec.k <= 256 &&
      graph::graph_bytes_only_auto(spec.n, spec.k, has_adversary)) {
    return 2;
  }
  return spec.k <= 256 ? 2 * 4 + 2 : 2 * 4;
}

}  // namespace

std::uint64_t estimate_cell_memory_bytes(const scenario::ScenarioSpec& spec) {
  std::string backend;
  try {
    backend = spec.resolved_backend();
  } catch (...) {
    backend = spec.backend == "auto" ? "graph" : spec.backend;
  }
  const std::uint64_t n = spec.n;
  const std::uint64_t k = spec.k;
  constexpr std::uint64_t kFixed = 1ull << 20;  // code, spec, summaries

  if (backend == "count") {
    // Θ(k) counters per engine state; trials reuse one workspace.
    return kFixed + 64 * k * 8;
  }
  if (backend == "agent") {
    // Two state arrays (u32), two byte mirrors, per-thread count partials.
    const std::uint64_t per_trial =
        sat_add(sat_mul(2 * 4 + 2, n), 64 * k * 8);
    return sat_add(kFixed, sat_mul(per_trial, 3) / 2);
  }

  // graph backend. Implicit topologies (gossip/clique, and ring/torus/
  // lattice once the auto rule kicks in) build no arena: total state is the
  // step workspace — at n = 1e9 in bytes-only mode that is ~2 GB, which is
  // exactly why preflight must NOT bill such cells for a clique-sized CSR.
  std::string topo_backend;
  try {
    topo_backend = spec.resolved_topology_backend();
  } catch (...) {
    topo_backend = spec.topology_backend;  // "auto" falls to the arena model
  }
  const std::uint64_t workspace =
      sat_add(sat_mul(graph_state_bytes_per_node(spec), n), 64 * k * 8);
  if (topo_backend == "implicit") {
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
