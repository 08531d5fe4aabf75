// Standard topology generators for the sparse-graph extension experiments
// (E13): structured graphs (cycle, torus) and random graphs (d-regular via
// the configuration model, Erdős–Rényi G(n, m)). Each writes its rows once,
// straight into the packed AgentGraph arena.
#pragma once

#include "graph/agent_graph.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::graph {

/// Cycle C_n (n >= 3).
AgentGraph cycle(count_t n);

/// rows x cols torus grid (4-regular, wrap-around; rows, cols >= 3).
AgentGraph torus(count_t rows, count_t cols);

/// Circulant d-regular lattice: v ~ v +- j (mod n) for j = 1..d/2 (d even,
/// 2 <= d <= n - 2). d = 2 is exactly cycle(n). The arena twin of
/// ImplicitTopology::lattice — edge emission order is part of the implicit
/// engine's bitwise contract (implicit_topology.hpp).
AgentGraph circulant_lattice(count_t n, count_t d);

/// Random simple d-regular graph via Steger–Wormald pairing: d*n stubs
/// paired uniformly (d*n must be even, d < n <= 2^32 - 1). A pair that
/// would form a self-loop or a parallel edge is redrawn, up to 200 times;
/// if none fits, the pairing restarts. Same generator state, same graph:
/// tests/graph/test_builders.cpp pins the rows and the draws consumed.
AgentGraph random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen);

/// Largest degree at which random_regular finds parallel edges by scanning
/// the node's arena row rather than in a table of edge keys (8 bytes per
/// slot, bit_ceil(n*d) slots). The scan allocates nothing but costs O(d) per
/// draw. Chosen by timing builds at d in {16, 32, 64, 96, 128}
/// (docs/performance.md, "Graph build"). It changes no graph or draw.
inline constexpr count_t kRowScanMaxDegree = 64;

/// Erdős–Rényi G(n, m): m distinct edges (no self-loops) chosen uniformly.
/// With `patch_isolated`, every degree-0 vertex is afterwards attached to a
/// uniform random partner (adding a few edges beyond m) so that sampling
/// dynamics are well-defined on every node.
AgentGraph erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                       bool patch_isolated = false);

}  // namespace plurality::graph
