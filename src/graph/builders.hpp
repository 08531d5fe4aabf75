// Standard topology generators for the sparse-graph extension experiments
// (E13): structured graphs (cycle, torus) and random graphs (d-regular via
// the configuration model, Erdős–Rényi G(n, m)).
#pragma once

#include "graph/topology.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::graph {

/// Cycle C_n (n >= 3).
Topology cycle(count_t n);

/// rows x cols torus grid (4-regular, wrap-around; rows, cols >= 3).
Topology torus(count_t rows, count_t cols);

/// Circulant d-regular lattice: v ~ v +- j (mod n) for j = 1..d/2 (d even,
/// 2 <= d <= n - 2). d = 2 is exactly cycle(n). The arena twin of
/// ImplicitTopology::lattice — edge emission order is part of the implicit
/// engine's bitwise contract (implicit_topology.hpp).
Topology circulant_lattice(count_t n, count_t d);

/// Random simple d-regular graph via Steger–Wormald pairing: d*n stubs
/// paired uniformly (d*n must be even, d < n <= 2^32 - 1). A pair that
/// would form a self-loop or a parallel edge is redrawn, up to 200 times;
/// if none fits, the pairing restarts. Same generator state, same graph:
/// tests/graph/test_builders.cpp pins the rows and the draws consumed.
Topology random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen);

/// Erdős–Rényi G(n, m): m distinct edges (no self-loops) chosen uniformly.
/// With `patch_isolated`, every degree-0 vertex is afterwards attached to a
/// uniform random partner (adding a few edges beyond m) so that sampling
/// dynamics are well-defined on every node.
Topology erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                     bool patch_isolated = false);

}  // namespace plurality::graph
