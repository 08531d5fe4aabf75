// Name-based factory over the topology generators — the graph-layer
// member of the registry family (core/registry.hpp names dynamics,
// core/adversary.hpp names adversaries, core/workloads.hpp names initial
// configurations). The scenario layer composes all four from one spec.
#pragma once

#include <string>
#include <vector>

#include "graph/agent_graph.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::graph {

/// Parses and validates `spec` against a node count WITHOUT building the
/// graph (torus dimensions must factor n, the configuration model needs
/// d*n even, ...). Throws CheckError with an actionable message; returns
/// normally when make_topology(spec, n, gen) would succeed on a readable
/// edge-list file.
void validate_topology_spec(const std::string& spec, count_t n);

/// Builds the CSR-packed graph named by `spec` on `n` nodes. Accepted
/// specs:
///   "clique"             implicit complete graph (the paper's model)
///   "gossip"             uniform pull over the whole population (self
///                        included) — the gossip model of arXiv:1407.2565;
///                        same sampling as clique, but never rerouted to the
///                        count backend, so it always exercises the node
///                        engine
///   "ring"               cycle C_n (n >= 3)
///   "torus"              square torus (n must be a perfect square, side >= 3)
///   "torus:<r>x<c>"      r x c torus (r*c == n; r, c >= 3)
///   "lattice:<d>"        circulant d-regular lattice: v ~ v +- j (mod n)
///                        for j = 1..d/2 (d even; lattice:2 == ring)
///   "regular:<d>"        random d-regular (configuration model; d*n even)
///   "er:<p>"             Erdős–Rényi G(n, m) with m = round(p * n(n-1)/2),
///                        isolated vertices patched (sampling needs degree
///                        >= 1 everywhere); p in (0, 1]
///   "edges:<path>"       undirected edge list: one "u v" pair per line
///                        (0-based ids < n; '#' comment lines allowed)
/// Random families (regular, er) consume `gen`; the same generator state
/// reproduces the same graph. Arena-backed builds cap n at 2^32 - 1 (ids
/// are packed u32); clique/gossip cap n at 2^32 - 1 (batched sample
/// bound). Throws CheckError on malformed specs. Nodes keep the builder's
/// numbering: the CSR arena is packed in builder order.
AgentGraph make_topology(const std::string& spec, count_t n, rng::Xoshiro256pp& gen);

/// Builds the arena-free implicit form of `spec` (neighbors computed from
/// the node id — see implicit_topology.hpp): clique, gossip, ring,
/// torus[:<r>x<c>], lattice:<d>. Ring/torus/lattice results are
/// bitwise-identical to the arena build of make_topology at any n where
/// both exist, and have no 32-bit id cap. Deterministic (no generator).
/// Throws CheckError for specs without an implicit form.
AgentGraph make_topology_implicit(const std::string& spec, count_t n);

/// True for specs with an implicit (arena-free) form usable by
/// make_topology_implicit.
bool topology_is_implicit_capable(const std::string& spec);

/// True for specs naming the implicit complete graph (compiles to the
/// count backend when the dynamics has an exact law). "gossip" is
/// deliberately NOT a clique here: it always stays on the node engine.
bool topology_is_clique(const std::string& spec);

/// The spec forms accepted by make_topology (grammar, for --list output).
std::vector<std::string> topology_names();

}  // namespace plurality::graph
