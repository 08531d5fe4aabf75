// High-throughput agent simulation on arbitrary topologies.
//
// Three pieces, mirroring the count-based engine's discipline (PR 1):
//
//  * AgentGraph — the one graph type: an immutable CSR-packed graph in one
//    contiguous arena holding the n+1 offsets followed by the 32-bit
//    neighbor ids, so a round's neighbor walks are sequential loads from a
//    single allocation. The builders (builders.hpp) write their rows
//    straight into it. The clique is represented implicitly (no adjacency
//    memory; sampling uniform over [n] including self, matching the
//    paper's model exactly), and so are the ring/torus/lattice descriptors
//    of implicit_topology.hpp.
//
//  * GraphStepWorkspace (graph_workspace.hpp) — all per-round scratch:
//    the double-buffered node-state array (one byte per node when k <= 256,
//    u32 beyond), per-chunk partial counts. Warm rounds perform zero heap
//    allocations.
//
//  * step_graph()/load_nodes() — the OpenMP-chunked stepper: kGraphChunks
//    fixed chunks with one hash-derived RNG stream per (round, chunk)
//    (thread-count invariant), fused per-dynamics kernels (kernels.hpp)
//    with a virtual-dispatch fallback for unregistered dynamics.
//
// The stepper is pinned BITWISE to the frozen pre-refactor implementation
// (reference_sim.hpp): same streams, same sampling order, same states,
// round by round — see tests/graph/test_graph_determinism.cpp.
// GraphSimulation keeps the original convenience API on top of the engine;
// on AgentGraph::complete it reproduces the clique model exactly and is
// property-tested against the count-based stepper.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/graph_workspace.hpp"
#include "graph/implicit_topology.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

/// Immutable CSR graph in a single contiguous arena.
///
/// Layout: arena_[0 .. n] are the 64-bit adjacency offsets; the 32-bit
/// neighbor ids are packed into the remaining words (two per u64). Node
/// count is capped at 2^32 - 1 so ids fit the packed width; offsets stay
/// 64-bit, so arc counts are unbounded. For the complete graph the arena
/// is empty and sampling is uniform over all n nodes (self included).
class AgentGraph {
 public:
  /// Empty graph; only useful as a move-assignment target.
  AgentGraph() = default;

  /// Implicit complete graph on n >= 1 nodes.
  static AgentGraph complete(count_t n);

  /// Arena-free graph over an ImplicitTopology descriptor: the kernels
  /// compute neighbor ids from the node id instead of gathering from the
  /// CSR arena, so memory is O(1) and node ids are not bound by the
  /// arena's 32-bit packing.
  static AgentGraph implicit(const ImplicitTopology& topo);

  /// Builds from an undirected edge list: both directions stored, a
  /// self-loop once, parallel edges with their multiplicity (sampling
  /// semantics). Row v lists v's incident edges in edge-list order — the
  /// order the implicit ring/torus/lattice descriptors reproduce. Checks
  /// every endpoint against n and caps n at 2^32 - 1.
  static AgentGraph from_edges(count_t n,
                               std::span<const std::pair<count_t, count_t>> edges);

  /// Degree-d graph on n nodes whose rows `write_rows` fills in place:
  /// row v is rows[v*d, v*d + d), and every slot must be written. For
  /// builders that know each degree up front (random_regular), so no edge
  /// list is held.
  static AgentGraph fixed_degree(
      count_t n, count_t d, const std::function<void(std::uint32_t* rows)>& write_rows);

  [[nodiscard]] bool is_complete() const { return complete_; }
  [[nodiscard]] count_t num_nodes() const { return n_; }

  /// True when neighbors are computed (ring/torus/lattice descriptors),
  /// false for arena-backed and complete graphs (the clique has its own
  /// dedicated sampling path).
  [[nodiscard]] bool is_implicit() const { return implicit_.implicit(); }
  /// The descriptor (family None on arena-backed and complete graphs).
  [[nodiscard]] const ImplicitTopology& implicit_topology() const { return implicit_; }

  /// Stored directed arcs (2x undirected edge count; 0 for the implicit
  /// complete graph).
  [[nodiscard]] std::uint64_t num_arcs() const { return arcs_; }

  /// Degree in the sampling model: n (self included) on the implicit
  /// complete graph, the stored neighbor count otherwise.
  [[nodiscard]] count_t degree(count_t v) const;

  /// Min/max degree over all nodes (computed once at build time).
  [[nodiscard]] count_t min_degree() const { return min_degree_; }
  [[nodiscard]] count_t max_degree() const { return max_degree_; }

  /// Raw CSR views for the kernels; only valid for explicit graphs. The
  /// neighbor pointer is derived from the arena on the fly (rather than
  /// cached) so the implicitly generated copy/move operations can never
  /// leave a pointer into another instance's arena.
  [[nodiscard]] const std::uint64_t* offsets() const { return arena_.data(); }
  [[nodiscard]] const std::uint32_t* neighbors() const {
    return reinterpret_cast<const std::uint32_t*>(arena_.data() + n_ + 1);
  }

  [[nodiscard]] std::span<const std::uint32_t> neighbors_of(count_t v) const;

  /// Bytes held by the arena (memory-model accounting for the docs/bench).
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.size() * sizeof(std::uint64_t); }

 private:
  /// Zeroed arena for n + 1 offsets and `arcs` packed ids.
  static AgentGraph with_arena(count_t n, std::uint64_t arcs);
  std::uint32_t* mutable_neighbors() {
    return reinterpret_cast<std::uint32_t*>(arena_.data() + n_ + 1);
  }

  count_t n_ = 0;
  bool complete_ = false;
  std::uint64_t arcs_ = 0;
  count_t min_degree_ = 0;
  count_t max_degree_ = 0;
  ImplicitTopology implicit_{};
  std::vector<std::uint64_t> arena_;
};

/// Reserved StreamFactory index for the layout shuffle (kept distinct from
/// every (round, chunk) stepping stream).
inline constexpr std::uint64_t kLayoutStream = ~0ULL;

/// (Re)initializes the workspace's node states from a configuration, at the
/// width byte_states(start.k()) picks: state j laid out at(j) times in
/// node-id order, then shuffled with streams.stream(kLayoutStream) when
/// `shuffle_layout` (node position matters on sparse graphs, unlike the
/// clique). Allocation-free once ws has seen this (n, k).
void load_nodes(const Configuration& start, bool shuffle_layout,
                const rng::StreamFactory& streams, GraphStepWorkspace& ws);

/// One synchronous round over `graph`: every node draws sample_arity()
/// states from its neighborhood (uniform with repetition) and applies the
/// dynamics' rule. Reads and advances the workspace's node states (double-
/// buffered) and publishes the new counts into `config`. Zero heap
/// allocations once ws is warm.
///
/// `mode` selects the stepping pipeline (see EngineMode in
/// graph_workspace.hpp). Strict (default): randomness from
/// streams.stream(round * kGraphChunks + chunk), bitwise-pinned to the
/// frozen reference — identical results for any thread count. Batched:
/// counter-based Philox keyed by streams.master_seed() with per-(round,
/// node, draw) addressing — identical results for any thread count, chunk
/// grid, or batch size; equivalent to Strict in distribution, not bitwise.
/// Dynamics without a batched kernel (rule tables) silently run Strict.
void step_graph(const Dynamics& dynamics, const AgentGraph& graph,
                Configuration& config, const rng::StreamFactory& streams,
                round_t round, GraphStepWorkspace& ws,
                EngineMode mode = EngineMode::Strict);

/// Convenience wrapper owning graph + workspace + round counter — the
/// original GraphSimulation API, now backed by the CSR engine.
class GraphSimulation {
 public:
  /// `start` assigns states by laying out start.at(j) nodes of state j in
  /// node-id order; pass `shuffle_layout = true` to randomize the
  /// assignment. Steps over a caller-owned graph, which must outlive the
  /// simulation. `mode` picks the stepping pipeline (see step_graph).
  GraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  /// Owning variant: a temporary graph (GraphSimulation(dyn, cycle(60),
  /// ...)) is moved in, never borrowed.
  GraphSimulation(const Dynamics& dynamics, AgentGraph&& graph,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  // Non-copyable/movable: graph_ may point at owned_graph_, and a copied
  // or moved-from instance would leave it aimed at the source object.
  // (Factory-return call sites still work via guaranteed copy elision.)
  GraphSimulation(const GraphSimulation&) = delete;
  GraphSimulation& operator=(const GraphSimulation&) = delete;

  /// One synchronous round of neighbor sampling + rule application.
  void step();

  [[nodiscard]] const Configuration& configuration() const { return config_; }
  [[nodiscard]] round_t round() const { return round_; }
  /// Current node states (a view into the workspace, valid until the next
  /// step).
  [[nodiscard]] NodeStates states() const { return ws_.states(config_.k()); }
  [[nodiscard]] const AgentGraph& graph() const { return *graph_; }

  /// Runs the shared round loop (run_rounds, core/runner.hpp) until color
  /// consensus, non-color absorption or `max_rounds`; returns rounds used
  /// (0 for a start already at consensus), or max_rounds at the limit.
  round_t run_to_consensus(round_t max_rounds);

  static constexpr unsigned kChunks = kGraphChunks;

 private:
  void init(const Configuration& start, bool shuffle_layout);

  const Dynamics& dynamics_;
  AgentGraph owned_graph_;        // empty when borrowing
  const AgentGraph* graph_;
  Configuration config_;
  GraphStepWorkspace ws_;
  rng::StreamFactory streams_;
  round_t round_ = 0;
  EngineMode mode_ = EngineMode::Strict;
};

}  // namespace plurality::graph
