// High-throughput agent simulation on arbitrary topologies.
//
// Three pieces, mirroring the count-based engine's discipline (PR 1):
//
//  * AgentGraph — an immutable CSR-packed graph: one contiguous arena
//    holding the n+1 offsets followed by the 32-bit neighbor ids, so a
//    round's neighbor walks are sequential loads from a single allocation.
//    The clique is represented implicitly (no adjacency memory; sampling
//    uniform over [n] including self, matching the paper's model exactly).
//
//  * GraphStepWorkspace (graph_workspace.hpp) — all per-round scratch:
//    double-buffered node-state arrays, per-chunk partial counts. Warm
//    rounds perform zero heap allocations.
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
// on Topology::complete it reproduces the clique model exactly and is
// property-tested against the count-based stepper.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/graph_workspace.hpp"
#include "graph/implicit_topology.hpp"
#include "graph/topology.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

/// Immutable CSR graph in a single contiguous arena.
///
/// Layout: arena_[0 .. n] are the 64-bit adjacency offsets; the 32-bit
/// neighbor ids are packed into the remaining words (two per u64). Node
/// count is capped at 2^32 - 1 so ids fit the packed width; offsets stay
/// 64-bit, so arc counts are unbounded. For Kind-complete graphs the arena
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
  /// arena's 32-bit packing. A Gossip descriptor yields the implicit
  /// complete graph (is_complete() true) — uniform pull over the whole
  /// population is exactly the clique sampling model.
  static AgentGraph implicit(const ImplicitTopology& topo);

  /// Packs an explicit (or implicit-complete) Topology.
  static AgentGraph from_topology(const Topology& topology);

  /// Builds from an undirected edge list (both directions stored), via
  /// Topology::from_edges' CSR construction.
  static AgentGraph from_edges(count_t n,
                               std::span<const std::pair<count_t, count_t>> edges);

  [[nodiscard]] bool is_complete() const { return complete_; }
  [[nodiscard]] count_t num_nodes() const { return n_; }

  /// True when neighbors are computed (ring/torus/lattice descriptors),
  /// false for arena-backed and complete/gossip graphs (which have their
  /// own dedicated sampling path).
  [[nodiscard]] bool is_implicit() const {
    return implicit_.family != ImplicitTopology::Family::None && !complete_;
  }
  /// The descriptor (family None on arena-backed graphs; family Gossip on
  /// gossip-built complete graphs).
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

/// (Re)initializes ws.nodes from a configuration: state j laid out at(j)
/// times in node-id order, then shuffled with streams.stream(kLayoutStream)
/// when `shuffle_layout` (node position matters on sparse graphs, unlike
/// the clique). Allocation-free once ws has seen this n.
void load_nodes(const Configuration& start, bool shuffle_layout,
                const rng::StreamFactory& streams, GraphStepWorkspace& ws);

/// One synchronous round over `graph`: every node draws sample_arity()
/// states from its neighborhood (uniform with repetition) and applies the
/// dynamics' rule. Reads and advances ws.nodes (double-buffered through
/// ws.scratch) and publishes the new counts into `config`. Zero heap
/// allocations once ws is warm.
///
/// `mode` selects the stepping pipeline (see EngineMode in
/// graph_workspace.hpp). Strict (default): randomness from
/// streams.stream(round * kGraphChunks + chunk), bitwise-pinned to the
/// frozen reference — identical results for any thread count. Batched:
/// counter-based Philox keyed by streams.master_seed() with per-(round,
/// node, draw) addressing — identical results for any thread count, chunk
/// grid, or batch size; equivalent to Strict in distribution, not bitwise.
/// Push: the scatter formulation of the batched pipeline for arity-1
/// dynamics (voter, undecided-state) — bitwise identical to Batched.
/// Dynamics without a batched kernel (rule tables) silently run Strict;
/// Push without a push kernel silently runs Batched (then Strict).
/// `tuning` carries the cache-behavior knobs (tile size, prefetch
/// distance); it never changes results, only speed.
void step_graph(const Dynamics& dynamics, const AgentGraph& graph,
                Configuration& config, const rng::StreamFactory& streams,
                round_t round, GraphStepWorkspace& ws,
                EngineMode mode = EngineMode::Strict,
                const StepTuning& tuning = {});

/// Convenience wrapper owning graph + workspace + round counter — the
/// original GraphSimulation API, now backed by the CSR engine.
class GraphSimulation {
 public:
  /// `start` assigns states by laying out start.at(j) nodes of state j in
  /// node-id order; pass `shuffle_layout = true` to randomize the
  /// assignment. Packs `topology` into an owned AgentGraph. `mode` picks
  /// the stepping pipeline (see step_graph).
  GraphSimulation(const Dynamics& dynamics, const Topology& topology,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  /// Borrowing variant: steps over a caller-owned CSR graph (no packing
  /// cost; the graph must outlive the simulation).
  GraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  // Non-copyable/movable: graph_ may point at owned_graph_, and a copied
  // or moved-from instance would leave it aimed at the source object.
  // (Factory-return call sites still work via guaranteed copy elision.)
  GraphSimulation(const GraphSimulation&) = delete;
  GraphSimulation& operator=(const GraphSimulation&) = delete;

  /// One synchronous round of neighbor sampling + rule application.
  void step();

  /// Installs cache-behavior tuning (tile size, prefetch distance) for all
  /// subsequent steps. Performance-only: results are unaffected.
  void set_tuning(const StepTuning& tuning) { tuning_ = tuning; }

  [[nodiscard]] const Configuration& configuration() const { return config_; }
  [[nodiscard]] round_t round() const { return round_; }
  [[nodiscard]] const std::vector<state_t>& states() const { return ws_.nodes; }
  [[nodiscard]] const AgentGraph& graph() const { return *graph_; }

  /// Runs until color consensus or `max_rounds`; returns rounds used, or
  /// max_rounds if no consensus was reached.
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
  StepTuning tuning_{};
};

}  // namespace plurality::graph
