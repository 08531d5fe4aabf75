// The pre-refactor per-node graph stepper, kept FROZEN as the bitwise
// ground truth for the CSR engine (the graph-layer analogue of
// step_count_based_reference): same hash-derived (round, chunk) streams,
// same sampling order, per-round allocations and all. Do not optimize it —
// tests/graph/test_graph_determinism.cpp pins the fast engine against it
// round by round and on golden fixed-seed trajectories, and bench_graphs
// reports the engine's speedup over it as a measured number. It samples
// through the same packed AgentGraph as the engine (neighbors_of rows, or
// uniform over [n] on the complete graph); implicit descriptors have no
// rows and are rejected.
#pragma once

#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/agent_graph.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

class ReferenceGraphSimulation {
 public:
  /// Borrows `graph`, which must outlive the simulation.
  ReferenceGraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                           const Configuration& start, std::uint64_t seed,
                           bool shuffle_layout = true);
  ReferenceGraphSimulation(const Dynamics&, AgentGraph&&, const Configuration&,
                           std::uint64_t, bool = true) = delete;

  void step();

  [[nodiscard]] const Configuration& configuration() const { return config_; }
  [[nodiscard]] round_t round() const { return round_; }
  [[nodiscard]] const std::vector<state_t>& states() const { return nodes_; }

  round_t run_to_consensus(round_t max_rounds);

  static constexpr unsigned kChunks = 64;

 private:
  const Dynamics& dynamics_;
  const AgentGraph& graph_;
  Configuration config_;
  std::vector<state_t> nodes_;
  std::vector<state_t> scratch_;
  rng::StreamFactory streams_;
  round_t round_ = 0;
};

}  // namespace plurality::graph
