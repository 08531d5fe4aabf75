// Implicit topologies: neighborhoods as pure functions of the node id.
//
// The CSR arena (agent_graph.hpp) caps the graph engine twice over: node
// ids must fit 32 bits, and the arena itself is O(arcs) bytes of RAM. But
// the paper grid's structured topologies — ring, torus, circulant
// d-regular lattice — need no stored adjacency at all: neighbor j of node
// v is arithmetic on v. (Nor do the clique and the gossip/uniform-pull
// model of arXiv:1407.2565, which are both AgentGraph::complete.) An
// ImplicitTopology descriptor carries that arithmetic; the stepping kernels
// (kernels.hpp strict, kernels_batched.hpp batched) call neighbor(v, idx)
// instead of gathering from the arena, so total simulation state collapses
// to the node-state arrays — at n = 10^9 with byte-wide states that is
// ~2 GB instead of a ~16 GB arena plus 10 GB of workspace.
//
// THE NEIGHBOR ORDER IS A BITWISE CONTRACT: for every family (ring,
// torus, lattice), neighbor(v, idx) returns EXACTLY the id at
// AgentGraph::neighbors_of(v)[idx] of the arena-backed build — the order
// in which AgentGraph::from_edges encounters v's incident edges in the
// builder's emission sequence (builders.cpp). The strict and batched
// samplers draw the same index either way, so implicit and arena runs are
// bitwise-identical at any n where both exist
// (tests/graph/test_implicit_topology.cpp pins this per family and mode).
#pragma once

#include <cstdint>

#include "support/types.hpp"

namespace plurality::graph {

/// Where the scenario layer switches topology stores
/// (ScenarioSpec::resolved_topology_backend): ring, torus and lattice at
/// n >= this compile to the implicit path (no arena); below it the arena
/// build is cheap and keeps the fused SIMD regular-CSR kernels in play.
inline constexpr count_t kImplicitAutoThreshold = count_t{1} << 22;

struct ImplicitTopology {
  enum class Family : std::uint8_t {
    None = 0,  ///< arena-backed or complete graph (no implicit descriptor)
    Ring,      ///< cycle C_n
    Torus,     ///< rows x cols wrap-around grid (4-regular)
    Lattice,   ///< circulant: v ~ v +- j (mod n) for j = 1..degree/2
  };

  Family family = Family::None;
  std::uint64_t n = 0;
  std::uint64_t rows = 0;  ///< Torus only
  std::uint64_t cols = 0;  ///< Torus only
  std::uint64_t half = 0;  ///< Lattice only: degree / 2
  /// Per-node sampling bound: 2 / 4 / d.
  std::uint64_t degree = 0;

  [[nodiscard]] bool implicit() const { return family != Family::None; }

  /// Neighbor `idx` (0 <= idx < degree) of node v, in the arena twin's CSR
  /// order (see the header comment).
  [[nodiscard]] std::uint64_t neighbor(std::uint64_t v, std::uint64_t idx) const {
    switch (family) {
      case Family::Ring:
        // cycle(n) emits edge (v, v+1 mod n) in v order, so node 0 meets
        // edge (0,1) before (n-1,0) and every other node meets its
        // predecessor edge first.
        if (v == 0) return idx == 0 ? 1 : n - 1;
        return idx == 0 ? v - 1 : (v + 1 == n ? 0 : v + 1);
      case Family::Torus: {
        // torus(rows, cols) emits, per cell in row-major order, the right
        // edge then the down edge. A node's incident-edge order (hence its
        // CSR row order) therefore depends on which of its up/left
        // neighbors wrapped past it in the emission sequence.
        const std::uint64_t r = v / cols;
        const std::uint64_t c = v % cols;
        const std::uint64_t up = (r == 0 ? rows - 1 : r - 1) * cols + c;
        const std::uint64_t down = (r + 1 == rows ? 0 : r + 1) * cols + c;
        const std::uint64_t left = r * cols + (c == 0 ? cols - 1 : c - 1);
        const std::uint64_t right = r * cols + (c + 1 == cols ? 0 : c + 1);
        if (r > 0 && c > 0) {
          const std::uint64_t order[4] = {up, left, right, down};
          return order[idx];
        }
        if (r > 0) {  // c == 0: the left edge is emitted later in this row
          const std::uint64_t order[4] = {up, right, down, left};
          return order[idx];
        }
        if (c > 0) {  // r == 0: the up edge is emitted in the last row
          const std::uint64_t order[4] = {left, right, down, up};
          return order[idx];
        }
        const std::uint64_t order[4] = {right, down, left, up};
        return order[idx];
      }
      case Family::Lattice: {
        // circulant_lattice(n, d) emits edges (v, v+j mod n) with j as the
        // outer loop: ring j contributes the pair (v-j, v+j) to node v,
        // predecessor edge first unless it wrapped (v < j).
        const std::uint64_t j = idx / 2 + 1;
        if (v >= j) {
          if ((idx & 1) == 0) return v - j;
          const std::uint64_t s = v + j;
          return s >= n ? s - n : s;
        }
        return (idx & 1) == 0 ? v + j : v + n - j;
      }
      case Family::None:
        break;
    }
    return 0;  // unreachable for a well-formed descriptor
  }

  static ImplicitTopology ring(std::uint64_t n);
  static ImplicitTopology torus(std::uint64_t rows, std::uint64_t cols);
  /// Circulant lattice on n nodes, even degree d with 2 <= d <= n - 2.
  static ImplicitTopology lattice(std::uint64_t n, std::uint64_t d);
};

}  // namespace plurality::graph
