// Test-only graph helpers shared by the graph suites.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/agent_graph.hpp"

namespace plurality::graph {

/// True if every node is reachable from node 0 (the complete graph always
/// is; an isolated vertex never is). Depth-first over neighbors_of.
inline bool connected(const AgentGraph& g) {
  if (g.is_complete()) return true;
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  std::vector<count_t> stack = {0};
  seen[0] = 1;
  count_t visited = 1;
  while (!stack.empty()) {
    const count_t v = stack.back();
    stack.pop_back();
    for (const count_t u : g.neighbors_of(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == g.num_nodes();
}

}  // namespace plurality::graph
