// AgentGraph construction from an edge list (the path cycle, torus,
// lattice, Erdős–Rényi and edges: files all take) and the implicit
// complete graph's basics.
#include "graph/agent_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph_test_utils.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

using Edges = std::vector<std::pair<count_t, count_t>>;

std::vector<count_t> row(const AgentGraph& g, count_t v) {
  const auto ids = g.neighbors_of(v);
  return {ids.begin(), ids.end()};
}

TEST(FromEdges, CompleteBasics) {
  const AgentGraph t = AgentGraph::complete(100);
  EXPECT_TRUE(t.is_complete());
  EXPECT_EQ(t.num_nodes(), 100u);
  EXPECT_EQ(t.degree(5), 100u);  // self included per the clique model
  EXPECT_EQ(t.min_degree(), 100u);
  EXPECT_TRUE(connected(t));
  EXPECT_THROW((void)t.neighbors_of(0), CheckError);
}

TEST(FromEdges, BuildsSymmetricAdjacency) {
  const AgentGraph t = AgentGraph::from_edges(3, Edges{{0, 1}, {1, 2}});
  EXPECT_EQ(t.num_arcs(), 4u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(2), 1u);
  std::vector<count_t> sorted = row(t, 1);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<count_t>{0, 2}));
}

TEST(FromEdges, RowsFollowEdgeListOrder) {
  // Row 1 meets edge (1, 2) before (0, 1): the implicit descriptors
  // reproduce exactly this order, so it is a contract.
  const AgentGraph t = AgentGraph::from_edges(3, Edges{{1, 2}, {0, 1}});
  EXPECT_EQ(row(t, 1), (std::vector<count_t>{2, 0}));
  EXPECT_EQ(row(t, 0), (std::vector<count_t>{1}));
}

TEST(FromEdges, SelfLoopStoredOnce) {
  const AgentGraph t = AgentGraph::from_edges(2, Edges{{0, 0}, {0, 1}});
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 1u);
  EXPECT_EQ(t.num_arcs(), 3u);
}

TEST(FromEdges, ParallelEdgesKeepMultiplicity) {
  const AgentGraph t = AgentGraph::from_edges(2, Edges{{0, 1}, {0, 1}});
  EXPECT_EQ(t.degree(0), 2u);  // sampling weight doubled, by design
}

TEST(FromEdges, MinMaxDegree) {
  const AgentGraph t = AgentGraph::from_edges(4, Edges{{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(t.min_degree(), 1u);
  EXPECT_EQ(t.max_degree(), 3u);
}

TEST(FromEdges, ConnectivityDetection) {
  EXPECT_TRUE(connected(AgentGraph::from_edges(3, Edges{{0, 1}, {1, 2}})));
  EXPECT_FALSE(connected(AgentGraph::from_edges(4, Edges{{0, 1}, {2, 3}})));
  // Isolated vertex 3.
  EXPECT_FALSE(connected(AgentGraph::from_edges(4, Edges{{0, 1}, {1, 2}})));
}

TEST(FromEdges, EndpointOutOfRangeThrows) {
  EXPECT_THROW(AgentGraph::from_edges(3, Edges{{0, 5}}), CheckError);
  EXPECT_THROW(AgentGraph::from_edges(3, Edges{{3, 0}}), CheckError);
}

TEST(FromEdges, NodeIdsBeyond32BitsThrow) {
  // Ids are packed u32; the cap is checked before the arena is allocated.
  EXPECT_THROW(AgentGraph::from_edges(count_t{1} << 32, Edges{}), CheckError);
}

TEST(FromEdges, NodeOutOfRangeThrows) {
  EXPECT_THROW((void)AgentGraph::complete(3).degree(3), CheckError);
  EXPECT_THROW((void)AgentGraph::from_edges(3, Edges{{0, 1}}).degree(3), CheckError);
}

}  // namespace
}  // namespace plurality::graph
