#include "graph/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace plurality::graph {
namespace {

TEST(Topology, ImplicitCompleteBasics) {
  const Topology t = Topology::complete(100);
  EXPECT_EQ(t.kind(), Topology::Kind::CompleteImplicit);
  EXPECT_EQ(t.num_nodes(), 100u);
  EXPECT_EQ(t.degree(5), 100u);  // self included per the clique model
  EXPECT_EQ(t.min_degree(), 100u);
  EXPECT_TRUE(t.connected());
  EXPECT_THROW(t.neighbors(0), CheckError);
}

TEST(Topology, FromEdgesBuildsSymmetricAdjacency) {
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 1}, {1, 2}};
  const Topology t = Topology::from_edges(3, edges);
  EXPECT_EQ(t.num_arcs(), 4u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(2), 1u);
  const auto n1 = t.neighbors(1);
  std::vector<count_t> sorted(n1.begin(), n1.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<count_t>{0, 2}));
}

TEST(Topology, SelfLoopStoredOnce) {
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 0}, {0, 1}};
  const Topology t = Topology::from_edges(2, edges);
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 1u);
}

TEST(Topology, ParallelEdgesKeepMultiplicity) {
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 1}, {0, 1}};
  const Topology t = Topology::from_edges(2, edges);
  EXPECT_EQ(t.degree(0), 2u);  // sampling weight doubled, by design
}

TEST(Topology, MinMaxDegree) {
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 1}, {1, 2}, {1, 3}};
  const Topology t = Topology::from_edges(4, edges);
  EXPECT_EQ(t.min_degree(), 1u);
  EXPECT_EQ(t.max_degree(), 3u);
}

TEST(Topology, ConnectivityDetection) {
  const std::vector<std::pair<count_t, count_t>> path = {{0, 1}, {1, 2}};
  EXPECT_TRUE(Topology::from_edges(3, path).connected());
  const std::vector<std::pair<count_t, count_t>> split = {{0, 1}, {2, 3}};
  EXPECT_FALSE(Topology::from_edges(4, split).connected());
  // Isolated vertex 3.
  const std::vector<std::pair<count_t, count_t>> iso = {{0, 1}, {1, 2}};
  EXPECT_FALSE(Topology::from_edges(4, iso).connected());
}

TEST(Topology, EndpointOutOfRangeThrows) {
  const std::vector<std::pair<count_t, count_t>> edges = {{0, 5}};
  EXPECT_THROW(Topology::from_edges(3, edges), CheckError);
}

TEST(Topology, NodeOutOfRangeThrows) {
  const Topology t = Topology::complete(3);
  EXPECT_THROW(t.degree(3), CheckError);
}

TEST(Topology, FromCsrAdoptsRowsAsGiven) {
  // Path 0-1-2 with row 1 stored as {2, 0}: rows keep their given order.
  const Topology t = Topology::from_csr(3, {0, 1, 3, 4}, {1, 2, 0, 1});
  EXPECT_EQ(t.kind(), Topology::Kind::Explicit);
  EXPECT_EQ(t.num_arcs(), 4u);
  const auto n1 = t.neighbors(1);
  EXPECT_EQ(std::vector<count_t>(n1.begin(), n1.end()), (std::vector<count_t>{2, 0}));
  EXPECT_TRUE(t.connected());
}

TEST(Topology, FromCsrRejectsMalformedArrays) {
  EXPECT_THROW(Topology::from_csr(3, {0, 1, 2}, {1, 0}), CheckError);  // n entries
  EXPECT_THROW(Topology::from_csr(2, {0, 1, 3}, {1, 0}), CheckError);  // past the end
  EXPECT_THROW(Topology::from_csr(2, {0, 2, 1}, {1, 0}), CheckError);  // decreasing
  EXPECT_THROW(Topology::from_csr(2, {0, 1, 2}, {1, 2}), CheckError);  // id >= n
}

}  // namespace
}  // namespace plurality::graph
