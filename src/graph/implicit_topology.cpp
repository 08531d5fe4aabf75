#include "graph/implicit_topology.hpp"

#include "support/check.hpp"

namespace plurality::graph {

ImplicitTopology ImplicitTopology::ring(std::uint64_t n) {
  PLURALITY_REQUIRE(n >= 3, "ImplicitTopology::ring: need n >= 3");
  ImplicitTopology t;
  t.family = Family::Ring;
  t.n = n;
  t.degree = 2;
  return t;
}

ImplicitTopology ImplicitTopology::torus(std::uint64_t rows, std::uint64_t cols) {
  PLURALITY_REQUIRE(rows >= 3 && cols >= 3, "ImplicitTopology::torus: need sides >= 3");
  ImplicitTopology t;
  t.family = Family::Torus;
  t.n = rows * cols;
  t.rows = rows;
  t.cols = cols;
  t.degree = 4;
  return t;
}

ImplicitTopology ImplicitTopology::lattice(std::uint64_t n, std::uint64_t d) {
  PLURALITY_REQUIRE(d >= 2 && d % 2 == 0,
                    "ImplicitTopology::lattice: degree must be even and >= 2, got " << d);
  PLURALITY_REQUIRE(n >= d + 2, "ImplicitTopology::lattice: degree " << d
                                    << " needs n >= " << d + 2 << ", got " << n);
  ImplicitTopology t;
  t.family = Family::Lattice;
  t.n = n;
  t.half = d / 2;
  t.degree = d;
  return t;
}

}  // namespace plurality::graph
