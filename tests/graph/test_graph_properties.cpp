// Property sweep over (dynamics x topology): conservation, absorption, and
// determinism must hold for every combination the extension supports.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>

#include "core/registry.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"

namespace plurality::graph {
namespace {

using Param = std::tuple<std::string, std::string>;

AgentGraph make_graph(const std::string& name, count_t n, rng::Xoshiro256pp& gen) {
  if (name == "complete") return AgentGraph::complete(n);
  if (name == "cycle") return cycle(n);
  if (name == "torus") {
    const count_t side = 12;
    return torus(side, side);
  }
  if (name == "regular") return random_regular(n, 6, gen);
  if (name == "gnm") return erdos_renyi(n, 4 * n, gen, /*patch_isolated=*/true);
  throw std::logic_error("unknown topology " + name);
}

class GraphDynamicsProperties : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const count_t n = 144;  // 12x12 torus compatible
    rng::Xoshiro256pp gen(1);
    topology_ = std::make_unique<AgentGraph>(
        make_graph(std::get<1>(GetParam()), n, gen));
    dynamics_ = make_dynamics(std::get<0>(GetParam()));
    const Configuration colors = workloads::additive_bias(n, 3, 30);
    start_ = dynamics_->num_states(3) > 3
                 ? UndecidedState::extend_with_undecided(colors)
                 : colors;
  }

  std::unique_ptr<AgentGraph> topology_;
  std::unique_ptr<Dynamics> dynamics_;
  Configuration start_;
};

TEST_P(GraphDynamicsProperties, PopulationConserved) {
  GraphSimulation sim(*dynamics_, *topology_, start_, 2);
  for (int round = 0; round < 25; ++round) {
    sim.step();
    ASSERT_EQ(sim.configuration().n(), start_.n());
  }
}

TEST_P(GraphDynamicsProperties, MonochromaticAbsorbing) {
  Configuration mono = Configuration::zeros(start_.k());
  mono.set(0, start_.n());
  GraphSimulation sim(*dynamics_, *topology_, mono, 3);
  sim.step();
  EXPECT_EQ(sim.configuration().at(0), start_.n());
}

TEST_P(GraphDynamicsProperties, DeterministicForSeed) {
  GraphSimulation a(*dynamics_, *topology_, start_, 4);
  GraphSimulation b(*dynamics_, *topology_, start_, 4);
  for (int round = 0; round < 10; ++round) {
    a.step();
    b.step();
    ASSERT_EQ(a.configuration(), b.configuration());
  }
}

std::string graph_param_label(const ::testing::TestParamInfo<Param>& info) {
  std::string label = std::get<0>(info.param) + "_on_" + std::get<1>(info.param);
  for (char& ch : label) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GraphDynamicsProperties,
    ::testing::Combine(::testing::Values("3-majority", "voter", "3-median",
                                         "undecided", "5-plurality"),
                       ::testing::Values("complete", "cycle", "torus", "regular",
                                         "gnm")),
    graph_param_label);

}  // namespace
}  // namespace plurality::graph
