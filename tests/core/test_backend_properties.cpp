// Property sweeps (TEST_P) over (dynamics x workload): conservation,
// absorption, and law sanity across a parameter grid.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include <memory>
#include <tuple>

#include "core/backend.hpp"
#include "core/configuration.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"

namespace plurality {
namespace {

std::shared_ptr<const Dynamics> make_dynamics(const std::string& name) {
  if (name == "majority") return std::make_shared<ThreeMajority>();
  if (name == "voter") return std::make_shared<Voter>();
  if (name == "two-choices") return std::make_shared<TwoChoices>();
  if (name == "median") return std::make_shared<MedianDynamics>();
  if (name == "median-own") return std::make_shared<MedianOwnTwo>();
  if (name == "undecided") return std::make_shared<UndecidedState>();
  if (name == "5-plurality") return std::make_shared<HPlurality>(5);
  throw std::logic_error("unknown dynamics " + name);
}

using Param = std::tuple<std::string, count_t, state_t>;

class DynamicsProperties : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto& [name, n, k] = GetParam();
    dynamics_ = make_dynamics(name);
    n_ = n;
    k_ = k;
    Configuration colors = workloads::additive_bias(n, k, n / 10);
    start_ = dynamics_->num_states(k) > k
                 ? UndecidedState::extend_with_undecided(colors)
                 : colors;
  }

  std::shared_ptr<const Dynamics> dynamics_;
  count_t n_ = 0;
  state_t k_ = 0;
  Configuration start_;
};

TEST_P(DynamicsProperties, PopulationConservedOverManyRounds) {
  rng::Xoshiro256pp gen(1);
  Configuration c = start_;
  for (int round = 0; round < 30; ++round) {
    step_count_based(*dynamics_, c, gen);
    ASSERT_EQ(c.n(), n_);
  }
}

TEST_P(DynamicsProperties, LawIsAProbabilityVectorAlongTrajectory) {
  rng::Xoshiro256pp gen(2);
  Configuration c = start_;
  std::vector<double> law(c.k());
  for (int round = 0; round < 20; ++round) {
    // Validate the law at every visited configuration, for every own-state
    // class that is populated.
    if (dynamics_->law_depends_on_own_state()) {
      for (state_t s = 0; s < c.k(); ++s) {
        if (c.at(s) == 0) continue;
        dynamics_->adoption_law_given(s, c.counts_real(), law);
        double total = 0.0;
        for (double p : law) {
          ASSERT_GE(p, -1e-12);
          total += p;
        }
        ASSERT_NEAR(total, 1.0, 1e-9);
      }
    } else {
      dynamics_->adoption_law(c.counts_real(), law);
      double total = 0.0;
      for (double p : law) {
        ASSERT_GE(p, -1e-12);
        total += p;
      }
      ASSERT_NEAR(total, 1.0, 1e-9);
    }
    step_count_based(*dynamics_, c, gen);
  }
}

TEST_P(DynamicsProperties, ColorConsensusIsAbsorbing) {
  // Force an all-color-0 configuration in the dynamics' state space.
  Configuration mono = Configuration::zeros(start_.k());
  mono.set(0, n_);
  rng::Xoshiro256pp gen(3);
  step_count_based(*dynamics_, mono, gen);
  EXPECT_EQ(mono.at(0), n_);
}

TEST_P(DynamicsProperties, GraphCliqueConservesToo) {
  graph::GraphSimulation sim(*dynamics_, graph::Topology::complete(n_), start_, 4,
                             /*shuffle_layout=*/false);
  for (int round = 0; round < 10; ++round) {
    sim.step();
    ASSERT_EQ(sim.configuration().n(), n_);
  }
}

std::string param_label(const ::testing::TestParamInfo<Param>& info) {
  std::string label = std::get<0>(info.param) + "_n" +
                      std::to_string(std::get<1>(info.param)) + "_k" +
                      std::to_string(std::get<2>(info.param));
  for (char& ch : label) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return label;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DynamicsProperties,
    ::testing::Combine(
        ::testing::Values("majority", "voter", "two-choices", "median",
                          "median-own", "undecided", "5-plurality"),
        ::testing::Values<count_t>(100, 1000, 10000),
        ::testing::Values<state_t>(2, 3, 8)),
    param_label);

}  // namespace
}  // namespace plurality
