// Shared helpers for validating dynamics kernels:
//  * brute-force adoption laws by enumerating ordered samples (independent
//    of the kernels' closed forms);
//  * Monte Carlo agreement between apply_rule and the adoption law.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/chi_square.hpp"

namespace plurality::testing {

/// Brute-force i.i.d. law by enumerating all ordered samples of the given
/// arity (k^arity leaves): the probability a node adopts each state, using
/// only apply_rule. Deterministic rules only (gen is unused by them); for
/// randomized tie-breaks pass `rule_trials > 1` to average.
inline std::vector<double> brute_force_law(const Dynamics& dynamics,
                                           const Configuration& config,
                                           int rule_trials = 1) {
  const state_t k = config.k();
  const unsigned arity = dynamics.sample_arity();
  const double n = static_cast<double>(config.n());
  std::vector<double> law(k, 0.0);
  std::vector<state_t> sample(arity, 0);
  rng::Xoshiro256pp gen(12345);

  // Odometer over ordered samples.
  while (true) {
    double prob = 1.0;
    for (state_t s : sample) prob *= static_cast<double>(config.at(s)) / n;
    if (prob > 0.0) {
      for (int t = 0; t < rule_trials; ++t) {
        const state_t out = dynamics.apply_rule(0, sample, k, gen);
        law[out] += prob / rule_trials;
      }
    }
    // Increment odometer.
    unsigned pos = 0;
    while (pos < arity) {
      if (++sample[pos] < k) break;
      sample[pos] = 0;
      ++pos;
    }
    if (pos == arity) break;
  }
  return law;
}

/// Asserts two probability vectors agree to `tol` componentwise and that
/// both sum to 1.
inline void expect_laws_equal(const std::vector<double>& a, const std::vector<double>& b,
                              double tol = 1e-12) {
  ASSERT_EQ(a.size(), b.size());
  double sum_a = 0.0, sum_b = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_NEAR(a[j], b[j], tol) << "component " << j;
    sum_a += a[j];
    sum_b += b[j];
  }
  EXPECT_NEAR(sum_a, 1.0, 1e-9);
  EXPECT_NEAR(sum_b, 1.0, 1e-9);
}

/// Monte Carlo check that apply_rule's empirical adoption distribution (on
/// uniformly drawn samples from `config`) matches the claimed law.
inline void expect_rule_matches_law(const Dynamics& dynamics, const Configuration& config,
                                    state_t own_state, int samples, std::uint64_t seed) {
  const state_t k = config.k();
  const count_t n = config.n();
  std::vector<double> law(k);
  if (dynamics.law_depends_on_own_state()) {
    dynamics.adoption_law_given(own_state, config.counts_real(), law);
  } else {
    dynamics.adoption_law(config.counts_real(), law);
  }

  // Node-id sampling identical to the graph engine's implicit clique.
  std::vector<state_t> population;
  population.reserve(n);
  for (state_t j = 0; j < k; ++j) population.insert(population.end(), config.at(j), j);

  rng::Xoshiro256pp gen(seed);
  const unsigned arity = dynamics.sample_arity();
  std::vector<state_t> sample(arity);
  std::vector<std::uint64_t> observed(k, 0);
  for (int i = 0; i < samples; ++i) {
    for (unsigned s = 0; s < arity; ++s) {
      sample[s] = population[rng::uniform_below(gen, n)];
    }
    ++observed[dynamics.apply_rule(own_state, sample, k, gen)];
  }
  const auto result = stats::chi_square_gof(observed, law);
  EXPECT_GT(result.p_value, 1e-6)
      << dynamics.name() << ": rule/law mismatch, stat=" << result.statistic
      << " dof=" << result.dof;
}

}  // namespace plurality::testing
