// The h-plurality dynamics (Section 4.3): every node samples h nodes
// uniformly at random (with repetition, including itself) and adopts the
// plurality color of the sample, breaking ties uniformly at random among
// the tied colors.
//
// Theorem 4 proves a lower bound Omega(k / h^2) on its convergence time
// from near-balanced starts — i.e. bigger samples buy at most a factor h^2,
// so polylog sample sizes yield only polylog speedups (experiment E5).
//
// Exact adoption law: enumerate all sample multisets (compositions of h
// over k colors) — C(h+k-1, h) terms. That is cheap for small h*k and
// hopeless beyond (k=32, h=17 is ~10^13 terms), so the law is gated by an
// evaluation budget; past it, callers must step per node on the graph
// engine's implicit clique, which is exact at O(n*h) per round.
// exact_law_cost()/has_exact_law() expose the gate, and the choice is
// ablated in E5.
//
// For h = 3 the law coincides with 3-majority's Lemma 1 closed form (the
// tie rule is distributionally irrelevant) — a cross-validation test.
#pragma once

#include <cstdint>

#include "core/dynamics.hpp"

namespace plurality {

class HPlurality final : public Dynamics {
 public:
  /// `h` >= 1. Default law budget admits ~2e6 enumeration terms.
  explicit HPlurality(unsigned h, std::uint64_t law_term_budget = 2'000'000);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned sample_arity() const override { return h_; }

  /// Number of enumeration terms C(h+k-1, h) the exact law costs at k
  /// states (saturates at uint64 max on overflow).
  [[nodiscard]] std::uint64_t exact_law_cost(state_t k) const;

  [[nodiscard]] bool has_exact_law(state_t states) const override;

  void adoption_law(std::span<const double> counts, std::span<double> out) const override;

  [[nodiscard]] state_t apply_rule(state_t own, std::span<const state_t> sampled,
                                   state_t states, rng::Xoshiro256pp& gen) const override;

 private:
  unsigned h_;
  std::uint64_t law_term_budget_;
};

}  // namespace plurality
