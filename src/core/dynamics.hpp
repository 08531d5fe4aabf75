// The dynamics abstraction (Definition 1 of the paper, generalized).
//
// A dynamics is a synchronous anonymous update rule: each round, every node
// draws `sample_arity()` nodes independently and uniformly at random (with
// repetition, including itself — the paper's sampling model on the clique)
// and recolors itself as a function of the sampled states (and, for
// protocols like undecided-state or Doerr et al.'s median, its own state).
//
// Every dynamics exposes the same two faces:
//
//  1. `apply_rule` — the node-level rule, used by the graph engine (on the
//     clique samples come from the whole population, on sparse topologies
//     from a node's neighborhood).
//  2. the *adoption law* — the exact distribution of one node's next state
//     given the current configuration. On the clique, node updates are
//     i.i.d. given the configuration (or i.i.d. within each own-state
//     class), so the next configuration is exactly a multinomial (or a sum
//     of per-class multinomials) over this law. The count-based backend and
//     the exact Markov solver are built on it, and the mean-field engine
//     iterates it deterministically — which is why the law operates on
//     real-valued counts.
#pragma once

#include <span>
#include <string>

#include "rng/xoshiro.hpp"
#include "support/types.hpp"

namespace plurality {

class Dynamics {
 public:
  virtual ~Dynamics() = default;

  /// Human-readable protocol name for tables and logs.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Nodes sampled per node per round (h in the paper's h-dynamics).
  [[nodiscard]] virtual unsigned sample_arity() const = 0;

  /// Markov states used for a k-color instance (k, or k+aux for protocols
  /// with extra memory).
  [[nodiscard]] virtual state_t num_states(state_t num_colors) const { return num_colors; }

  /// Inverse of num_states: how many leading states are colors.
  [[nodiscard]] virtual state_t num_colors(state_t states) const { return states; }

  /// True if the per-node law depends on the node's own current state
  /// (undecided-state, median-with-own-value). When false the law is one
  /// shared distribution and a single multinomial advances the round.
  [[nodiscard]] virtual bool law_depends_on_own_state() const { return false; }

  /// True if the adoption law can be evaluated exactly at this state count.
  /// (The h-plurality law costs C(h+k-1, h) terms; beyond a budget we fall
  /// back to the graph engine's per-node clique.) Laws are exact whenever
  /// offered.
  [[nodiscard]] virtual bool has_exact_law(state_t states) const {
    (void)states;
    return true;
  }

  /// Shared adoption law: out[j] = P(node's next state = j | counts).
  /// `counts` are real-valued state counts (sum = n > 0); out.size() ==
  /// counts.size(). Only called when !law_depends_on_own_state().
  virtual void adoption_law(std::span<const double> counts, std::span<double> out) const;

  /// Per-own-state adoption law. Default forwards to adoption_law (i.i.d.
  /// dynamics ignore the node's own state).
  virtual void adoption_law_given(state_t own, std::span<const double> counts,
                                  std::span<double> out) const;

  /// True if adoption_law_given_sparse() is implemented. Stateful dynamics
  /// whose per-class law has small support (e.g. undecided-state: a colored
  /// node can only keep its color or go undecided) should implement it —
  /// the count-based stepper then pays O(support) per occupied class
  /// instead of materializing the dense k-entry law.
  [[nodiscard]] virtual bool has_sparse_law() const { return false; }

  /// Sparse per-own-state adoption law: writes the law's support into
  /// (states_out[i], probs_out[i]) for i < nnz and returns nnz. Contract:
  ///   * states ascending, probabilities >= 0 (zero entries may be
  ///     included; the sampling kernel skips them),
  ///   * probabilities bitwise-equal to the dense adoption_law_given
  ///     entries at those states, all omitted states having probability 0,
  ///   * `total` is the real-valued population size; callers pass the
  ///     exact count, which matches the dense law's internally summed
  ///     total bitwise for populations below 2^53,
  ///   * both spans have room for at least k entries.
  /// Only called when has_sparse_law(); the default implementation aborts.
  [[nodiscard]] virtual state_t adoption_law_given_sparse(
      state_t own, std::span<const double> counts, double total,
      std::span<state_t> states_out, std::span<double> probs_out) const;

  /// Node-level rule: next state of a node currently in `own` that sampled
  /// `sampled` (size == sample_arity()). `states` is the size of the state
  /// space, so rules with auxiliary states can locate them (the undecided
  /// marker is always the last state). `gen` is for tie-breaking only.
  [[nodiscard]] virtual state_t apply_rule(state_t own, std::span<const state_t> sampled,
                                           state_t states, rng::Xoshiro256pp& gen) const = 0;
};

}  // namespace plurality
