#include "core/runner.hpp"

#include "support/check.hpp"

namespace plurality {

TrajectoryPoint trajectory_point(const Configuration& config, state_t num_colors,
                                 round_t round) {
  const state_t plurality = config.plurality(num_colors);
  return TrajectoryPoint{
      .round = round,
      .plurality_color = plurality,
      .plurality_count = config.at(plurality),
      .runner_up_count = num_colors >= 2 ? config.runner_up_count(num_colors) : 0,
      .bias = config.bias(num_colors),
      .minority_mass = config.minority_mass(num_colors),
  };
}

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, std::uint64_t trial,
                       rng::Xoshiro256pp& gen, StepWorkspace& ws) {
  const state_t states = start.k();
  const state_t num_colors = dynamics.num_colors(states);
  PLURALITY_REQUIRE(num_colors >= 1 && num_colors <= states,
                    "run_dynamics: start configuration has " << states
                        << " states but dynamics expects "
                        << dynamics.num_states(num_colors));
  PLURALITY_REQUIRE(start.n() > 0, "run_dynamics: empty configuration");

  const auto run = [&](auto& stepping) {
    return run_rounds(start, num_colors, options, trial,
                      [&](Configuration& config, round_t round) {
                        step_count_based(dynamics, config, stepping, ws);
                        if (options.adversary != nullptr) {
                          options.adversary->corrupt(config, num_colors, round, gen);
                        }
                      });
  };
  if (options.engine == EngineMode::Batched) {
    // One draw keys the counter-based stepping stream; `gen` stays the
    // source for everything else (adversary moves, factory randomness), so
    // switching engines never perturbs those streams.
    rng::PhiloxStream philox(gen());
    return run(philox);
  }
  return run(gen);
}

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen,
                       StepWorkspace& ws) {
  return run_dynamics(dynamics, start, options, 0, gen, ws);
}

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen) {
  StepWorkspace ws;
  return run_dynamics(dynamics, start, options, gen, ws);
}

std::function<bool(const Configuration&, round_t)> stop_when_any_color_reaches(
    count_t threshold, state_t num_colors) {
  return [threshold, num_colors](const Configuration& config, round_t) {
    return config.plurality_count(num_colors) >= threshold;
  };
}

std::function<bool(const Configuration&, round_t)> stop_at_m_plurality(count_t m,
                                                                       state_t color) {
  return [m, color](const Configuration& config, round_t) {
    return config.n() - config.at(color) <= m;
  };
}

}  // namespace plurality
