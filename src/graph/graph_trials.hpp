// Multi-trial experiment driver for graph scenarios — the sparse-topology
// counterpart of core's run_trials, producing the same TrialSummary so the
// experiment binaries can sweep (topology x dynamics x k x adversary) grids
// with one reporting path.
//
// Each trial gets its own hash-derived stream family (layout, stepping, and
// factory/adversary randomness all derive from the trial index), so results
// are bitwise identical no matter how many OpenMP threads execute the
// trials. One GraphStepWorkspace per executing thread is reused across all
// of that thread's trials — warm trials allocate nothing per round.
#pragma once

#include "core/adversary.hpp"
#include "core/trials.hpp"
#include "graph/agent_graph.hpp"
#include "graph/graph_workspace.hpp"

namespace plurality::graph {

/// Runs `options.trials` independent runs of `dynamics` on `graph` from
/// factory-generated starts (the factory contract matches core's
/// ConfigFactory: thread-safe / pure, configurations sized to the graph).
/// options.stop_predicate is checked after each round's consensus and
/// absorption checks, as in run_dynamics. options.observer (when set) sees
/// every materialized round, adversary move included, without perturbing
/// any stream (tests/core/test_observer.cpp).
TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const ConfigFactory& factory,
                              const CommonTrialOptions& options);

/// Auto-enable threshold of the bytes-only memory mode (below, the u32
/// arrays cost little and keep GraphSimulation-style state access around).
inline constexpr count_t kBytesOnlyAutoThreshold = count_t{1} << 26;

/// Memory-mode policy of run_graph_trials: true when trials at (n, k)
/// should run bytes-only (state = the ~2n-byte double-buffered byte array,
/// no u32 node arrays — bitwise-identical results, see
/// GraphStepWorkspace::bytes_only). Requires k <= 256 and no adversary;
/// auto-enables at n >= kBytesOnlyAutoThreshold, subject to
/// set_graph_bytes_only_override.
bool graph_bytes_only_auto(count_t n, state_t k, bool has_adversary);

/// Test/bench hook: -1 = auto threshold (default), 0 = never, 1 = always
/// when eligible (k <= 256, no adversary).
void set_graph_bytes_only_override(int mode);

/// Convenience overload: every trial starts from the same configuration.
TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const Configuration& start,
                              const CommonTrialOptions& options);

/// Node-level adaptor for the F-bounded adversaries (Section 3.1): lets the
/// count-level strategies act on an explicit node array. The strategy
/// decides HOW MANY nodes move between WHICH colors (by mutating `config`);
/// this adaptor then picks the affected node positions uniformly at random
/// among each demoted color (single-pass reservoir over ws.nodes, driven by
/// `gen`) and recolors them in place, keeping config and ws.nodes
/// consistent. Position choice is randomized rather than adversarial:
/// the paper's adversary is defined by its count-level move, and uniform
/// placement keeps the wiring strategy-agnostic.
void corrupt_nodes(const Adversary& adversary, Configuration& config,
                   state_t num_colors, round_t round, rng::Xoshiro256pp& gen,
                   GraphStepWorkspace& ws);

}  // namespace plurality::graph
