// Scenario — a compiled, runnable ScenarioSpec.
//
// compile() resolves every name through its registry (dynamics, workload,
// topology, adversary), builds the start configuration (auxiliary states
// appended where the protocol needs them), packs the CSR graph for sparse
// topologies, and fills core's CommonTrialOptions. run() then dispatches
// to the SAME trial drivers every pre-scenario binary used — run_trials on
// the count path, graph::run_graph_trials on the graph path — with
// identical option values, so a spec reproduces the legacy calls' streams
// and TrialSummary bitwise (tests/scenario/test_scenario_equivalence.cpp
// pins this for the backend × engine × adversary grid).
#pragma once

#include <memory>
#include <optional>

#include "core/adversary.hpp"
#include "core/dynamics.hpp"
#include "core/thread_plan.hpp"
#include "core/trials.hpp"
#include "graph/agent_graph.hpp"
#include "scenario/spec.hpp"

namespace plurality::scenario {

/// StreamFactory child tag reserved for topology construction, so random
/// graphs (regular:<d>, er:<p>) are reproducible per seed without
/// perturbing the trial streams (which derive from the seed directly).
inline constexpr std::uint64_t kTopologyStreamTag = 0x746f706f;  // "topo"

class Scenario {
 public:
  /// Validates `spec` and builds every runtime object. Throws CheckError
  /// with the validation layer's actionable messages.
  static Scenario compile(const ScenarioSpec& spec);

  /// The input spec with "auto" fields resolved (what ran, echoed into
  /// results so a result file is self-describing).
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  [[nodiscard]] const Dynamics& dynamics() const { return *dynamics_; }
  /// Start configuration in the dynamics' state space (auxiliary states
  /// appended; identical for every trial, matching the legacy binaries).
  [[nodiscard]] const Configuration& start() const { return start_; }
  /// nullptr when the spec says "none".
  [[nodiscard]] const Adversary* adversary() const { return adversary_.get(); }
  /// True when run() dispatches to graph::run_graph_trials.
  [[nodiscard]] bool uses_graph_driver() const { return use_graph_; }
  /// The packed topology; only valid when uses_graph_driver().
  [[nodiscard]] const graph::AgentGraph& graph() const;
  /// The unified option set run() passes to the trial driver (adversary
  /// pointer already wired).
  [[nodiscard]] const CommonTrialOptions& options() const { return options_; }
  /// The thread plan run() would use if called at this point
  /// (core/thread_plan.hpp). It moves scheduling only, never a result
  /// number.
  [[nodiscard]] ThreadPlan plan() const;

  /// Runs the scenario's trials and reduces them to the shared summary.
  /// `observer` (optional) is threaded into the trial driver's per-round
  /// probe pipeline (core/observer.hpp) — it never changes the summary
  /// (observer-on == observer-off, bitwise; the sweep orchestrator relies
  /// on this to enrich cells without unpinning them). `cancel` (optional)
  /// is the cooperative cancellation token every driver checks between
  /// rounds; a fired token makes run() throw CancelledError (never a
  /// partial summary) — like the observer, an unfired token changes
  /// nothing, bitwise.
  [[nodiscard]] TrialSummary run(RoundObserver* observer = nullptr,
                                 const CancellationToken* cancel = nullptr) const;

 private:
  Scenario() = default;

  ScenarioSpec spec_;
  std::unique_ptr<Dynamics> dynamics_;
  Configuration start_;
  std::unique_ptr<Adversary> adversary_;
  graph::AgentGraph graph_;
  bool use_graph_ = false;
  CommonTrialOptions options_;
};

/// One scenario execution: the resolved spec, the trial summary, the wall
/// time the trials took, and the thread plan they ran with (left empty by
/// callers whose files must not depend on the schedule, like sweep cells).
struct ScenarioResult {
  ScenarioSpec resolved;
  TrialSummary summary;
  double wall_seconds = 0.0;
  std::optional<ThreadPlan> plan;
};

/// parse -> validate -> compile -> run in one call — the single entry
/// point the simulator CLI, benches, and examples share. `observer` (when
/// given) sees every round of every trial without affecting the result;
/// `cancel` (when given) bounds the run cooperatively — see Scenario::run.
ScenarioResult run_scenario(const ScenarioSpec& spec, RoundObserver* observer = nullptr,
                            const CancellationToken* cancel = nullptr);

/// The result as an ordered JSON document (schema_version 1): the resolved
/// spec echo (graph-backend runs add the topology store that ran as
/// `topology_backend`), the summary counters/rates, round statistics
/// (mean/min/max and p50/p95 where any trial stopped), the thread plan as
/// `plan: {trial_team, round_team}` when the result carries one, and
/// timing. Written via the existing src/io writer.
io::JsonValue scenario_result_to_json(const ScenarioResult& result);

}  // namespace plurality::scenario
