// ScenarioSpec — the declarative face of the whole experiment grid.
//
// The paper's statements quantify over dynamics × k × workload × topology
// × adversary (Becchetti et al., SPAA 2014; the gossip-model follow-up
// arXiv:1407.2565 adds the topology/communication axis). Before this layer
// the grid was reachable only through two divergent APIs (core run_trials
// vs graph::run_graph_trials) that every binary hand-wired. A ScenarioSpec
// names one grid cell declaratively:
//
//   dynamics   registry name            (core/registry.hpp)
//   workload   initial-configuration spec (core/workloads.hpp grammar)
//   topology   topology spec            (graph/topology_registry.hpp grammar)
//   adversary  adversary spec           (core/adversary.hpp grammar)
//   backend    auto | count | graph
//   engine     strict | batched         (core/engine_mode.hpp)
//   stop       consensus | m-plurality:<M> | any-reaches:<T>
//   n, k, trials, seed, max_rounds, shuffle_layout
//
// How a run spreads over threads is not part of the model and never
// changes results, so no spec field names it: the thread plan
// (core/thread_plan.hpp) picks it. Removed execution fields are still
// accepted at their old values and dropped, so old result echoes
// re-parse: `parallel` (true or false), `tile_nodes` and
// `prefetch_distance` at their defaults (0 and 16), and `topology_backend`
// (auto, arena, implicit) — compile picks the topology store from the
// topology and n (resolved_topology_backend).
//
// Specs parse from "key=value" strings or JSON files, validate with
// actionable errors, compile (scenario.hpp) into the right backend, and
// run through the SAME legacy drivers every golden test pins — same spec,
// same streams, bitwise-identical TrialSummary.
#pragma once

#include <string>

#include "io/json.hpp"
#include "support/types.hpp"

namespace plurality::scenario {

struct ScenarioSpec {
  std::string dynamics = "3-majority";
  std::string workload = "balanced";
  std::string topology = "clique";
  std::string adversary = "none";
  /// Trial driver. "auto" resolves at validate()/compile() time: clique
  /// topology + exact adoption law -> "count" (the
  /// Θ(k)-per-round exact backend); everything else -> "graph" (a clique
  /// without an exact law steps per node on the graph engine's implicit
  /// clique).
  std::string backend = "auto";
  std::string engine = "strict";
  /// Stop condition, checked after each round on top of the always-on
  /// absorption checks:
  ///   "consensus"         color consensus / absorption / round cap only
  ///   "m-plurality:<M>"   all but at most M nodes on color 0 (Corollary 4
  ///                       runs; every workload puts the plurality there)
  ///   "any-reaches:<T>"   some color holds >= T nodes (Theorem 2 runs)
  std::string stop = "consensus";
  count_t n = 10'000;
  state_t k = 3;
  std::uint64_t trials = 20;
  std::uint64_t seed = 1;
  round_t max_rounds = 1'000'000;
  /// Graph backend only: shuffle the node layout per trial.
  bool shuffle_layout = true;

  /// Parses the compact string form: whitespace-separated "key=value"
  /// tokens over the JSON field names, e.g.
  ///   "dynamics=undecided topology=regular:8 workload=bias:2c n=1e6 k=5
  ///    engine=batched trials=32"
  /// Unknown keys, duplicate keys, and malformed values throw CheckError.
  /// Fields not mentioned keep their defaults. Does NOT validate cross-
  /// field constraints — call validate().
  static ScenarioSpec parse(const std::string& text);

  /// Builds a spec from a parsed JSON object (strict: unknown keys throw,
  /// so a typo cannot silently run the default experiment). Fields not
  /// present keep their defaults.
  static ScenarioSpec from_json(const io::JsonValue& doc);

  /// Applies one `key=value` assignment with the string form's parsing
  /// rules (numeric fields accept "1e6"; unknown keys throw naming the
  /// known fields). This is the sweep layer's expansion hook: an axis is a
  /// field name plus value strings, each applied via set_field.
  void set_field(const std::string& key, const std::string& value);

  /// read_json_file + from_json.
  static ScenarioSpec from_json_file(const std::string& path);

  /// The spec as an ordered JSON object (round-trips through from_json).
  [[nodiscard]] io::JsonValue to_json() const;

  /// The spec in the compact string form (round-trips through parse).
  [[nodiscard]] std::string to_spec_string() const;

  /// Cross-field validation with actionable errors: every name resolves
  /// through its registry, the workload/topology fit (n, k), and the
  /// backend/engine/adversary/stop combination is runnable. Cheap (builds
  /// no graph). Throws CheckError; returns normally iff compile() would
  /// succeed (up to edge-list file contents).
  void validate() const;

  /// The backend "auto" resolves to under this spec's topology, dynamics,
  /// and engine (identity for explicit backends). validate()s first.
  [[nodiscard]] std::string resolved_backend() const;

  /// The topology store ("arena" or "implicit") this spec's graph is built
  /// with. Clique and gossip are always implicit (they store nothing);
  /// ring, torus and lattice:<d> are implicit once n >= 2^22
  /// (graph::kImplicitAutoThreshold) and arena below it, where the build is
  /// cheap and keeps the CSR lane kernels; every other family is arena.
  /// Implicit ring/torus/lattice step bitwise-identically to their arena
  /// builds, so the choice changes memory and the reachable n, never
  /// results. validate()s first. Meaningful only when the trial backend
  /// resolves to "graph".
  [[nodiscard]] std::string resolved_topology_backend() const;
};

/// A parsed `stop` field (shared by validate() and Scenario::compile()).
struct StopCondition {
  enum class Kind { Consensus, MPlurality, AnyReaches } kind = Kind::Consensus;
  count_t value = 0;
};

/// Parses a stop spec ("consensus", "m-plurality:<M>", "any-reaches:<T>");
/// throws CheckError on unknown kinds or malformed thresholds.
StopCondition parse_stop_condition(const std::string& stop);

}  // namespace plurality::scenario
