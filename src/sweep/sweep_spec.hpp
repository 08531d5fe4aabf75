// SweepSpec — a declarative grid of scenarios.
//
// The paper's figures are curves over an axis (consensus time vs k, win
// rate vs initial bias, disruption vs adversary budget F), and the
// follow-up papers add more axes (topology in arXiv:1407.2565, memory in
// the undecided-state line). A SweepSpec names a whole grid at once: a
// base ScenarioSpec plus cartesian axes over ANY spec field —
//
//   base:  dynamics=3-majority workload=bias:2c n=2000 trials=8
//   axes:  k = 2,4,8,16,32,64
//          backend = count,graph
//          engine = strict,batched
//
// expand() multiplies the axes (declaration order, last axis fastest) into
// one ScenarioSpec per cell, derives per-cell seeds, and validates every
// cell through the scenario layer's registries UP FRONT — a sweep that
// would die on cell 2311 after an hour of cells 0..2310 refuses to start
// instead. The orchestrator (sweep/orchestrator.hpp) then runs, resumes,
// and aggregates the grid.
//
// Two parse faces, mirroring ScenarioSpec: a compact string form where a
// comma-separated value turns the field into an axis
// ("k=2,4,8 engine=strict,batched n=2000"), and strict JSON
// ({"base": {...}, "axes": {"k": [2,4,8]}, "observe": {...}}).
#pragma once

#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace plurality::sweep {

/// One cartesian axis: a ScenarioSpec field name and the values it sweeps
/// (kept as strings; each cell applies them via ScenarioSpec::set_field,
/// so axis values accept exactly the spec grammar, "1e6" included).
struct SweepAxis {
  std::string field;
  std::vector<std::string> values;
};

/// Per-cell observer probes (core/observer.hpp) the orchestrator attaches.
/// Probes read materialized rounds only — switching them on never changes
/// any cell's TrialSummary (bitwise; see tests/core/test_observer.cpp).
struct ObserveSpec {
  /// Track time-to-m-plurality: first round where all but at most `m`
  /// nodes hold the plurality color (Corollary 4's quantity).
  bool m_plurality = false;
  count_t m = 0;
  /// Per-trial trajectory rows (plurality fraction / support size /
  /// monochromatic distance) recorded per cell; 0 disables. With an
  /// out_dir, each cell writes cells/<id>_trajectory.csv.
  std::size_t trajectory = 0;
  /// Record every stride-th round (see ProbeOptions::trajectory_stride).
  round_t trajectory_stride = 1;
};

struct SweepSpec {
  scenario::ScenarioSpec base;
  /// Declaration order = expansion order (last axis varies fastest).
  std::vector<SweepAxis> axes;
  ObserveSpec observe;
  /// Cell seed policy. true (default): cells whose seed is not set by a
  /// "seed" axis get seed = base.seed + cell_index, so cells are
  /// statistically independent replicas; the derived seed is recorded in
  /// the expanded spec (cells stay standalone-reproducible). false: every
  /// cell inherits base.seed verbatim.
  bool per_cell_seeds = true;

  /// Compact string form: whitespace-separated key=value tokens; a value
  /// containing ',' becomes an axis (split on commas, two values minimum
  /// per axis by construction), anything else assigns the base field.
  /// Both parse and from_json reject an axis whose values give the same
  /// spec (e.g. n=1e6,1000000).
  static SweepSpec parse(const std::string& text);

  /// Strict JSON: {"base": {spec fields}, "axes": {field: [values]},
  ///               "observe": {...}?, "per_cell_seeds": bool?}.
  /// Unknown keys throw at every level. Axis arrays need >= 1 element;
  /// numeric/boolean elements are accepted and canonicalized to strings.
  static SweepSpec from_json(const io::JsonValue& doc);
  static SweepSpec from_json_file(const std::string& path);

  /// The spec as an ordered JSON object (round-trips through from_json;
  /// the manifest stores this so --resume can detect a changed sweep).
  [[nodiscard]] io::JsonValue to_json() const;

  /// Number of grid cells (product of axis lengths; 1 with no axes).
  [[nodiscard]] std::size_t cell_count() const;

  /// Expands the full grid in row-major order and validates every cell
  /// (ScenarioSpec::validate); throws CheckError naming the first
  /// offending cell and its axis assignment. The returned specs have
  /// per-cell seeds already applied.
  [[nodiscard]] std::vector<scenario::ScenarioSpec> expand() const;
};

/// Zero-padded stable cell id ("cell_00017") — file names and manifest
/// entries sort in expansion order.
std::string cell_id(std::size_t index);

}  // namespace plurality::sweep
