// One sweep out_dir: the layout and lifecycle that both sweep runners
// share — the in-process orchestrator (run_sweep) and the service master
// (plurality_sweepd), whose workers write cell files into the same
// directory.
//
//   <out_dir>/manifest.json             sweep spec + cell table + statuses
//   <out_dir>/cells/cell_NNNNN.json     one ScenarioResult (+ probes) per cell
//   <out_dir>/cells/cell_NNNNN_trajectory.csv   (observe.trajectory > 0)
//   <out_dir>/cells/cell_NNNNN.attempts.json    attempts ledger (cell_runner.hpp)
//   <out_dir>/cells/quarantine/         corrupt checkpoint files, preserved
//   <out_dir>/aggregate.csv             one row per cell (complete runs only)
//   <out_dir>/failures.csv              one row per failed cell
//
// Manifest and cell files are CRC-stamped checkpoint envelopes
// (io/checkpoint.hpp) written atomically (tmp + rename), so a killed sweep
// leaves only complete files behind, and a drained service out_dir resumes
// under either runner.
//
// Lifecycle:
//   open    create cells/; with a manifest present, refuse on resume when
//           it records a DIFFERENT sweep, and without resume refuse unless
//           force. A forced start removes every cell_* file under cells/
//           (results, trajectories, ledgers, whichever grid wrote them) and
//           keeps quarantine/. Then stray *.tmp files go and the manifest
//           is written.
//   resume  trust a cell whose file CRC-verifies and matches its spec
//           (scan_cell_file); its stale ledger goes.
//   finish  prune the ledgers of clean cells, write failures.csv and the
//           final manifest, and aggregate.csv when every cell is done.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "sweep/orchestrator.hpp"

namespace plurality::sweep {

/// The grid a runner works on: `trials_override` (0 = none) is applied to
/// `spec` in place — refused beside a 'trials' axis — and the spec is
/// expanded into Pending cells with their ids. The manifest and resume
/// matching therefore see the overridden grid.
[[nodiscard]] std::vector<CellOutcome> effective_grid(SweepSpec& spec,
                                                      std::uint64_t trials_override);

class SweepDir {
 public:
  /// Opens `out_dir` for `spec`'s grid (see the header comment). Throws
  /// CheckError on a refused open and CheckpointSchemaError on a manifest
  /// from another schema.
  SweepDir(const std::filesystem::path& out_dir, const SweepSpec& spec,
           const std::vector<CellOutcome>& cells, bool resume, bool force);

  [[nodiscard]] const std::filesystem::path& cells_dir() const { return cells_dir_; }
  [[nodiscard]] std::filesystem::path cell_path(const CellOutcome& cell) const {
    return cells_dir_ / (cell.id + ".json");
  }
  [[nodiscard]] std::filesystem::path ledger(const CellOutcome& cell) const;
  [[nodiscard]] std::filesystem::path manifest_path() const { return dir_ / "manifest.json"; }
  [[nodiscard]] std::filesystem::path failures_path() const { return dir_ / "failures.csv"; }
  [[nodiscard]] std::filesystem::path aggregate_path() const { return dir_ / "aggregate.csv"; }

  /// True when the cell's file holds its trusted result, which then fills
  /// `cell` (scan_cell_file; corrupt files are quarantined).
  bool scan(CellOutcome& cell) const;

  /// Resume trust: scan(), and on a trusted result mark the cell Resumed
  /// and remove its stale ledger.
  bool resume(CellOutcome& cell) const;

  /// Finish (see the header comment). zero_wall_times zeroes the cells'
  /// wall_seconds before the aggregate is written. Returns whether
  /// aggregate.csv was written.
  bool finish(std::vector<CellOutcome>& cells, bool zero_wall_times) const;

 private:
  std::filesystem::path dir_;
  std::filesystem::path cells_dir_;
  SweepSpec spec_;
};

}  // namespace plurality::sweep
