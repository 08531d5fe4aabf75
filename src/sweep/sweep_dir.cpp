#include "sweep/sweep_dir.hpp"

#include "io/checkpoint.hpp"
#include "io/csv.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "sweep/cell_runner.hpp"

namespace plurality::sweep {

namespace fs = std::filesystem;

namespace {

std::string fmt_double(double v) { return format_sig(v, 12); }

std::vector<std::string> aggregate_columns(const SweepSpec& spec) {
  std::vector<std::string> columns = {
      "cell",        "dynamics",       "workload",   "topology",   "adversary",
      "backend",     "engine",         "stop",       "n",          "k",
      "trials",      "seed",           "max_rounds", "consensus_rate",
      "win_rate",    "rounds_mean",    "rounds_p50", "rounds_p95", "rounds_min",
      "rounds_max",  "round_limit_hits", "predicate_stops", "wall_seconds"};
  const bool probes = spec.observe.m_plurality || spec.observe.trajectory > 0;
  if (spec.observe.m_plurality) {
    columns.insert(columns.end(), {"ttm_hits", "ttm_p50", "ttm_p95"});
  }
  if (probes) {
    columns.insert(columns.end(),
                   {"final_fraction_mean", "final_support_mean", "final_mono_mean"});
  }
  return columns;
}

std::vector<std::string> aggregate_row(const SweepSpec& spec, const CellOutcome& outcome) {
  const scenario::ScenarioSpec& s = outcome.requested;
  const CellMetrics& m = outcome.metrics;
  std::vector<std::string> row = {
      outcome.id,
      s.dynamics,
      s.workload,
      s.topology,
      s.adversary,
      outcome.resolved_backend,
      s.engine,
      s.stop,
      std::to_string(s.n),
      std::to_string(s.k),
      std::to_string(m.trials),
      std::to_string(s.seed),
      std::to_string(s.max_rounds),
      fmt_double(m.consensus_rate),
      fmt_double(m.win_rate),
      fmt_double(m.rounds_mean),
      fmt_double(m.rounds_p50),
      fmt_double(m.rounds_p95),
      fmt_double(m.rounds_min),
      fmt_double(m.rounds_max),
      std::to_string(m.round_limit_hits),
      std::to_string(m.predicate_stops),
      fmt_double(m.wall_seconds)};
  const bool probes = spec.observe.m_plurality || spec.observe.trajectory > 0;
  if (spec.observe.m_plurality) {
    row.push_back(fmt_double(m.ttm_hits));
    row.push_back(fmt_double(m.ttm_p50));
    row.push_back(fmt_double(m.ttm_p95));
  }
  if (probes) {
    row.push_back(fmt_double(m.final_fraction_mean));
    row.push_back(fmt_double(m.final_support_mean));
    row.push_back(fmt_double(m.final_mono_mean));
  }
  return row;
}

io::JsonValue manifest_to_json(const SweepSpec& spec, const std::vector<CellOutcome>& cells) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("schema_version", std::uint64_t{io::kCheckpointSchema});
  doc.set("sweep", spec.to_json());
  io::JsonValue& cell_list = doc.set("cells", io::JsonValue::array());
  for (const CellOutcome& cell : cells) {
    io::JsonValue& entry = cell_list.push(io::JsonValue::object());
    entry.set("index", std::uint64_t{cell.index});
    entry.set("id", cell.id);
    entry.set("spec", cell.requested.to_spec_string());
    entry.set("status", cell_status_name(cell.status));
    if (cell.attempts > 0) entry.set("attempts", std::uint64_t{cell.attempts});
    if (!cell.error.empty()) entry.set("error", cell.error);
  }
  return doc;
}

/// Atomically (tmp + rename) writes `rows` under `header` to `path`.
void write_csv(const fs::path& path, const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  const fs::path tmp = path.string() + ".tmp";
  {
    io::CsvWriter csv(tmp.string(), header);
    for (const std::vector<std::string>& row : rows) csv.add_row(row);
  }
  fs::rename(tmp, path);
}

/// Deletes stray "*.tmp" staging files in `dir` (a killed writer leaves
/// only those — commits are atomic).
void remove_stray_tmp_files(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmp") {
      fs::remove(entry.path());
    }
  }
}

}  // namespace

std::vector<CellOutcome> effective_grid(SweepSpec& spec, std::uint64_t trials_override) {
  if (trials_override > 0) {
    for (const SweepAxis& axis : spec.axes) {
      PLURALITY_REQUIRE(axis.field != "trials",
                        "sweep: trials_override cannot combine with a 'trials' axis");
    }
    spec.base.trials = trials_override;
  }
  const std::vector<scenario::ScenarioSpec> expanded = spec.expand();
  std::vector<CellOutcome> cells(expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    cells[i].index = i;
    cells[i].id = cell_id(i);
    cells[i].requested = expanded[i];
  }
  return cells;
}

SweepDir::SweepDir(const fs::path& out_dir, const SweepSpec& spec,
                   const std::vector<CellOutcome>& cells, bool resume, bool force)
    : dir_(out_dir), cells_dir_(out_dir / "cells"), spec_(spec) {
  fs::create_directories(cells_dir_);
  const fs::path manifest = manifest_path();
  if (fs::exists(manifest)) {
    if (resume) {
      // Schema skew and corruption both surface here with their own
      // actionable errors (a corrupt manifest means the cell table's
      // provenance is unverifiable — use a fresh out_dir).
      const io::JsonValue stored = io::read_checkpoint_file(manifest.string());
      PLURALITY_REQUIRE(stored.at("sweep").to_string() == spec_.to_json().to_string(),
                        "sweep: manifest at " << manifest.string()
                            << " records a DIFFERENT sweep (spec or trial override "
                               "changed); refusing to resume a mixed grid — use a "
                               "fresh out_dir");
    } else {
      PLURALITY_REQUIRE(force, "sweep: " << manifest.string()
                                         << " already exists; pass resume to continue that "
                                            "sweep or force to start over (its cell files "
                                            "get deleted)");
      // Forced start: no per-cell file of the previous run survives. A
      // rename would overwrite only the results the new grid recomputes,
      // and a worker's link(2) commit would keep even those.
      for (const auto& entry : fs::directory_iterator(cells_dir_)) {
        if (entry.is_regular_file() && entry.path().filename().string().starts_with("cell_")) {
          fs::remove(entry.path());
        }
      }
    }
  }
  // A killed run can leave *.tmp staging files (never partial results —
  // the rename is atomic). Sweep them before writing anything new.
  remove_stray_tmp_files(dir_);
  remove_stray_tmp_files(cells_dir_);
  io::write_checkpoint_file(manifest.string(), manifest_to_json(spec_, cells));
}

fs::path SweepDir::ledger(const CellOutcome& cell) const {
  return ledger_path(cells_dir_, cell.id);
}

bool SweepDir::scan(CellOutcome& cell) const {
  return scan_cell_file(cell_path(cell), cells_dir_ / "quarantine", cell) == CellScan::Trusted;
}

bool SweepDir::resume(CellOutcome& cell) const {
  if (!scan(cell)) return false;
  cell.status = CellStatus::Resumed;
  cell.resumed = true;
  fs::remove(ledger(cell));  // stale crash ledger
  return true;
}

bool SweepDir::finish(std::vector<CellOutcome>& cells, bool zero_wall_times) const {
  // A ledger's job ends when its cell reaches a clean verdict. (Covers
  // ledgers left by other processes of this out_dir, e.g. a service worker
  // that died between committing the cell file and removing its ledger.)
  bool complete = true;
  std::vector<std::vector<std::string>> failures;
  for (const CellOutcome& cell : cells) {
    if (cell.status == CellStatus::Done || cell.status == CellStatus::Resumed) {
      fs::remove(ledger(cell));
      continue;
    }
    complete = false;
    if (cell_status_failed(cell.status)) {
      failures.push_back({cell.id, cell_status_name(cell.status),
                          std::to_string(cell.attempts), cell.retry_tag, cell.error});
    }
  }
  write_csv(failures_path(), {"cell", "status", "attempts", "retry_tag", "error"}, failures);
  io::write_checkpoint_file(manifest_path().string(), manifest_to_json(spec_, cells));
  if (!complete) return false;

  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells.size());
  for (CellOutcome& cell : cells) {
    if (zero_wall_times) cell.metrics.wall_seconds = 0.0;
    rows.push_back(aggregate_row(spec_, cell));
  }
  write_csv(aggregate_path(), aggregate_columns(spec_), rows);
  return true;
}

}  // namespace plurality::sweep
