// Sweep orchestrator — runs a SweepSpec's whole grid as one resumable,
// fault-tolerant job.
//
// Execution model: cells are the parallel unit. Cells share a cell team,
// scheduled work-stealing across OpenMP threads (schedule(dynamic, 1)), and
// each runs its trials one after another on its own thread: a parallel
// region opened inside the cell team gets one thread (core/thread_plan.hpp).
// A graph cell whose thread plan gives its trials every thread, or one too
// big to run beside its siblings, runs after the team on its own plan.
// Trial results are thread-count invariant by construction, and every
// cell's randomness derives from its own spec's seed, so WHICH thread runs
// WHICH cell — or how many times a cell is retried — can never affect any
// result.
//
// Checkpointing: with an out_dir, the orchestrator writes the sweep
// out_dir layout of sweep/sweep_dir.hpp, shared with the service master.
// Resume re-expands the grid, verifies each cell file's CRC and schema,
// trusts cells whose payload matches the expected spec, QUARANTINES
// corrupt files (moved aside, never silently deleted or trusted),
// hard-refuses schema skew with an actionable error, and runs the rest. A
// manifest whose sweep differs from the current spec refuses to resume —
// silently mixing two grids' cells is how result files stop being
// trustworthy.
//
// Fault tolerance: each cell attempt runs under a CancellationToken watched
// by a wall-clock watchdog (SweepOptions::cell_timeout_seconds) and the
// process-wide shutdown flag (SIGINT/SIGTERM). Failed attempts are retried
// up to max_retries times with exponential backoff; retries reuse the SAME
// trial seed (results stay bitwise-reproducible) and record a retry-derived
// Philox stream tag in the cell file for audit. Cells that still fail land
// in a four-way taxonomy — failed_timeout / failed_crash / failed_corrupt /
// failed_spec — aggregated into manifest.json and failures.csv; run_sweep
// RETURNS them (it no longer throws on cell failures; callers check
// SweepOutcome::failed). Shutdown cancels in-flight cells at their next
// round boundary, skips pending cells, flushes the manifest, and leaves
// everything resumable.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/trials.hpp"
#include "sweep/fault_plan.hpp"
#include "sweep/sweep_spec.hpp"

namespace plurality::obs {
class MetricsRegistry;
}

namespace plurality::sweep {

/// Where a cell ended up. Pending = never started (shutdown skipped it);
/// Interrupted = cancelled mid-run by shutdown (resumable, not a failure).
enum class CellStatus {
  Pending,
  Done,
  Resumed,
  FailedTimeout,
  FailedCrash,
  FailedCorrupt,
  FailedSpec,
  Interrupted,
};

/// Stable lowercase name ("done", "failed_timeout", ...) — the manifest /
/// failures.csv vocabulary.
[[nodiscard]] const char* cell_status_name(CellStatus status);

/// True for the four failed_* statuses.
[[nodiscard]] bool cell_status_failed(CellStatus status);

/// Flat per-cell numbers for the aggregate CSV — fillable from a live run
/// or re-read from a completed cell's result file (-1 marks "absent").
struct CellMetrics {
  std::uint64_t trials = 0;
  std::uint64_t consensus_count = 0;
  std::uint64_t plurality_wins = 0;
  std::uint64_t round_limit_hits = 0;
  std::uint64_t predicate_stops = 0;
  std::uint64_t rounds_count = 0;
  double consensus_rate = 0.0;
  double win_rate = 0.0;
  double rounds_mean = -1.0;
  double rounds_min = -1.0;
  double rounds_max = -1.0;
  double rounds_p50 = -1.0;
  double rounds_p95 = -1.0;
  double wall_seconds = 0.0;
  // Probe products (observe.m_plurality / final-state scalars).
  double ttm_hits = -1.0;
  double ttm_p50 = -1.0;
  double ttm_p95 = -1.0;
  double final_fraction_mean = -1.0;
  double final_support_mean = -1.0;
  double final_mono_mean = -1.0;
};

struct CellOutcome {
  std::size_t index = 0;
  std::string id;
  /// The expanded cell spec as requested (backend may still be "auto").
  scenario::ScenarioSpec requested;
  /// Backend the cell actually ran on (echoed from the result).
  std::string resolved_backend;
  CellStatus status = CellStatus::Pending;
  /// True when --resume accepted an existing result file instead of
  /// recomputing the cell (== status Resumed).
  bool resumed = false;
  /// Attempts consumed, counting attempts from earlier processes of the
  /// same out_dir (the per-cell attempts ledger survives crashes).
  std::uint32_t attempts = 0;
  /// Retry-derived Philox stream tag (hex), recorded when attempts > 1 —
  /// keys retry-scoped randomness (backoff jitter), NEVER trial streams:
  /// retried cells reproduce first-attempt results bitwise.
  std::string retry_tag;
  /// Last failure message (failed_* / interrupted statuses).
  std::string error;
  CellMetrics metrics;
  /// Full summary — populated for freshly run cells only (resumed cells
  /// reload metrics, not the sketch; summary.trials == 0 marks that).
  TrialSummary summary;
};

struct SweepOptions {
  /// Directory for manifest / cell files / aggregate.csv. Empty = run
  /// purely in memory (no files, no resume) — the bench wrappers' mode.
  std::string out_dir;
  /// Skip cells whose result file exists, CRC-verifies, and matches the
  /// expected spec. Corrupt files are quarantined and recomputed.
  bool resume = false;
  /// Allow starting over inside an out_dir that already has a manifest
  /// (every cell_* file of the previous run is deleted first). Without
  /// resume or force, a populated out_dir is an error — results must never
  /// be clobbered silently.
  bool force = false;
  /// Share the OpenMP threads between cells. Graph cells with at least as
  /// many trials as threads then run one at a time on their own trial
  /// team; every other cell runs side by side with others on a cell team,
  /// its own trials sequentially. Off: every cell runs one at a time on its
  /// own thread plan (core/thread_plan.hpp).
  bool cells_in_parallel = true;
  /// CI shrink: override every cell's trial count (0 = use spec values).
  /// Applied BEFORE expansion, so the manifest and resume matching see the
  /// overridden grid (a resume must pass the same override).
  std::uint64_t trials_override = 0;
  /// Per-cell wall-clock deadline, enforced by the watchdog through the
  /// drivers' cooperative cancellation check. 0 = no deadline.
  double cell_timeout_seconds = 0.0;
  /// Retries per cell after a retryable failure (timeout / in-process
  /// crash / corrupt write). failed_spec never retries. Attempts persist
  /// across process deaths via the per-cell ledger file.
  std::uint32_t max_retries = 2;
  /// Base backoff before retry r (retry_backoff_seconds, cell_runner.hpp).
  double retry_backoff_seconds = 0.05;
  /// Deterministic fault injection (tests / torture CI). Empty = inert.
  FaultPlan fault_plan;
  /// Preflight memory budget in bytes; cells estimated over it are refused
  /// (failed_spec), cells over budget/threads run alone.
  /// 0 = ~80% of physical RAM.
  std::uint64_t memory_budget_bytes = 0;
  /// Write wall_seconds as 0 everywhere (cell files, aggregate) so two
  /// runs of the same grid produce bitwise-identical artifacts — the
  /// torture harness compares aggregates with cmp(1).
  bool zero_wall_times = false;
  /// Called after each cell completes (inside a critical section, in
  /// completion order), e.g. for progress lines.
  std::function<void(const CellOutcome&, std::size_t done, std::size_t total)> on_cell;
  /// > 0: a progress line every N seconds on stderr (cells done / running
  /// / failed, aggregate node-updates/s) from live registry snapshots —
  /// the replacement for per-cell-completion verbose spam on big grids.
  /// Implies metrics (the global registry when `metrics` is null).
  double progress_seconds = 0.0;
  /// Live telemetry registry threaded into every cell (obs/metrics.hpp).
  /// Null and progress_seconds == 0: metrics fully off (no per-round
  /// observer cost). Results are bitwise-identical either way.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SweepOutcome {
  std::vector<CellOutcome> cells;  // expansion order
  std::size_t ran = 0;             // freshly computed to Done
  std::size_t resumed = 0;
  std::size_t failed = 0;          // any failed_* status
  /// True when a shutdown request stopped the sweep early (some cells
  /// Interrupted / Pending); the out_dir is resumable.
  bool interrupted = false;
  double wall_seconds = 0.0;
  std::string manifest_path;   // empty without out_dir
  std::string aggregate_path;  // empty without out_dir or on incomplete runs
  std::string failures_path;   // empty without out_dir
};

/// Expands, schedules, checkpoints, retries, and aggregates the sweep.
/// Throws CheckError on spec/validation/resume-mismatch errors and
/// CheckpointSchemaError on version skew; per-cell RUNTIME failures do not
/// throw — they land in the returned statuses (check SweepOutcome::failed).
SweepOutcome run_sweep(const SweepSpec& spec, const SweepOptions& options);

/// One cell's result document (the checkpoint payload) — resolved spec +
/// summary + probe scalars + retry audit block.
io::JsonValue cell_result_to_json(const CellOutcome& outcome);

}  // namespace plurality::sweep
