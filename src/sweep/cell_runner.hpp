// One sweep cell, run to a verdict — the attempt loop shared by the
// in-process orchestrator (sweep/orchestrator.cpp) and the out-of-process
// sweep service worker (service/worker.cpp).
//
// Extracted so that "what one cell attempt does" — ledger write, watchdog
// arm, fault injection, driver run, CRC-enveloped atomic checkpoint write,
// read-back verification, quarantine, failure taxonomy, seeded backoff —
// has exactly ONE implementation. The orchestrator loops cells in-process;
// the service worker runs one leased cell per request under a master-owned
// retry policy. Both paths must produce bitwise-identical cell files for
// the same spec and seed, and both must survive being SIGKILLed at any
// instruction; sharing this code is how that property stays true.
//
// Commit discipline (CellRunContext::first_write_wins):
//   false  — plain atomic rename (tmp -> target). The orchestrator's mode:
//            cells are uniquely owned, a second writer is a logic bug.
//   true   — link(2)-based first-write-wins. The service's mode: a lease
//            that expired mid-run can leave TWO workers finishing the same
//            cell. link(tmp, target) fails with EEXIST instead of
//            clobbering; the loser verifies the winner's CRC (a verified
//            existing file IS this cell's result — same seed, same bytes
//            under zero_wall_times) and discards its own. A corrupt
//            existing file is quarantined and the link retried, so a
//            half-dead writer can never poison the grid.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "support/cancellation.hpp"
#include "sweep/fault_plan.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::sweep {

/// The wait before retrying after failed attempt `attempt` (1-based):
/// base * 2^min(attempt-1, 20) * (1 + jitter), the jitter in [0, 1) drawn
/// from the cell's retry stream (Philox stream family "retry"). That stream
/// keys backoff jitter and the audit tag ONLY — trial streams never derive
/// from it, so a retried cell reproduces its first-attempt results bitwise.
/// The orchestrator sleeps it in-process; the service master gates the
/// cell's next lease on it.
[[nodiscard]] double retry_backoff_seconds(double base, std::uint64_t cell_seed,
                                           std::uint32_t attempt);

/// The "0x%016x" audit tag recorded in cell files when attempts > 1.
[[nodiscard]] std::string retry_tag_hex(std::uint64_t cell_seed, std::uint32_t attempt);

// --- per-cell attempts ledger ---------------------------------------------
// Written before each attempt, removed when the cell reaches a clean
// verdict. A ledger surviving a process death records attempts that died
// with it — they count against the retry budget, across processes: two
// workers crash-looping on the same poisoned cell share one budget because
// they share one ledger file.

[[nodiscard]] std::filesystem::path ledger_path(const std::filesystem::path& cells_dir,
                                                const std::string& id);
[[nodiscard]] std::uint32_t read_attempts_ledger(const std::filesystem::path& path);
void write_attempts_ledger(const std::filesystem::path& path, std::uint32_t attempts);

/// Moves a corrupt checkpoint into `quarantine_dir` under a unique name —
/// the bytes are evidence (what corrupted them?), never silently deleted.
/// Returns the destination path.
std::string quarantine_file(const std::filesystem::path& path,
                            const std::filesystem::path& quarantine_dir);

/// Reloads the CSV-level metrics from a completed cell payload.
[[nodiscard]] CellMetrics metrics_from_json(const io::JsonValue& doc);

/// Verdict of inspecting an on-disk cell file during resume / reconcile.
enum class CellScan {
  Missing,      ///< no file
  Trusted,      ///< CRC-verified and payload matches cell.requested; cell filled
  SpecMismatch, ///< verified file for a DIFFERENT spec (grid changed) — recompute
  Quarantined,  ///< corrupt; moved into quarantine_dir, recompute
};

/// CRC-verifies `path` and, when its payload's requested-spec string matches
/// `cell.requested`, fills cell.metrics / resolved_backend / retry audit
/// fields. Quarantines corrupt files (with a stderr note). Throws
/// CheckpointSchemaError on version skew — schema drift is a hard refusal,
/// never a silent recompute. This is the ONLY way a master or resume pass
/// may trust a result it did not just compute: always the disk, never memory.
CellScan scan_cell_file(const std::filesystem::path& path,
                        const std::filesystem::path& quarantine_dir, CellOutcome& cell);

/// Everything run_cell_to_verdict needs besides the cell itself. The
/// injector and watchdog are borrowed, not owned; both must outlive the
/// call.
struct CellRunContext {
  /// <out_dir>/cells. Empty = in-memory run: no checkpoint, no ledger.
  std::filesystem::path cells_dir;
  ObserveSpec observe;
  bool zero_wall_times = false;
  double cell_timeout_seconds = 0.0;  ///< 0 = no deadline
  std::uint32_t max_retries = 2;
  double retry_backoff_seconds = 0.05;
  /// Commit via link(2) first-write-wins instead of rename (see header
  /// comment) — the multi-writer service mode.
  bool first_write_wins = false;
  /// Attempts burned by earlier processes (from the ledger); counted
  /// against max_retries before the first local attempt.
  std::uint32_t prior_attempts = 0;
  /// Service worker mode: run EXACTLY this attempt number and return —
  /// the master owns the retry loop, backoff, and the terminal verdict,
  /// so a retryable failure leaves status = the failure and KEEPS the
  /// ledger (the master prunes it when the cell's story ends). 0 = run
  /// the local retry loop to a terminal status (orchestrator mode).
  std::uint32_t single_attempt = 0;
  /// External token, cancellable by another thread (the worker's
  /// heartbeat loop fires kLeaseLost through it). Null = the runner uses
  /// its own private token.
  CancellationToken* token = nullptr;
  FaultInjector* injector = nullptr;  ///< required
  Watchdog* watchdog = nullptr;       ///< required
  /// Live telemetry (obs/metrics.hpp): a MetricsObserver is stacked on the
  /// cell's probe chain and cell-level counters (started / finished /
  /// retries / cancellations) tick here. Null = metrics off — the hot path
  /// then carries no observer and no atomics (runs stay bitwise-identical
  /// either way; tests/obs pins that).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Runs `cell` until it leaves Pending (or, in single_attempt mode, for
/// exactly one attempt). On return cell.status is Done, Interrupted, or a
/// failed_* verdict; cell.attempts / retry_tag / error / metrics are
/// filled. Never throws for per-cell runtime failures — those ARE the
/// taxonomy — but propagates programming errors (bad context).
void run_cell_to_verdict(CellOutcome& cell, const CellRunContext& ctx);

}  // namespace plurality::sweep
