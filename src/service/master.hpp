// plurality_sweepd's engine: a single-threaded master that owns a sweep
// grid and dispatches cells to plurality_sweep_worker processes under
// LEASES.
//
// Model: workers share the master's out_dir filesystem. Control messages
// (protocol.hpp) cross the wire; results never do — a completed cell is a
// CRC checkpoint envelope on disk, and the master re-reads and verifies it
// before counting it (scan_cell_file), so its cell table can always be
// rebuilt from disk and never has to trust a worker's memory (or its own).
//
// Lease/heartbeat state machine, per cell:
//
//     pending ──lease──> leased ──verified-complete──> done
//        ^                  │ │
//        │   missed 3×HB /  │ └─reported-failure──> pending (backoff) or
//        └── conn death ────┘          failed_* (budget/terminal verdict)
//
// A lease carries the attempt number (continuing the shared on-disk
// attempts ledger, so crash loops are bounded ACROSS workers) and the
// per-worker memory share (preflight budget / connected workers).
// Reassignment applies the same exponential backoff + seeded jitter as the
// in-process orchestrator — same Philox retry stream, same doubling cap.
//
// A `request` that finds every pending cell leased or backing off is
// PARKED (protocol.hpp), not answered with a polling `wait`: the master
// re-evaluates parked requests, oldest first, after every loop iteration
// and answers the moment a cell turns leasable or the grid ends.
//
// Robustness behaviors:
//   - lease expiry (missed heartbeats, worker crash, TCP reset) first
//     RECONCILES FROM DISK: a worker that died after committing its cell
//     file still gets its work counted
//   - duplicate completions (a reassigned cell finished twice) are
//     resolved by the workers' link(2) first-write-wins commit + the
//     master's already-terminal check — never double-counted
//   - SIGTERM drains: stop issuing leases, wait up to drain_seconds for
//     in-flight leases, write a resumable manifest (leased cells stay
//     pending), exit 130
//   - completed grid: failures.csv + final manifest always; aggregate.csv
//     only when every cell is done/resumed (exit 0) — failed cells exit 2.
//     The master exits once no compute peer is connected (monitors do not
//     hold it), or after a 3 s linger for a worker that never asks again
#pragma once

#include <cstdint>
#include <string>

#include "service/protocol.hpp"
#include "sweep/sweep_spec.hpp"

namespace plurality::service {

struct MasterOptions {
  sweep::SweepSpec spec;
  std::string out_dir;  ///< required: the shared filesystem rendezvous
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (see port_file)
  /// Written (atomically) with the bound port once listening — how
  /// workers and tests find an ephemeral port without racing.
  std::string port_file;
  bool resume = false;
  bool force = false;
  std::uint64_t trials_override = 0;  ///< applied before expansion, like run_sweep
  double heartbeat_seconds = kDefaultHeartbeatSeconds;
  /// 0 = kLeaseExpiryHeartbeats * heartbeat_seconds.
  double lease_seconds = 0.0;
  double cell_timeout_seconds = 0.0;  ///< forwarded to workers (watchdog deadline)
  std::uint32_t max_retries = 2;
  double retry_backoff_seconds = 0.05;
  std::uint64_t memory_budget_bytes = 0;  ///< 0 = ~80% of RAM; split across workers
  bool zero_wall_times = false;
  double drain_seconds = 10.0;
  /// Raw fault-plan JSON text forwarded to every worker verbatim (empty =
  /// none). The MASTER runs no cells and injects nothing itself; workers
  /// parse and arm it against the shared out_dir marker files.
  std::string fault_plan_text;
  /// Result cache directory (result_cache.hpp); empty = disabled.
  std::string cache_dir;
  /// Bound on result-cache entries (oldest-mtime trim on store); 0 = never
  /// evict.
  std::uint64_t cache_max_entries = 0;
  bool verbose = true;  ///< progress lines on stderr
  /// > 0: a periodic aggregate progress line on stderr every N seconds
  /// (done/leased/pending cells, summed worker node-updates/s) — readable
  /// on big grids where per-cell completion lines scroll away.
  double progress_seconds = 0.0;
  /// != 0 (or metrics_port_file set): serve the Prometheus text exposition
  /// over HTTP on this port. 0 with a metrics_port_file = ephemeral port,
  /// written to the file like port_file.
  std::uint16_t metrics_port = 0;
  std::string metrics_port_file;
  /// Serve the exposition endpoint (set by the CLI when either
  /// metrics_port or metrics_port_file was given).
  bool serve_metrics = false;
};

/// Runs the master to completion (or drain) and returns the process exit
/// code: kExitComplete / kExitFailedCells / kExitDrained. Throws
/// CheckError for unusable configuration (bad out_dir state, spec skew on
/// resume) and NetError if the listener cannot bind.
int run_master(MasterOptions options);

}  // namespace plurality::service
