// plurality_sweep_worker's engine: connect to a plurality_sweepd master,
// lease cells, run them with the SAME cell runner as the in-process
// orchestrator, and heartbeat while computing.
//
// Per lease: the worker runs exactly ONE attempt (the master owns the
// retry loop and backoff), on a compute thread, while the protocol thread
// heartbeats every heartbeat_seconds. Cell files are committed with the
// link(2) first-write-wins discipline, because an expired lease means a
// sibling worker may be finishing the same cell.
//
// Degradation ladder:
//   - heartbeat answered "expired": the master reassigned this cell.
//     Cancel the compute thread (Reason::kLeaseLost), abandon the attempt
//     — whatever the new holder produces is bitwise what we would have.
//   - master unreachable mid-cell: LOCAL-ORCHESTRATOR MODE. Finish the
//     cell, let the runner commit the checkpoint file, exit kExitOrphaned
//     (3) — the master (restarted or drained) reconciles from disk and
//     the work still counts.
//   - master unreachable while idle: nothing owed; exit 0.
//   - SIGTERM/SIGINT: in-flight cell cancels cooperatively (Interrupted,
//     reported to the master as a clean requeue), exit kExitDrained (130).
#pragma once

#include <cstdint>
#include <string>

#include "service/protocol.hpp"

namespace plurality::service {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = read it from port_file
  /// File the master writes its bound port into; polled until
  /// connect_timeout_seconds so workers can start before the master.
  std::string port_file;
  std::string name;  ///< default "w<pid>"
  double connect_timeout_seconds = 10.0;
  bool verbose = true;
};

/// Runs the worker loop until the master drains it (0), shutdown (130),
/// or the master vanishes mid-cell (3). Also returns 0 at once when the
/// port file says the master already finished the grid (kPortFileComplete).
/// Throws CheckError on unusable configuration and NetError if the master
/// can never be reached.
int run_worker(WorkerOptions options);

}  // namespace plurality::service
