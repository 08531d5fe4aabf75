// Wire protocol of the distributed sweep service (plurality_sweepd +
// plurality_sweep_worker): line-delimited JSON over TCP (net/socket.hpp).
//
// Every message is one compact JSON object terminated by '\n', with a
// required "type" field. The WORKER drives: it sends exactly one message
// and reads exactly one reply, so there is never an unsolicited frame in
// flight and the connection needs no multiplexing. Heartbeats ride the
// same request/response rhythm from the worker's lease thread while a
// separate compute thread runs the cell.
//
//   worker -> master                     master -> worker
//   ----------------                     ----------------
//   hello    {worker}                    welcome {sweep, out_dir, heartbeat_seconds,
//                                                 cell_timeout_seconds, max_retries,
//                                                 zero_wall_times, fault_plan?}
//   request  {worker}                    lease   {cell, index, attempt,
//                                                 memory_budget_bytes}
//                                        drain   {}            no more leases, ever
//                                        wait    {seconds}     keepalive: still nothing
//                                                              leasable after kParkSeconds
//   heartbeat{worker, cell, progress?}   ack     {}            lease still yours
//                                        expired {}            lease reassigned: abandon
//   complete {worker, cell, status,      ack     {}
//             attempts, error?}
//   status   {}                          status  {cells_total, done, failed, pending,
//                                                 leased, workers[], cells[],
//                                                 failures{}, cache?, ...}
//
// A `request` the master cannot answer yet is PARKED: held, unanswered,
// until a cell becomes leasable (completion, revoked or expired lease,
// backoff gate opening: `lease`), the grid finishes or a SIGTERM drain
// starts (`drain`), or kParkSeconds pass (`wait {seconds: 0}`, after which
// the worker asks again). Parked requests are served first come, first
// served. Parking changes only WHEN the one reply comes, never its shape:
// workers that honour `wait` work against either kind of master.
//
// heartbeat.progress (optional, version-tolerant — masters ack heartbeats
// without it, so old workers keep working) is the live telemetry block:
//   {cell, trial, round, node_updates_per_sec, rss_bytes}
// The master aggregates the latest block per leased cell and serves the
// result through the `status` verb (plurality_sweep_top renders it) and
// the --metrics-port text exposition endpoint. `status` needs no hello —
// a monitor client never counts as a worker (it takes no leases and does
// not shrink the per-worker memory share).
//
// Trust discipline: `complete` is a NOTIFICATION, not a data channel.
// Results never cross the wire — workers share the out_dir filesystem, and
// the master re-reads and CRC-verifies the cell file from disk before
// believing anything (sweep/cell_runner.hpp scan_cell_file). A lying or
// half-dead worker can waste a lease, never corrupt the grid.
#pragma once

#include <cstdint>
#include <string>

#include "io/json.hpp"

namespace plurality::service {

/// Heartbeat cadence a master hands to workers unless overridden.
inline constexpr double kDefaultHeartbeatSeconds = 2.0;

/// A lease expires after this many missed heartbeat intervals.
inline constexpr double kLeaseExpiryHeartbeats = 3.0;

/// Deadline on every bounded protocol exchange (send a line / await the
/// matching reply). Long enough for a loaded CI box, short enough that a
/// wedged peer is detected the same minute.
inline constexpr double kIoTimeoutSeconds = 10.0;

/// Longest the master parks a `request` before it answers `wait
/// {seconds: 0}` as a keepalive. A worker thus hears from a live master at
/// least once a second, and a wedged master is still caught by the
/// worker's kIoTimeoutSeconds deadline.
inline constexpr double kParkSeconds = 1.0;
static_assert(kParkSeconds * 4 <= kIoTimeoutSeconds,
              "a parked request must be answered well inside the I/O deadline");

// Exit codes (documented in docs/sweeps.md; CI asserts them).
inline constexpr int kExitComplete = 0;     ///< both: all cells done / clean drain
inline constexpr int kExitFailedCells = 2;  ///< master: grid finished, some cells failed
inline constexpr int kExitOrphaned = 3;     ///< worker: master vanished mid-cell; the
                                            ///< cell file was still written to disk
inline constexpr int kExitDrained = 130;    ///< both: SIGINT/SIGTERM graceful stop

/// Word a master appends to its port file once its grid is finished
/// ("<port> complete"). A worker whose connect is refused and that reads
/// it exits kExitComplete rather than retrying for connect_timeout: the
/// work is done. A drained master leaves the bare port, so its workers
/// keep retrying until a resumed master rewrites the file.
inline constexpr const char* kPortFileComplete = "complete";

/// Malformed frame (not JSON, no "type", wrong field shape). The receiver
/// drops the connection — a peer speaking garbage cannot be reasoned with.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// {"type": t} ready for more fields.
[[nodiscard]] io::JsonValue make_message(const std::string& type);

/// Compact single-line serialization + '\n' — the exact bytes on the wire.
[[nodiscard]] std::string encode(const io::JsonValue& message);

/// Parses one received line; throws ProtocolError unless it is a JSON
/// object with a string "type".
[[nodiscard]] io::JsonValue parse_message(const std::string& line);

/// The message's "type" (parse_message guarantees presence).
[[nodiscard]] const std::string& message_type(const io::JsonValue& message);

}  // namespace plurality::service
