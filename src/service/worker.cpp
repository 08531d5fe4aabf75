#include "service/worker.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/preflight.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::service {

namespace fs = std::filesystem;
using sweep::CellOutcome;
using sweep::CellStatus;

namespace {

/// How often an idle worker whose request the master has parked checks the
/// shutdown flag.
constexpr int kShutdownPollMs = 20;

/// Chunked, shutdown-aware sleep.
void sleep_cooperatively(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() - start < budget) {
    if (sweep::shutdown_requested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

struct Welcome {
  sweep::SweepSpec spec;
  std::string out_dir;
  double heartbeat_seconds = kDefaultHeartbeatSeconds;
  double cell_timeout_seconds = 0.0;
  bool zero_wall_times = false;
  sweep::FaultPlan fault_plan;
};

/// What one lease ended as, from the protocol loop's point of view.
enum class LeaseEnd {
  Reported,   ///< complete sent, ack received
  Abandoned,  ///< lease expired under us; the new holder owns the cell
  Orphaned,   ///< master vanished mid-cell; cell file written locally
};

class Worker {
 public:
  explicit Worker(WorkerOptions options) : opt_(std::move(options)) {}

  int run();

 private:
  void log(const char* message) {
    if (opt_.verbose) {
      std::fprintf(stderr, "[%s] %s\n", opt_.name.c_str(), message);
    }
  }

  [[nodiscard]] std::uint16_t resolve_port();
  [[nodiscard]] bool master_finished() const;
  [[nodiscard]] bool handshake();
  LeaseEnd run_lease(const io::JsonValue& lease, sweep::FaultInjector& injector,
                     sweep::Watchdog& watchdog,
                     const std::vector<scenario::ScenarioSpec>& expanded);
  io::JsonValue exchange(const io::JsonValue& msg);
  std::optional<io::JsonValue> request_lease();

  WorkerOptions opt_;
  net::TcpConnection conn_;
  Welcome welcome_;
};

std::uint16_t Worker::resolve_port() {
  if (opt_.port != 0) return opt_.port;
  PLURALITY_REQUIRE(!opt_.port_file.empty(),
                    "worker: need --port or --port-file to find the master");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt_.connect_timeout_seconds);
  for (;;) {
    if (std::ifstream in(opt_.port_file); in.good()) {
      unsigned port = 0;
      in >> port;
      if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
    }
    PLURALITY_REQUIRE(std::chrono::steady_clock::now() < deadline,
                      "worker: master port file " << opt_.port_file << " never appeared");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// True once the port file carries the master's finished-grid record.
bool Worker::master_finished() const {
  if (opt_.port_file.empty()) return false;
  std::ifstream in(opt_.port_file);
  unsigned port = 0;
  std::string record;
  return static_cast<bool>(in >> port >> record) && record == kPortFileComplete;
}

io::JsonValue Worker::exchange(const io::JsonValue& msg) {
  conn_.send_all(encode(msg), kIoTimeoutSeconds);
  std::string line;
  if (!conn_.recv_line(line, kIoTimeoutSeconds)) {
    throw net::NetError("net recv: master closed the connection");
  }
  return parse_message(line);
}

/// Sends a `request` and awaits its reply, which the master may park for
/// up to kParkSeconds. Meanwhile the shutdown flag is checked every
/// kShutdownPollMs; nullopt means it was raised before the reply came. A
/// reply already on the socket still wins: a lease the master sent must
/// be run (it cancels at once and is requeued as interrupted), never
/// dropped, or it would cost the cell an attempt. Throws NetError like
/// exchange().
std::optional<io::JsonValue> Worker::request_lease() {
  io::JsonValue request = make_message("request");
  request.set("worker", opt_.name);
  conn_.send_all(encode(request), kIoTimeoutSeconds);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kIoTimeoutSeconds);
  std::string line;
  for (;;) {
    if (conn_.take_buffered_line(line)) return parse_message(line);
    if (sweep::shutdown_requested()) {
      if (conn_.fill_from_socket() && conn_.take_buffered_line(line)) {
        return parse_message(line);
      }
      return std::nullopt;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw net::NetError("net recv: timed out waiting for a line");
    }
    pollfd pfd{conn_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, kShutdownPollMs) > 0 && !conn_.fill_from_socket()) {
      if (conn_.take_buffered_line(line)) return parse_message(line);
      throw net::NetError("net recv: master closed the connection");
    }
  }
}

/// Connects and joins the sweep; false if the master had already finished
/// the grid and left (nothing to join).
bool Worker::handshake() {
  // The master may still be binding/reconciling: retry the connect until
  // the deadline rather than failing the first refused attempt. Re-resolve
  // the port each round — a port file left by a DRAINED master names a
  // dead port until the restarted master overwrites it. A FINISHED master
  // marks the file, and there is nothing to wait for.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt_.connect_timeout_seconds);
  for (;;) {
    try {
      conn_ = net::connect_tcp(opt_.host, resolve_port(), 1.0);
      break;
    } catch (const net::NetError&) {
      if (master_finished()) return false;
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  io::JsonValue hello = make_message("hello");
  hello.set("worker", opt_.name);
  const io::JsonValue reply = exchange(hello);
  PLURALITY_REQUIRE(message_type(reply) == "welcome",
                    "worker: expected welcome, got '" << message_type(reply) << "'");
  welcome_.spec = sweep::SweepSpec::from_json(reply.at("sweep"));
  welcome_.out_dir = reply.at("out_dir").as_string();
  welcome_.heartbeat_seconds = reply.at("heartbeat_seconds").as_double();
  welcome_.cell_timeout_seconds = reply.at("cell_timeout_seconds").as_double();
  welcome_.zero_wall_times = reply.at("zero_wall_times").as_bool();
  if (reply.contains("fault_plan")) {
    welcome_.fault_plan = sweep::FaultPlan::from_json(reply.at("fault_plan"));
  }
  log("joined sweep");
  return true;
}

LeaseEnd Worker::run_lease(const io::JsonValue& lease, sweep::FaultInjector& injector,
                           sweep::Watchdog& watchdog,
                           const std::vector<scenario::ScenarioSpec>& expanded) {
  const std::size_t index = static_cast<std::size_t>(lease.at("index").as_uint());
  const std::string& id = lease.at("cell").as_string();
  const std::uint32_t attempt = static_cast<std::uint32_t>(lease.at("attempt").as_uint());
  const std::uint64_t memory_share = lease.at("memory_budget_bytes").as_uint();
  PLURALITY_REQUIRE(index < expanded.size(),
                    "worker: lease for cell index " << index << " outside the grid ("
                                                    << expanded.size() << " cells)");

  CellOutcome cell;
  cell.index = index;
  cell.id = id;
  cell.requested = expanded[index];
  const std::string spec_string = cell.requested.to_spec_string();

  injector.at_lease_start(index, id, spec_string);  // worker_crash fires here

  // Preflight against the PER-WORKER share the master computed (total
  // budget / connected workers): N workers run cells concurrently on one
  // host, so each may only claim its slice.
  const std::uint64_t estimate = sweep::estimate_cell_memory_bytes(cell.requested);
  if (estimate > memory_share) {
    io::JsonValue msg = make_message("complete");
    msg.set("worker", opt_.name);
    msg.set("cell", id);
    msg.set("status", "failed_spec");
    msg.set("attempts", std::uint64_t{attempt});
    msg.set("error", "preflight: estimated peak memory " + sweep::format_bytes(estimate) +
                         " exceeds this worker's share " + sweep::format_bytes(memory_share) +
                         " of the sweep budget (fewer workers or a larger budget)");
    try {
      (void)exchange(msg);
    } catch (const net::NetError&) {
      return LeaseEnd::Orphaned;
    }
    return LeaseEnd::Reported;
  }

  const bool drop_heartbeats = injector.should_drop_heartbeats(index, id, spec_string);
  if (drop_heartbeats) log("fault: heartbeats suppressed for this lease");

  CancellationToken token;
  sweep::CellRunContext ctx;
  ctx.cells_dir = fs::path(welcome_.out_dir) / "cells";
  ctx.observe = welcome_.spec.observe;
  ctx.zero_wall_times = welcome_.zero_wall_times;
  ctx.cell_timeout_seconds = welcome_.cell_timeout_seconds;
  ctx.first_write_wins = true;  // an expired lease means sibling writers exist
  ctx.single_attempt = attempt;
  ctx.token = &token;
  ctx.injector = &injector;
  ctx.watchdog = &watchdog;
  // Workers always feed the process-global registry: the heartbeat's
  // progress block below is read from these same handles.
  ctx.metrics = &obs::MetricsRegistry::global();
  const obs::EngineMetrics em(obs::MetricsRegistry::global());
  // The registry outlives leases, so the previous cell's last trial/round
  // would otherwise leak into this lease's first heartbeats: zero the
  // position gauges before the compute thread starts observing.
  em.current_trial.set(0);
  em.current_round.set(0);
  std::uint64_t last_updates = em.node_updates_total.value();
  auto last_rate_time = std::chrono::steady_clock::now();

  std::future<void> compute =
      std::async(std::launch::async, [&] { run_cell_to_verdict(cell, ctx); });

  // Sleep until the cell completes or the next heartbeat is due, whichever
  // comes first, so a finished cell is reported at once.
  bool orphaned = false;
  bool lease_lost = false;
  bool heartbeating = !drop_heartbeats;
  const auto heartbeat_interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(welcome_.heartbeat_seconds));
  auto last_heartbeat = std::chrono::steady_clock::now();
  while (heartbeating && compute.wait_until(last_heartbeat + heartbeat_interval) !=
                             std::future_status::ready) {
    const auto now = std::chrono::steady_clock::now();
    last_heartbeat = now;
    io::JsonValue hb = make_message("heartbeat");
    hb.set("worker", opt_.name);
    hb.set("cell", id);
    {
      // Live progress, folded into the heartbeat we were sending anyway
      // (version-tolerant: old masters ignore unknown fields). The rate is
      // the node-updates counter delta over the heartbeat interval.
      const std::uint64_t updates = em.node_updates_total.value();
      const double elapsed = std::chrono::duration<double>(now - last_rate_time).count();
      const double rate =
          elapsed > 0 ? static_cast<double>(updates - last_updates) / elapsed : 0.0;
      last_updates = updates;
      last_rate_time = now;
      io::JsonValue& progress = hb.set("progress", io::JsonValue::object());
      progress.set("cell", id);
      progress.set("trial", static_cast<std::uint64_t>(em.current_trial.value()));
      progress.set("round", static_cast<std::uint64_t>(em.current_round.value()));
      progress.set("node_updates_per_sec", rate);
      progress.set("rss_bytes", obs::current_rss_bytes());
    }
    try {
      if (message_type(exchange(hb)) == "expired") {
        // The master reassigned this cell. Stop burning cycles; whatever
        // the new holder commits is bitwise what we would have.
        token.cancel(CancellationToken::Reason::kLeaseLost);
        lease_lost = true;
        heartbeating = false;
        log("lease expired under us; abandoning the attempt");
      }
    } catch (const net::NetError&) {
      // Master vanished mid-cell: LOCAL-ORCHESTRATOR MODE. Finish the
      // cell; the runner commits the checkpoint; a future master
      // reconciles it from disk.
      orphaned = true;
      heartbeating = false;
      log("master unreachable mid-cell; finishing locally");
    } catch (const ProtocolError&) {
      orphaned = true;
      heartbeating = false;
    }
  }
  compute.get();  // waits out the cell when heartbeats stopped early

  if (orphaned) return LeaseEnd::Orphaned;
  if (lease_lost) return LeaseEnd::Abandoned;

  // stall_conn fault: the network path wedges right before the report —
  // the master should expire the lease and survive the late message.
  const double stall = injector.stall_connection_seconds(index, id, spec_string);
  if (stall > 0) sleep_cooperatively(stall);

  io::JsonValue msg = make_message("complete");
  msg.set("worker", opt_.name);
  msg.set("cell", id);
  msg.set("status", sweep::cell_status_name(cell.status));
  msg.set("attempts", std::uint64_t{cell.attempts});
  if (!cell.error.empty()) msg.set("error", cell.error);
  try {
    (void)exchange(msg);
  } catch (const net::NetError&) {
    return LeaseEnd::Orphaned;  // cell file is on disk; the report is lost
  }
  return LeaseEnd::Reported;
}

int Worker::run() {
  if (opt_.name.empty()) opt_.name = "w" + std::to_string(::getpid());
  if (!handshake()) {
    log("master already finished the grid; exiting");
    return kExitComplete;
  }

  const std::vector<scenario::ScenarioSpec> expanded = welcome_.spec.expand();
  sweep::FaultInjector injector(welcome_.fault_plan, welcome_.out_dir);
  sweep::Watchdog watchdog;

  for (;;) {
    if (sweep::shutdown_requested()) {
      log("shutdown requested; leaving");
      return kExitDrained;
    }
    std::optional<io::JsonValue> answered;
    try {
      obs::TraceSpan span("lease_roundtrip", "service", opt_.name);
      answered = request_lease();
    } catch (const net::NetError&) {
      // Master gone while we hold nothing: nothing owed, clean exit.
      log("master unreachable while idle; exiting");
      return kExitComplete;
    }
    if (!answered) {
      // Shutdown while the master held our request: we hold no lease, so
      // closing the connection is the whole goodbye.
      log("shutdown requested while idle; leaving");
      conn_.close();
      return kExitDrained;
    }
    const io::JsonValue& reply = *answered;
    const std::string& type = message_type(reply);
    if (type == "drain") {
      log("drained by master");
      return kExitComplete;
    }
    if (type == "wait") {
      sleep_cooperatively(reply.at("seconds").as_double());
      continue;
    }
    if (type == "lease") {
      switch (run_lease(reply, injector, watchdog, expanded)) {
        case LeaseEnd::Reported:
        case LeaseEnd::Abandoned:
          continue;
        case LeaseEnd::Orphaned:
          return kExitOrphaned;
      }
      continue;
    }
    PLURALITY_REQUIRE(false, "worker: unexpected reply '" << type << "' to a lease request");
  }
}

}  // namespace

int run_worker(WorkerOptions options) { return Worker(std::move(options)).run(); }

}  // namespace plurality::service
