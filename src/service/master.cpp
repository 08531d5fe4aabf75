#include "service/master.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "io/checkpoint.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/result_cache.hpp"
#include "support/check.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/preflight.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::service {

namespace fs = std::filesystem;
using sweep::CellOutcome;
using sweep::CellScan;
using sweep::CellStatus;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One connected peer (worker or monitor).
struct Conn {
  net::TcpConnection tcp;
  std::string worker = "?";
  /// True once the peer has requested a lease — only such peers count
  /// toward the per-worker memory share. A monitor (plurality_sweep_top)
  /// that only polls `status` must not shrink everyone's budget.
  bool compute = false;
  /// > 0 while a `request` is parked: when it gets its keepalive `wait`.
  double park_deadline = 0.0;

  [[nodiscard]] bool parked() const { return park_deadline > 0.0; }
};

/// Latest heartbeat progress block for one leased cell (version-tolerant:
/// old workers send heartbeats without one and `valid` stays false).
struct CellProgress {
  bool valid = false;
  std::uint64_t trial = 0;
  std::uint64_t round = 0;
  double node_updates_per_sec = 0.0;
  std::uint64_t rss_bytes = 0;
  std::string worker;
  double updated = 0.0;  ///< now_s() of the carrying heartbeat
};

/// Lease bookkeeping for one cell (cell results live in CellOutcome).
struct LeaseState {
  bool leased = false;
  std::size_t conn_key = 0;
  std::string holder;
  double expiry = 0.0;         ///< monotonic deadline of the current lease
  double next_eligible = 0.0;  ///< backoff gate for the next lease
  std::uint32_t attempt = 0;   ///< attempt number of the current/last lease
};

CellStatus failure_status_from_name(const std::string& name) {
  if (name == "failed_timeout") return CellStatus::FailedTimeout;
  if (name == "failed_corrupt") return CellStatus::FailedCorrupt;
  if (name == "failed_spec") return CellStatus::FailedSpec;
  return CellStatus::FailedCrash;  // failed_crash and anything unrecognized
}

class Master {
 public:
  explicit Master(MasterOptions options)
      : opt_(std::move(options)),
        cache_(opt_.cache_dir, opt_.spec.observe, opt_.zero_wall_times,
               opt_.cache_max_entries) {}

  int run();

 private:
  void log(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  [[nodiscard]] double lease_length() const {
    return opt_.lease_seconds > 0 ? opt_.lease_seconds
                                  : kLeaseExpiryHeartbeats * opt_.heartbeat_seconds;
  }
  [[nodiscard]] fs::path cell_path(const CellOutcome& cell) const {
    return cells_dir_ / (cell.id + ".json");
  }
  [[nodiscard]] double backoff_seconds(const CellOutcome& cell, std::uint32_t attempt) const {
    const double jitter =
        static_cast<double>(sweep::retry_stream_word(cell.requested.seed, attempt, 1) %
                            1000) /
        1000.0;
    const std::uint32_t doublings = attempt - 1 < 20 ? attempt - 1 : 20;
    return opt_.retry_backoff_seconds *
           static_cast<double>(std::uint64_t{1} << doublings) * (1.0 + jitter);
  }

  void prepare_out_dir();
  void reconcile_from_disk();
  void mark_done(std::size_t i, const char* how);
  void mark_terminal(std::size_t i, CellStatus status, const std::string& error);
  void revoke_lease(std::size_t i, const char* why);
  [[nodiscard]] std::size_t pending_count() const;
  [[nodiscard]] std::size_t leased_count() const;
  void write_outputs(bool allow_aggregate);

  io::JsonValue welcome_message();
  std::optional<io::JsonValue> lease_reply(std::size_t conn_key, const std::string& worker);
  std::optional<io::JsonValue> handle_message(std::size_t conn_key, const io::JsonValue& msg);
  void serve_parked();
  [[nodiscard]] int poll_timeout_ms() const;
  void drop_conn(std::size_t key);
  void handle_complete(std::size_t conn_key, const io::JsonValue& msg);
  io::JsonValue status_reply();
  [[nodiscard]] std::size_t compute_conn_count() const;
  void serve_metrics_scrape(net::TcpConnection scrape);
  [[nodiscard]] std::string exposition_text();
  void maybe_print_progress(double now);

  MasterOptions opt_;
  ResultCache cache_;
  std::vector<CellOutcome> cells_;
  std::vector<LeaseState> leases_;
  std::vector<CellProgress> progress_;
  std::unordered_map<std::string, std::size_t> index_by_id_;
  fs::path cells_dir_;
  fs::path quarantine_dir_;
  fs::path manifest_;
  std::map<std::size_t, Conn> conns_;
  /// Keys of the connections whose `request` is parked, oldest first.
  std::deque<std::size_t> parked_;
  std::size_t done_count_ = 0;  // done + resumed + failed (progress display)
  bool draining_ = false;
  /// Master-side registry behind the exposition endpoint (per-master, not
  /// the process global: in-process tests run several masters).
  obs::MetricsRegistry registry_;
  double last_progress_line_ = 0.0;
};

void Master::log(const char* fmt, ...) {
  if (!opt_.verbose) return;
  std::fprintf(stderr, "[sweepd] ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

void Master::prepare_out_dir() {
  PLURALITY_REQUIRE(!opt_.out_dir.empty(), "sweepd: --out is required (workers share it)");
  const fs::path dir(opt_.out_dir);
  cells_dir_ = dir / "cells";
  quarantine_dir_ = cells_dir_ / "quarantine";
  fs::create_directories(cells_dir_);
  manifest_ = dir / "manifest.json";
  const std::string sweep_json = opt_.spec.to_json().to_string();
  if (fs::exists(manifest_)) {
    if (opt_.resume) {
      const io::JsonValue stored = io::read_checkpoint_file(manifest_.string());
      PLURALITY_REQUIRE(stored.at("sweep").to_string() == sweep_json,
                        "sweep: manifest at " << manifest_.string()
                            << " records a DIFFERENT sweep (spec or trial override "
                               "changed); refusing to resume a mixed grid — use a "
                               "fresh out_dir");
    } else {
      PLURALITY_REQUIRE(opt_.force,
                        "sweep: " << manifest_.string()
                            << " already exists; pass resume to continue that sweep "
                               "or force to start over (cell files get overwritten)");
    }
  }
  if (fs::exists(manifest_) && !opt_.resume) {
    // Fresh (force) start: delete stale cell files. Workers commit with
    // link(2) first-write-wins, which would otherwise PRESERVE the old
    // results instead of recomputing them (rename overwrites; link does
    // not).
    for (const CellOutcome& cell : cells_) {
      std::error_code ec;
      fs::remove(cell_path(cell), ec);
      fs::remove(sweep::ledger_path(cells_dir_, cell.id), ec);
    }
  }
  sweep::remove_stray_tmp_files(dir);
  sweep::remove_stray_tmp_files(cells_dir_);
  io::write_checkpoint_file(manifest_.string(), sweep::manifest_to_json(opt_.spec, cells_));
}

void Master::reconcile_from_disk() {
  const std::uint64_t budget = opt_.memory_budget_bytes > 0
                                   ? opt_.memory_budget_bytes
                                   : sweep::default_memory_budget_bytes();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellOutcome& cell = cells_[i];
    if (opt_.resume &&
        sweep::scan_cell_file(cell_path(cell), quarantine_dir_, cell) == CellScan::Trusted) {
      cell.status = CellStatus::Resumed;
      cell.resumed = true;
      fs::remove(sweep::ledger_path(cells_dir_, cell.id));  // stale crash ledger
      ++done_count_;
      continue;
    }
    // Result cache: a hit installs the payload as this cell's checkpoint
    // file, then earns trust through the SAME disk-scan path as any other
    // result — the cache never bypasses CRC verification.
    if (cache_.fetch(cell, cell_path(cell)) &&
        sweep::scan_cell_file(cell_path(cell), quarantine_dir_, cell) == CellScan::Trusted) {
      cell.status = CellStatus::Resumed;
      cell.resumed = true;
      fs::remove(sweep::ledger_path(cells_dir_, cell.id));
      ++done_count_;
      log("%s satisfied from result cache", cell.id.c_str());
      continue;
    }
    const std::uint64_t estimate = sweep::estimate_cell_memory_bytes(cell.requested);
    if (estimate > budget) {
      mark_terminal(i, CellStatus::FailedSpec,
                    "preflight: estimated peak memory " + sweep::format_bytes(estimate) +
                        " exceeds the sweep budget " + sweep::format_bytes(budget) +
                        " (raise memory_budget_bytes or shrink the cell)");
    }
  }
}

void Master::mark_done(std::size_t i, const char* how) {
  CellOutcome& cell = cells_[i];
  cell.status = CellStatus::Done;
  cell.error.clear();
  if (cell.attempts < leases_[i].attempt) cell.attempts = leases_[i].attempt;
  fs::remove(sweep::ledger_path(cells_dir_, cell.id));  // its story is over
  cache_.store(cell, cell_path(cell));
  ++done_count_;
  log("%s done (%s) [%zu/%zu]", cell.id.c_str(), how, done_count_, cells_.size());
}

void Master::mark_terminal(std::size_t i, CellStatus status, const std::string& error) {
  CellOutcome& cell = cells_[i];
  cell.status = status;
  cell.error = error;
  if (cell.attempts < leases_[i].attempt) cell.attempts = leases_[i].attempt;
  if (cell.attempts > 1) {
    cell.retry_tag = sweep::retry_tag_hex(cell.requested.seed, cell.attempts);
  }
  fs::remove(sweep::ledger_path(cells_dir_, cell.id));  // a future resume starts fresh
  ++done_count_;
  log("%s %s: %s [%zu/%zu]", cell.id.c_str(), sweep::cell_status_name(status),
      error.c_str(), done_count_, cells_.size());
}

/// A lease died (missed heartbeats / connection loss). Reconcile from disk
/// FIRST — a worker that committed its cell file and then died still did
/// the work — otherwise requeue with backoff, or close the budget.
void Master::revoke_lease(std::size_t i, const char* why) {
  LeaseState& st = leases_[i];
  CellOutcome& cell = cells_[i];
  st.leased = false;
  if (cell.status != CellStatus::Pending) return;
  log("%s lease (attempt %u, worker %s) revoked: %s", cell.id.c_str(), st.attempt,
      st.holder.c_str(), why);
  if (sweep::scan_cell_file(cell_path(cell), quarantine_dir_, cell) == CellScan::Trusted) {
    mark_done(i, "reconciled from disk after lease loss");
    return;
  }
  if (st.attempt > opt_.max_retries) {
    mark_terminal(i, CellStatus::FailedCrash,
                  "lease lost during " + std::to_string(st.attempt) +
                      " attempt(s) (" + why + "); retry budget exhausted");
    return;
  }
  st.next_eligible = now_s() + backoff_seconds(cell, st.attempt);
}

std::size_t Master::pending_count() const {
  std::size_t n = 0;
  for (const CellOutcome& cell : cells_) {
    if (cell.status == CellStatus::Pending) ++n;
  }
  return n;
}

std::size_t Master::leased_count() const {
  std::size_t n = 0;
  for (const LeaseState& st : leases_) {
    if (st.leased) ++n;
  }
  return n;
}

std::size_t Master::compute_conn_count() const {
  // Peers that have requested a lease (every current holder has). Monitors
  // never request, so they never dilute the share.
  std::size_t n = 0;
  for (const auto& [key, conn] : conns_) {
    if (conn.compute) ++n;
  }
  return n;
}

void Master::write_outputs(bool allow_aggregate) {
  // Prune ledgers whose cells reached a clean verdict (covers workers that
  // died between committing the cell file and removing their ledger).
  for (const CellOutcome& cell : cells_) {
    if (cell.status == CellStatus::Done || cell.status == CellStatus::Resumed) {
      fs::remove(sweep::ledger_path(cells_dir_, cell.id));
    }
  }
  sweep::write_failures_csv((fs::path(opt_.out_dir) / "failures.csv").string(), cells_);
  io::write_checkpoint_file(manifest_.string(), sweep::manifest_to_json(opt_.spec, cells_));
  bool complete = true;
  for (const CellOutcome& cell : cells_) {
    if (cell.status != CellStatus::Done && cell.status != CellStatus::Resumed) {
      complete = false;
      break;
    }
  }
  if (allow_aggregate && complete) {
    sweep::write_aggregate_csv((fs::path(opt_.out_dir) / "aggregate.csv").string(),
                               opt_.spec, cells_, opt_.zero_wall_times);
    log("aggregate.csv written (%zu cells)", cells_.size());
  }
}

io::JsonValue Master::welcome_message() {
  io::JsonValue msg = make_message("welcome");
  msg.set("sweep", opt_.spec.to_json());
  msg.set("out_dir", opt_.out_dir);
  msg.set("heartbeat_seconds", opt_.heartbeat_seconds);
  msg.set("cell_timeout_seconds", opt_.cell_timeout_seconds);
  msg.set("max_retries", std::uint64_t{opt_.max_retries});
  msg.set("zero_wall_times", opt_.zero_wall_times);
  if (!opt_.fault_plan_text.empty()) {
    msg.set("fault_plan", io::parse_json(opt_.fault_plan_text));
  }
  return msg;
}

/// A `lease` for the first leasable cell, or `drain` once no cell will
/// ever be leased again; nullopt while every pending cell is leased or
/// backing off (the caller parks the request).
std::optional<io::JsonValue> Master::lease_reply(std::size_t conn_key,
                                                 const std::string& worker) {
  if (draining_) return make_message("drain");
  const double now = now_s();
  const std::uint64_t budget = opt_.memory_budget_bytes > 0
                                   ? opt_.memory_budget_bytes
                                   : sweep::default_memory_budget_bytes();
  // Preflight share: the budget is a HOST property, divided across the
  // workers that will run cells concurrently on it — i.e. peers that hold
  // or request leases, NOT every open connection (an idle monitor like
  // plurality_sweep_top must not shrink everyone's budget).
  const std::uint64_t share =
      budget / std::max<std::uint64_t>(1, static_cast<std::uint64_t>(compute_conn_count()));

  bool any_pending = false;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellOutcome& cell = cells_[i];
    LeaseState& st = leases_[i];
    if (cell.status != CellStatus::Pending) continue;
    any_pending = true;
    if (st.leased || now < st.next_eligible) continue;
    // The shared ledger is the cross-process attempts truth: a cell that
    // burned its budget killing OTHER workers must not run again.
    const std::uint32_t prior =
        std::max(sweep::read_attempts_ledger(sweep::ledger_path(cells_dir_, cell.id)),
                 st.attempt);
    if (prior > opt_.max_retries) {
      mark_terminal(i, CellStatus::FailedCrash,
                    "process died during " + std::to_string(prior) +
                        " attempt(s) (attempts ledger); retry budget exhausted");
      continue;
    }
    st.leased = true;
    st.conn_key = conn_key;
    st.holder = worker;
    st.attempt = prior + 1;
    st.expiry = now + lease_length();
    progress_[i] = CellProgress{};  // a new lease starts with a clean block
    io::JsonValue msg = make_message("lease");
    msg.set("cell", cell.id);
    msg.set("index", std::uint64_t{cell.index});
    msg.set("attempt", std::uint64_t{st.attempt});
    msg.set("memory_budget_bytes", share);
    log("%s leased to %s (attempt %u)", cell.id.c_str(), worker.c_str(), st.attempt);
    return msg;
  }
  if (!any_pending) return make_message("drain");  // grid finished
  return std::nullopt;
}

/// Answers parked requests, oldest first: a `lease` or `drain` as soon as
/// one is due, else a keepalive `wait {seconds: 0}` once kParkSeconds have
/// passed.
void Master::serve_parked() {
  const double now = now_s();
  std::vector<std::size_t> dead;
  for (auto it = parked_.begin(); it != parked_.end();) {
    Conn& conn = conns_.at(*it);
    std::optional<io::JsonValue> reply = lease_reply(*it, conn.worker);
    if (!reply && now < conn.park_deadline) {
      ++it;
      continue;
    }
    if (!reply) {
      reply = make_message("wait");
      reply->set("seconds", 0.0);
    }
    conn.park_deadline = 0.0;
    try {
      conn.tcp.send_all(encode(*reply), kIoTimeoutSeconds);
    } catch (const net::NetError& e) {
      log("worker %s connection failed: %s", conn.worker.c_str(), e.what());
      dead.push_back(*it);
    }
    it = parked_.erase(it);
  }
  for (const std::size_t key : dead) drop_conn(key);
}

/// How long the poll may sleep: at most 100 ms, and while a request is
/// parked, no later than the moment it could be answered (a backoff gate
/// opening, a lease expiring, or its keepalive deadline).
int Master::poll_timeout_ms() const {
  const double now = now_s();
  double wake = now + 0.1;
  if (!parked_.empty()) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].status != CellStatus::Pending) continue;
      wake = std::min(wake, leases_[i].leased ? leases_[i].expiry : leases_[i].next_eligible);
    }
    for (const std::size_t key : parked_) {
      wake = std::min(wake, conns_.at(key).park_deadline);
    }
  }
  return static_cast<int>(std::clamp(std::ceil((wake - now) * 1000.0), 0.0, 100.0));
}

void Master::handle_complete(std::size_t conn_key, const io::JsonValue& msg) {
  const std::string& id = msg.at("cell").as_string();
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end()) return;  // unknown cell: ack and ignore
  const std::size_t i = it->second;
  CellOutcome& cell = cells_[i];
  LeaseState& st = leases_[i];
  const bool was_holder = st.leased && st.conn_key == conn_key;
  if (was_holder) st.leased = false;

  // Already terminal: a reassigned cell finished twice. The first verdict
  // stands (and first-write-wins already reconciled the files) — never
  // count it again.
  if (cell.status != CellStatus::Pending) return;

  const std::string status = msg.at("status").as_string();
  const std::uint32_t attempts = msg.contains("attempts")
                                     ? static_cast<std::uint32_t>(msg.at("attempts").as_uint())
                                     : st.attempt;
  if (attempts > st.attempt) st.attempt = attempts;

  // NEVER trust the message: the disk is the result channel, and only a
  // CRC-verified checkpoint that matches this cell's spec counts.
  if (sweep::scan_cell_file(cell_path(cell), quarantine_dir_, cell) == CellScan::Trusted) {
    if (cell.attempts < attempts) {
      cell.attempts = attempts;
      if (attempts > 1) cell.retry_tag = sweep::retry_tag_hex(cell.requested.seed, attempts);
    }
    mark_done(i, "completed");
    return;
  }

  const std::string error =
      msg.contains("error") ? msg.at("error").as_string() : ("worker reported " + status);
  if (status == "interrupted") {
    // The worker was asked to shut down mid-lease — a clean cancellation,
    // not a crash. Re-lease immediately, no attempt burned.
    st.next_eligible = now_s();
    log("%s interrupted by worker shutdown; requeued", cell.id.c_str());
    return;
  }
  if (status == "failed_spec") {
    // Deterministic spec/validation failure: retrying re-proves it.
    mark_terminal(i, CellStatus::FailedSpec, error);
    return;
  }
  cell.error = error;
  if (attempts > opt_.max_retries) {
    mark_terminal(i, failure_status_from_name(status), error);
    return;
  }
  st.next_eligible = now_s() + backoff_seconds(cell, attempts);
  log("%s attempt %u %s: %s (requeued)", cell.id.c_str(), attempts, status.c_str(),
      error.c_str());
}

/// The reply to one message, or nullopt for a `request` (parked until
/// serve_parked() answers it).
std::optional<io::JsonValue> Master::handle_message(std::size_t conn_key,
                                                    const io::JsonValue& msg) {
  const std::string& type = message_type(msg);
  Conn& conn = conns_.at(conn_key);
  if (type == "hello") {
    if (msg.contains("worker")) conn.worker = msg.at("worker").as_string();
    log("worker %s connected (%zu total)", conn.worker.c_str(), conns_.size());
    return welcome_message();
  }
  if (type == "request") {
    conn.compute = true;  // a lease-taking worker, not a monitor
    // Every request queues; serve_parked() answers it at the top of the
    // next loop iteration, after any that were parked before it.
    conn.park_deadline = now_s() + kParkSeconds;
    parked_.push_back(conn_key);
    return std::nullopt;
  }
  if (type == "heartbeat") {
    const std::string& id = msg.at("cell").as_string();
    const auto it = index_by_id_.find(id);
    if (it != index_by_id_.end()) {
      LeaseState& st = leases_[it->second];
      if (st.leased && st.conn_key == conn_key) {
        st.expiry = now_s() + lease_length();
        // Optional live-progress block (newer workers). Absence is fine —
        // the heartbeat still renews the lease (version tolerance).
        if (const io::JsonValue* prog = msg.get("progress")) {
          CellProgress& p = progress_[it->second];
          p.valid = true;
          p.trial = prog->contains("trial") ? prog->at("trial").as_uint() : 0;
          p.round = prog->contains("round") ? prog->at("round").as_uint() : 0;
          p.node_updates_per_sec = prog->contains("node_updates_per_sec")
                                       ? prog->at("node_updates_per_sec").as_double()
                                       : 0.0;
          p.rss_bytes = prog->contains("rss_bytes") ? prog->at("rss_bytes").as_uint() : 0;
          p.worker = conn.worker;
          p.updated = now_s();
        }
        return make_message("ack");
      }
    }
    // Not the holder (lease expired and was reassigned, or the cell is
    // already terminal): tell the worker to abandon the attempt.
    return make_message("expired");
  }
  if (type == "complete") {
    handle_complete(conn_key, msg);
    return make_message("ack");
  }
  if (type == "status") {
    return status_reply();
  }
  throw ProtocolError("protocol: unexpected message type '" + type + "' from worker");
}

io::JsonValue Master::status_reply() {
  const double now = now_s();
  io::JsonValue msg = make_message("status");
  msg.set("cells_total", std::uint64_t{cells_.size()});

  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t pending = 0;
  io::JsonValue failures = io::JsonValue::object();
  std::map<std::string, std::uint64_t> failure_counts;
  for (const CellOutcome& cell : cells_) {
    if (cell.status == CellStatus::Done || cell.status == CellStatus::Resumed) {
      ++done;
    } else if (sweep::cell_status_failed(cell.status)) {
      ++failed;
      ++failure_counts[sweep::cell_status_name(cell.status)];
    } else {
      ++pending;
    }
  }
  msg.set("done", done);
  msg.set("failed", failed);
  msg.set("pending", pending);
  msg.set("leased", std::uint64_t{leased_count()});
  msg.set("draining", draining_);
  for (const auto& [name, count] : failure_counts) failures.set(name, count);
  msg.set("failures", std::move(failures));

  // Workers table: lease count per connected compute peer.
  io::JsonValue workers = io::JsonValue::array();
  for (const auto& [key, conn] : conns_) {
    if (!conn.compute) continue;
    std::uint64_t held = 0;
    for (const LeaseState& st : leases_) {
      if (st.leased && st.conn_key == key) ++held;
    }
    io::JsonValue w = io::JsonValue::object();
    w.set("worker", conn.worker);
    w.set("leases", held);
    w.set("parked", conn.parked());
    workers.push(std::move(w));
  }
  msg.set("workers", std::move(workers));

  // Per-cell live table: every leased cell, with its latest heartbeat
  // progress block when the holder sends one.
  double total_rate = 0.0;
  io::JsonValue cell_rows = io::JsonValue::array();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const LeaseState& st = leases_[i];
    if (!st.leased) continue;
    io::JsonValue row = io::JsonValue::object();
    row.set("cell", cells_[i].id);
    row.set("index", std::uint64_t{cells_[i].index});
    row.set("worker", st.holder);
    row.set("attempt", std::uint64_t{st.attempt});
    const CellProgress& p = progress_[i];
    if (p.valid) {
      row.set("trial", p.trial);
      row.set("round", p.round);
      row.set("node_updates_per_sec", p.node_updates_per_sec);
      row.set("rss_bytes", p.rss_bytes);
      row.set("progress_age_seconds", now - p.updated);
      total_rate += p.node_updates_per_sec;
    }
    cell_rows.push(std::move(row));
  }
  msg.set("cells", std::move(cell_rows));
  msg.set("node_updates_per_sec", total_rate);

  if (cache_.enabled()) {
    io::JsonValue cache = io::JsonValue::object();
    cache.set("hits", cache_.stats().hits);
    cache.set("misses", cache_.stats().misses);
    cache.set("evictions", cache_.stats().evictions);
    msg.set("cache", std::move(cache));
  }
  return msg;
}

std::string Master::exposition_text() {
  // Refresh the registry from the cell table, then render. Counter-typed
  // families advance by delta (a Counter only adds); everything here runs
  // on the master's single thread.
  const io::JsonValue status = status_reply();
  auto set_gauge = [&](const char* name, const char* help, double v) {
    registry_.gauge(name, help).set(v);
  };
  set_gauge("sweepd_cells_total", "Cells in the grid",
            static_cast<double>(status.at("cells_total").as_uint()));
  set_gauge("sweepd_cells_done", "Cells done or resumed",
            static_cast<double>(status.at("done").as_uint()));
  set_gauge("sweepd_cells_failed", "Cells with a terminal failed_* verdict",
            static_cast<double>(status.at("failed").as_uint()));
  set_gauge("sweepd_cells_pending", "Cells not yet done or failed",
            static_cast<double>(status.at("pending").as_uint()));
  set_gauge("sweepd_cells_leased", "Cells currently leased",
            static_cast<double>(status.at("leased").as_uint()));
  set_gauge("sweepd_workers_connected", "Connected compute workers",
            static_cast<double>(status.at("workers").size()));
  set_gauge("sweepd_workers_parked", "Compute workers whose lease request is parked",
            static_cast<double>(parked_.size()));
  set_gauge("sweepd_node_updates_per_sec",
            "Summed node-updates/s over the latest worker heartbeats",
            status.at("node_updates_per_sec").as_double());
  if (cache_.enabled()) {
    auto set_counter = [&](const char* name, const char* help, std::uint64_t v) {
      obs::Counter& c = registry_.counter(name, help);
      c.add(v - c.value());
    };
    set_counter("sweepd_cache_hits_total", "Result-cache hits", cache_.stats().hits);
    set_counter("sweepd_cache_misses_total", "Result-cache misses", cache_.stats().misses);
    set_counter("sweepd_cache_evictions_total", "Result-cache evictions",
                cache_.stats().evictions);
  }
  // Per-cell series are rebuilt from the live status table on every scrape
  // rather than registered: a registry entry would outlive its lease,
  // reporting finished/revoked cells as live work forever and growing the
  // series set with the grid.
  obs::MetricsSnapshot snap = registry_.snapshot();
  const auto push_cell_gauge = [&snap](const char* name, const char* help,
                                       const std::string& cell, double v) {
    obs::MetricSample s;
    s.name = name;
    s.help = help;
    s.labels = {{"cell", cell}};
    s.kind = obs::MetricSample::Kind::Gauge;
    s.gauge = v;
    snap.samples.push_back(std::move(s));
  };
  const io::JsonValue& rows = status.at("cells");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const io::JsonValue& row = rows.item(r);
    if (!row.contains("round")) continue;
    const std::string& cell = row.at("cell").as_string();
    push_cell_gauge("sweepd_cell_round", "Latest reported round of a leased cell", cell,
                    static_cast<double>(row.at("round").as_uint()));
    push_cell_gauge("sweepd_cell_node_updates_per_sec",
                    "Latest reported node-updates/s of a leased cell", cell,
                    row.at("node_updates_per_sec").as_double());
  }
  return snap.to_exposition_text();
}

/// Minimal HTTP/1.0 exposition endpoint: read the request line, answer
/// with text/plain, close. Enough for curl / python urllib / Prometheus.
///
/// Scrapes are served synchronously on the lease loop's thread, so each
/// one gets a SMALL I/O budget (far below the lease expiry) and the loop
/// applies queued heartbeats before its expiry check — a slow or stalled
/// scraper drops its scrape, never a healthy worker's lease.
void Master::serve_metrics_scrape(net::TcpConnection scrape) {
  constexpr double kScrapeRecvSeconds = 0.25;
  constexpr double kScrapeSendSeconds = 1.0;
  try {
    std::string request_line;
    (void)scrape.recv_line(request_line, kScrapeRecvSeconds);
    const std::string body = exposition_text();
    std::string response = "HTTP/1.0 200 OK\r\n";
    response += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
    response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    response += "Connection: close\r\n\r\n";
    response += body;
    scrape.send_all(response, kScrapeSendSeconds);
  } catch (const net::NetError&) {
    // A slow or vanished scraper is its own problem, never the sweep's.
  }
  scrape.close();
}

void Master::maybe_print_progress(double now) {
  if (opt_.progress_seconds <= 0) return;
  if (now - last_progress_line_ < opt_.progress_seconds) return;
  last_progress_line_ = now;
  double total_rate = 0.0;
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].leased && progress_[i].valid) {
      total_rate += progress_[i].node_updates_per_sec;
    }
  }
  std::size_t failed = 0;
  for (const CellOutcome& cell : cells_) {
    if (sweep::cell_status_failed(cell.status)) ++failed;
  }
  std::fprintf(stderr,
               "[sweepd] %zu/%zu done, %zu leased, %zu pending, %zu failed | "
               "%zu worker(s) | %.3g node-upd/s\n",
               done_count_, cells_.size(), leased_count(), pending_count(), failed,
               compute_conn_count(), total_rate);
}

void Master::drop_conn(std::size_t key) {
  const std::string worker = conns_.at(key).worker;
  const bool compute = conns_.at(key).compute;
  conns_.erase(key);
  parked_.erase(std::remove(parked_.begin(), parked_.end(), key), parked_.end());
  // A dead connection kills its leases NOW (worker crash / TCP reset) — no
  // reason to wait out the heartbeat budget.
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].leased && leases_[i].conn_key == key) {
      revoke_lease(i, "connection lost");
    }
  }
  // Monitors (status-only connections) come and go constantly; only
  // compute peers are worth a log line.
  if (compute || worker != "?") {
    log("worker %s disconnected (%zu left)", worker.c_str(), conns_.size());
  }
}

int Master::run() {
  // Effective spec: trials_override applies BEFORE expansion, exactly like
  // run_sweep, so resume matching and worker-side expansion see one grid.
  if (opt_.trials_override > 0) {
    for (const sweep::SweepAxis& axis : opt_.spec.axes) {
      PLURALITY_REQUIRE(axis.field != "trials",
                        "sweep: trials_override cannot combine with a 'trials' axis");
    }
    opt_.spec.base.trials = opt_.trials_override;
  }
  const std::vector<scenario::ScenarioSpec> expanded = opt_.spec.expand();
  cells_.resize(expanded.size());
  leases_.resize(expanded.size());
  progress_.resize(expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    cells_[i].index = i;
    cells_[i].id = sweep::cell_id(i);
    cells_[i].requested = expanded[i];
    index_by_id_[cells_[i].id] = i;
  }

  prepare_out_dir();
  reconcile_from_disk();
  log("grid: %zu cells, %zu already satisfied", cells_.size(), done_count_);

  net::TcpListener listener(opt_.host, opt_.port);
  if (!opt_.port_file.empty()) {
    io::atomic_write_text(opt_.port_file, std::to_string(listener.port()) + "\n");
  }
  log("listening on %s:%u (lease %.3gs, heartbeat %.3gs)", opt_.host.c_str(),
      static_cast<unsigned>(listener.port()), lease_length(), opt_.heartbeat_seconds);

  std::unique_ptr<net::TcpListener> metrics_listener;
  if (opt_.serve_metrics) {
    metrics_listener = std::make_unique<net::TcpListener>(opt_.host, opt_.metrics_port);
    if (!opt_.metrics_port_file.empty()) {
      io::atomic_write_text(opt_.metrics_port_file,
                            std::to_string(metrics_listener->port()) + "\n");
    }
    log("metrics exposition on %s:%u", opt_.host.c_str(),
        static_cast<unsigned>(metrics_listener->port()));
  }

  std::size_t next_conn_key = 1;
  double drain_deadline = 0.0;
  bool finished = false;
  double linger_deadline = 0.0;

  for (;;) {
    const double now = now_s();

    if (!draining_ && !finished && sweep::shutdown_requested()) {
      draining_ = true;
      drain_deadline = now + opt_.drain_seconds;
      log("drain requested: no new leases; waiting up to %.3gs for %zu in-flight lease(s)",
          opt_.drain_seconds, leased_count());
    }

    // Re-evaluate parked requests now that the last iteration's messages
    // are handled and its stale leases expired: a completion, a revoked
    // lease, an opening backoff gate, the grid's end or a drain answers
    // them here.
    serve_parked();

    if (draining_) {
      if (leased_count() == 0 || now >= drain_deadline) {
        // One last disk reconcile: a worker that committed during the
        // drain window but could not report still counts.
        for (std::size_t i = 0; i < cells_.size(); ++i) {
          if (cells_[i].status != CellStatus::Pending) continue;
          if (sweep::scan_cell_file(cell_path(cells_[i]), quarantine_dir_, cells_[i]) ==
              CellScan::Trusted) {
            mark_done(i, "reconciled from disk at drain");
          }
        }
        write_outputs(/*allow_aggregate=*/true);
        log("drained; out_dir is resumable (exit %d)", kExitDrained);
        return kExitDrained;
      }
    } else if (!finished && pending_count() == 0) {
      write_outputs(/*allow_aggregate=*/true);
      finished = true;
      if (!opt_.port_file.empty()) {
        io::atomic_write_text(opt_.port_file, std::to_string(listener.port()) + " " +
                                                  kPortFileComplete + "\n");
      }
      // Parked workers already heard "drain"; the rest hear it on their
      // next request. The linger waits only for compute peers to leave (a
      // monitor never would), and gives up on one that never asks again.
      linger_deadline = now + 3.0;
      log("grid finished: %zu done, lingering to release workers", done_count_);
    }
    if (finished && (compute_conn_count() == 0 || now >= linger_deadline)) {
      std::size_t failed = 0;
      for (const CellOutcome& cell : cells_) {
        if (sweep::cell_status_failed(cell.status)) ++failed;
      }
      return failed > 0 ? kExitFailedCells : kExitComplete;
    }

    maybe_print_progress(now);

    // --- poll listeners + workers ------------------------------------
    std::vector<pollfd> fds;
    std::vector<std::size_t> keys;
    fds.push_back({listener.fd(), POLLIN, 0});
    std::size_t first_conn = 1;
    if (metrics_listener != nullptr) {
      fds.push_back({metrics_listener->fd(), POLLIN, 0});
      first_conn = 2;
    }
    for (auto& [key, conn] : conns_) {
      fds.push_back({conn.tcp.fd(), POLLIN, 0});
      keys.push_back(key);
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flags
      PLURALITY_REQUIRE(false, "sweepd: poll failed: " << std::strerror(errno));
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        net::TcpConnection accepted = listener.accept_nonblocking();
        if (!accepted.valid()) break;
        conns_.emplace(next_conn_key++, Conn{std::move(accepted), "?"});
      }
    }
    if (metrics_listener != nullptr && (fds[1].revents & POLLIN)) {
      for (;;) {
        net::TcpConnection scrape = metrics_listener->accept_nonblocking();
        if (!scrape.valid()) break;
        serve_metrics_scrape(std::move(scrape));
      }
    }

    std::vector<std::size_t> dead;
    for (std::size_t f = first_conn; f < fds.size(); ++f) {
      const std::size_t key = keys[f - first_conn];
      if (!(fds[f].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns_.at(key);
      bool alive = true;
      try {
        alive = conn.tcp.fill_from_socket();
        std::string line;
        while (alive && conn.tcp.take_buffered_line(line)) {
          if (conn.parked()) {
            throw ProtocolError("protocol: message sent while a request awaits its reply");
          }
          const std::optional<io::JsonValue> reply = handle_message(key, parse_message(line));
          if (reply) conn.tcp.send_all(encode(*reply), kIoTimeoutSeconds);
        }
      } catch (const ProtocolError& e) {
        log("worker %s dropped: %s", conn.worker.c_str(), e.what());
        alive = false;
      } catch (const net::NetError& e) {
        log("worker %s connection failed: %s", conn.worker.c_str(), e.what());
        alive = false;
      }
      if (!alive) dead.push_back(key);
    }
    for (const std::size_t key : dead) drop_conn(key);

    // Expire stale leases (missed heartbeats / silent worker death) LAST,
    // on a fresh clock: any heartbeat queued while this iteration was busy
    // (a stalled metrics scrape, a burst of completions) has been applied
    // above and has already renewed its lease.
    const double expiry_now = now_s();
    for (std::size_t i = 0; i < leases_.size(); ++i) {
      if (leases_[i].leased && expiry_now >= leases_[i].expiry) {
        revoke_lease(i, "missed heartbeats");
      }
    }
  }
}

}  // namespace

int run_master(MasterOptions options) { return Master(std::move(options)).run(); }

}  // namespace plurality::service
