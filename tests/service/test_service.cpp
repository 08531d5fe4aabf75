// End-to-end contracts for the sweep service: master + workers produce
// BITWISE the orchestrator's artifacts, leases survive worker crashes and
// silent stalls, attempts continue across holders via the shared ledger,
// duplicate completions never double-count, SIGTERM drains to a
// resumable out_dir (exit 130), and a lease request the master cannot
// answer yet is parked until a lease, a drain or a keepalive wait.
//
// The master runs in-process on a thread; "crashing" workers are raw TCP
// clients speaking the wire protocol (a dropped connection IS what a
// SIGKILLed worker looks like to the master). Real multi-process coverage
// — actual plurality_sweepd / plurality_sweep_worker binaries under
// SIGKILL — lives in the CI service smoke/torture jobs.
#include "service/master.hpp"
#include "service/protocol.hpp"
#include "service/worker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "io/checkpoint.hpp"
#include "net/socket.hpp"
#include "support/check.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::service {
namespace {

namespace fs = std::filesystem;
using sweep::CellOutcome;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t count_lines(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

constexpr const char* kGrid =
    "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2,4 seed=21";

MasterOptions fast_master(const fs::path& out_dir, const std::string& grid = kGrid) {
  MasterOptions options;
  options.spec = sweep::SweepSpec::parse(grid);
  options.out_dir = out_dir.string();
  options.port_file = (out_dir / "port").string();
  options.heartbeat_seconds = 0.05;  // lease expires after 0.15s of silence
  options.zero_wall_times = true;
  options.verbose = false;
  return options;
}

/// Waits for the master's atomically written port file.
std::uint16_t wait_for_port(const fs::path& port_file) {
  for (int i = 0; i < 1000; ++i) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "master never wrote " << port_file;
  return 0;
}

std::thread worker_thread(const fs::path& out_dir, const std::string& name, int& exit_code) {
  return std::thread([&out_dir, name, &exit_code] {
    WorkerOptions options;
    options.port_file = (out_dir / "port").string();
    options.name = name;
    options.verbose = false;
    try {
      exit_code = run_worker(options);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "worker " << name << " threw: " << e.what();
    }
  });
}

/// A scripted protocol client — the master cannot tell it from a real
/// worker, which is the point: it can stall, vanish, or double-report on
/// cue.
struct FakeWorker {
  net::TcpConnection conn;

  FakeWorker(std::uint16_t port, const std::string& name) {
    conn = net::connect_tcp("127.0.0.1", port, 5.0);
    io::JsonValue hello = make_message("hello");
    hello.set("worker", name);
    EXPECT_EQ(message_type(exchange(hello)), "welcome");
  }

  io::JsonValue exchange(const io::JsonValue& msg) {
    conn.send_all(encode(msg), 5.0);
    std::string line;
    if (!conn.recv_line(line, 5.0)) throw net::NetError("master closed");
    return parse_message(line);
  }

  /// Requests until the master hands out a lease (riding out backoff
  /// "wait" replies). Fails the test if it only ever sees waits.
  io::JsonValue acquire_lease() {
    for (int i = 0; i < 400; ++i) {
      io::JsonValue reply = exchange(make_message("request"));
      const std::string type = message_type(reply);
      if (type == "lease") return reply;
      EXPECT_EQ(type, "wait") << "unexpected reply while waiting for a lease";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw net::NetError("no lease within the deadline");
  }
};

/// Computes a leased cell exactly as a worker would (shared cell runner,
/// first-write-wins, master-assigned attempt) and reports it.
void compute_and_complete(FakeWorker& fake, const io::JsonValue& lease,
                          const MasterOptions& master) {
  const std::size_t index = static_cast<std::size_t>(lease.at("index").as_uint());
  CellOutcome cell;
  cell.index = index;
  cell.id = lease.at("cell").as_string();
  cell.requested = master.spec.expand().at(index);

  sweep::FaultInjector injector(sweep::FaultPlan{}, master.out_dir);
  sweep::Watchdog watchdog;
  sweep::CellRunContext ctx;
  ctx.cells_dir = fs::path(master.out_dir) / "cells";
  ctx.observe = master.spec.observe;
  ctx.zero_wall_times = master.zero_wall_times;
  ctx.first_write_wins = true;
  ctx.single_attempt = static_cast<std::uint32_t>(lease.at("attempt").as_uint());
  ctx.injector = &injector;
  ctx.watchdog = &watchdog;
  sweep::run_cell_to_verdict(cell, ctx);

  io::JsonValue msg = make_message("complete");
  msg.set("cell", cell.id);
  msg.set("status", sweep::cell_status_name(cell.status));
  msg.set("attempts", std::uint64_t{cell.attempts});
  EXPECT_EQ(message_type(fake.exchange(msg)), "ack");
}

class ServiceTest : public testing::Test {
 protected:
  void SetUp() override { sweep::reset_shutdown_flag(); }
  void TearDown() override { sweep::reset_shutdown_flag(); }
};

TEST_F(ServiceTest, TwoWorkersMatchOrchestratorBitwise) {
  // The paper-grid artifacts must not depend on WHO computed the cells:
  // service output == single-process orchestrator output, byte for byte.
  const fs::path svc_dir = fresh_dir("bitwise_svc");
  const MasterOptions options = fast_master(svc_dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  int wa_exit = -1, wb_exit = -1;
  std::thread wa = worker_thread(svc_dir, "wa", wa_exit);
  std::thread wb = worker_thread(svc_dir, "wb", wb_exit);
  master.join();
  wa.join();
  wb.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(wa_exit, 0);
  EXPECT_EQ(wb_exit, 0);

  const fs::path solo_dir = fresh_dir("bitwise_solo");
  sweep::SweepOptions solo;
  solo.out_dir = solo_dir.string();
  solo.zero_wall_times = true;
  const sweep::SweepOutcome outcome =
      sweep::run_sweep(sweep::SweepSpec::parse(kGrid), solo);
  ASSERT_EQ(outcome.failed, 0u);

  EXPECT_EQ(read_file(svc_dir / "aggregate.csv"), read_file(solo_dir / "aggregate.csv"));
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_EQ(read_file(svc_dir / "cells" / (cell.id + ".json")),
              read_file(solo_dir / "cells" / (cell.id + ".json")))
        << cell.id;
  }
  // Completed cells leave no attempts ledgers behind.
  for (const auto& entry : fs::directory_iterator(svc_dir / "cells")) {
    EXPECT_EQ(entry.path().string().find(".attempts.json"), std::string::npos)
        << entry.path();
  }
}

TEST_F(ServiceTest, CrashedHolderIsReassignedAndAttemptsContinue) {
  // A worker that takes a lease and dies (connection drop) must not lose
  // the cell: the next holder gets attempt N+1, continuing the shared
  // on-disk ledger — exactly what a SIGKILLed process leaves behind.
  const fs::path dir = fresh_dir("crash");
  const MasterOptions options = fast_master(dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  std::string crashed_cell;
  {
    FakeWorker doomed(port, "doomed");
    const io::JsonValue lease = doomed.acquire_lease();
    crashed_cell = lease.at("cell").as_string();
    EXPECT_EQ(lease.at("attempt").as_uint(), 1u);
    // Simulate the half-done attempt a crashing worker leaves: the ledger
    // is on disk (written at attempt start), the result is not.
    sweep::write_attempts_ledger(
        sweep::ledger_path(fs::path(options.out_dir) / "cells", crashed_cell), 1);
  }  // destructor closes the socket = the crash

  int w_exit = -1;
  std::thread w = worker_thread(dir, "rescuer", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);

  // The rescued cell records the continued attempt count and its audit tag.
  const io::JsonValue payload = io::read_checkpoint_file(
      (fs::path(options.out_dir) / "cells" / (crashed_cell + ".json")).string());
  ASSERT_TRUE(payload.contains("retry"));
  EXPECT_EQ(payload.at("retry").at("attempts").as_uint(), 2u);
  // ...and its ledger is pruned once the story ends.
  EXPECT_FALSE(fs::exists(
      sweep::ledger_path(fs::path(options.out_dir) / "cells", crashed_cell)));
}

TEST_F(ServiceTest, SilentHolderExpiresAndLearnsOnHeartbeat) {
  // A holder that stops heartbeating WITHOUT dying (GC pause, network
  // partition, drop_heartbeat fault) is expired; its eventual heartbeat is
  // answered "expired" so it abandons the attempt.
  const fs::path dir = fresh_dir("expiry");
  const MasterOptions options = fast_master(dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker stalled(port, "stalled");
  const io::JsonValue lease = stalled.acquire_lease();
  const std::string cell = lease.at("cell").as_string();

  // Outlive the lease (3 x 0.05s) without a single heartbeat.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  io::JsonValue hb = make_message("heartbeat");
  hb.set("cell", cell);
  EXPECT_EQ(message_type(stalled.exchange(hb)), "expired");
  stalled.conn.close();  // let the master exit without lingering for us

  int w_exit = -1;
  std::thread w = worker_thread(dir, "rescuer", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 3u);  // header + 2 cells
}

TEST_F(ServiceTest, DuplicateCompletionIsNeverDoubleCounted) {
  // Expiry race: holder A stalls, the cell is reassigned to B, then BOTH
  // finish. first-write-wins reconciles the files; the master's terminal
  // check reconciles the accounting. One cell, one row, exit 0.
  const fs::path dir = fresh_dir("duplicate");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=5");

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker first(port, "first");
  const io::JsonValue lease_a = first.acquire_lease();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // expire it

  FakeWorker second(port, "second");
  const io::JsonValue lease_b = second.acquire_lease();
  EXPECT_EQ(lease_b.at("cell").as_string(), lease_a.at("cell").as_string());
  EXPECT_GE(lease_b.at("attempt").as_uint(), 2u);

  compute_and_complete(second, lease_b, options);  // the winner
  compute_and_complete(first, lease_a, options);   // the ghost: late duplicate

  first.conn.close();
  second.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 2u);  // header + exactly one row
}

TEST_F(ServiceTest, ShutdownDrainsToResumableOutDirThenResumeFinishes) {
  const fs::path dir = fresh_dir("drain");
  MasterOptions options = fast_master(dir);
  options.heartbeat_seconds = 10.0;  // leases survive the whole drain window
  options.drain_seconds = 0.3;

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker holder(port, "holder");
  (void)holder.acquire_lease();  // one cell in flight, one still pending

  sweep::request_shutdown();
  master.join();
  EXPECT_EQ(master_exit, kExitDrained);  // 130: resumable, by contract
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_FALSE(fs::exists(dir / "aggregate.csv"));  // incomplete grid
  holder.conn.close();

  // A fresh master over the same out_dir picks up where the drain left off
  // (stale port file cleared so the finisher waits for the new port).
  sweep::reset_shutdown_flag();
  fs::remove(dir / "port");
  MasterOptions resume = fast_master(dir);
  resume.resume = true;
  int resume_exit = -1;
  std::thread master2([&] { resume_exit = run_master(resume); });
  int w_exit = -1;
  std::thread w = worker_thread(dir, "finisher", w_exit);
  master2.join();
  w.join();
  EXPECT_EQ(resume_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 3u);
}

TEST_F(ServiceTest, ExhaustedLedgerIsTerminalWithoutALease) {
  // A cell whose shared ledger already shows max_retries+1 attempts (it
  // kept killing workers in past processes) must go terminal at lease
  // time — never handed to yet another victim.
  const fs::path dir = fresh_dir("exhausted");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=9");
  fs::create_directories(fs::path(options.out_dir) / "cells");
  sweep::write_attempts_ledger(
      sweep::ledger_path(fs::path(options.out_dir) / "cells", "cell_00000"), 3);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker bystander(port, "bystander");
  // The only cell goes terminal at lease time; the master then drains us
  // instead of leasing (the first request may race the verdict as "wait").
  std::string type;
  for (int i = 0; i < 100; ++i) {
    type = message_type(bystander.exchange(make_message("request")));
    if (type != "wait") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(type, "drain");
  bystander.conn.close();

  master.join();
  EXPECT_EQ(master_exit, kExitFailedCells);
  const std::string failures = read_file(dir / "failures.csv");
  EXPECT_NE(failures.find("cell_00000"), std::string::npos);
  EXPECT_NE(failures.find("failed_crash"), std::string::npos);
}

TEST_F(ServiceTest, StatusReflectsMidRunHeartbeatProgress) {
  // The status verb must render a mid-run heartbeat's progress block: a
  // holder reports round 57 and the next status reply shows it, live,
  // before the cell completes. Also pins version tolerance — a heartbeat
  // WITHOUT progress still renews the lease.
  const fs::path dir = fresh_dir("status");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=3");

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker holder(port, "holder");
  const io::JsonValue lease = holder.acquire_lease();
  const std::string cell = lease.at("cell").as_string();

  // Old-style heartbeat (no progress): still an ack.
  io::JsonValue bare = make_message("heartbeat");
  bare.set("cell", cell);
  EXPECT_EQ(message_type(holder.exchange(bare)), "ack");

  io::JsonValue hb = make_message("heartbeat");
  hb.set("cell", cell);
  io::JsonValue& progress = hb.set("progress", io::JsonValue::object());
  progress.set("cell", cell);
  progress.set("trial", std::uint64_t{1});
  progress.set("round", std::uint64_t{57});
  progress.set("node_updates_per_sec", 123.5);
  progress.set("rss_bytes", std::uint64_t{1024});
  EXPECT_EQ(message_type(holder.exchange(hb)), "ack");

  // A monitor needs no hello, takes no lease, and sees the live block.
  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  monitor.send_all(encode(make_message("status")), 5.0);
  std::string line;
  ASSERT_TRUE(monitor.recv_line(line, 5.0));
  const io::JsonValue status = parse_message(line);
  EXPECT_EQ(message_type(status), "status");
  EXPECT_EQ(status.at("cells_total").as_uint(), 1u);
  EXPECT_EQ(status.at("leased").as_uint(), 1u);
  EXPECT_EQ(status.at("done").as_uint(), 0u);
  const io::JsonValue& rows = status.at("cells");
  ASSERT_EQ(rows.size(), 1u);
  const io::JsonValue& row = rows.item(0);
  EXPECT_EQ(row.at("cell").as_string(), cell);
  EXPECT_EQ(row.at("worker").as_string(), "holder");
  EXPECT_EQ(row.at("trial").as_uint(), 1u);
  EXPECT_EQ(row.at("round").as_uint(), 57u);
  EXPECT_EQ(row.at("node_updates_per_sec").as_double(), 123.5);
  EXPECT_EQ(row.at("rss_bytes").as_uint(), 1024u);
  EXPECT_GE(row.at("progress_age_seconds").as_double(), 0.0);
  // The workers list counts lease-takers only — never the monitor.
  ASSERT_EQ(status.at("workers").size(), 1u);
  EXPECT_EQ(status.at("workers").item(0).at("worker").as_string(), "holder");
  monitor.close();

  // Release the cell (crash the holder) and let a real worker finish.
  holder.conn.close();
  int w_exit = -1;
  std::thread w = worker_thread(dir, "finisher", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

/// One HTTP/1.0 scrape of the master's exposition endpoint; returns the
/// body (everything after the blank header/body separator).
std::string scrape_metrics(std::uint16_t port) {
  net::TcpConnection conn = net::connect_tcp("127.0.0.1", port, 5.0);
  conn.send_all("GET /metrics HTTP/1.0\r\n\r\n", 5.0);
  std::string body, line;
  bool in_body = false;
  while (conn.recv_line(line, 5.0)) {
    if (in_body) {
      body += line;
      body += '\n';
    } else if (line.empty() || line == "\r") {
      in_body = true;
    }
  }
  return body;
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(ServiceTest, MetricsScrapeStaysValidWithManyCellsAndDropsEndedLeases) {
  // Two leased cells reporting progress means two series in each per-cell
  // family. The scraped document must stay a VALID exposition — exactly
  // one "# TYPE" header per family, samples grouped under it (a duplicate
  // header is what scripts/check_exposition.py and real Prometheus reject)
  // — and once the leases end, the per-cell series must vanish instead of
  // reporting finished cells as live work forever.
  const fs::path dir = fresh_dir("scrape");
  MasterOptions options = fast_master(dir);  // k=2,4: a two-cell grid
  options.heartbeat_seconds = 10.0;          // leases outlive the whole test
  options.serve_metrics = true;
  options.metrics_port_file = (dir / "mport").string();

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");
  const std::uint16_t mport = wait_for_port(dir / "mport");

  FakeWorker wa(port, "wa");
  FakeWorker wb(port, "wb");
  const io::JsonValue lease_a = wa.acquire_lease();
  const io::JsonValue lease_b = wb.acquire_lease();
  const auto heartbeat_progress = [](FakeWorker& w, const io::JsonValue& lease,
                                     std::uint64_t round) {
    io::JsonValue hb = make_message("heartbeat");
    hb.set("cell", lease.at("cell").as_string());
    io::JsonValue& progress = hb.set("progress", io::JsonValue::object());
    progress.set("trial", std::uint64_t{1});
    progress.set("round", round);
    progress.set("node_updates_per_sec", 10.0);
    EXPECT_EQ(message_type(w.exchange(hb)), "ack");
  };
  heartbeat_progress(wa, lease_a, 11);
  heartbeat_progress(wb, lease_b, 22);

  const std::string mid = scrape_metrics(mport);
  EXPECT_EQ(count_occurrences(mid, "# TYPE sweepd_cell_round gauge\n"), 1u) << mid;
  EXPECT_EQ(count_occurrences(mid, "# TYPE sweepd_cell_node_updates_per_sec gauge\n"), 1u)
      << mid;
  EXPECT_EQ(count_occurrences(mid, "sweepd_cell_round{cell=\"" +
                                       lease_a.at("cell").as_string() + "\"} 11\n"),
            1u)
      << mid;
  EXPECT_EQ(count_occurrences(mid, "sweepd_cell_round{cell=\"" +
                                       lease_b.at("cell").as_string() + "\"} 22\n"),
            1u)
      << mid;

  compute_and_complete(wa, lease_a, options);
  compute_and_complete(wb, lease_b, options);
  const std::string after = scrape_metrics(mport);
  EXPECT_EQ(count_occurrences(after, "sweepd_cell_round"), 0u) << after;
  EXPECT_EQ(count_occurrences(after, "sweepd_cells_done 2\n"), 1u) << after;

  wa.conn.close();
  wb.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, IdleMonitorDoesNotShrinkWorkerShares) {
  // The per-worker memory share divides the host budget across peers that
  // RUN cells. An attached monitor (status-only connection, or even one
  // that spoke hello) must not halve everyone's preflight budget.
  const fs::path dir = fresh_dir("monitor_share");
  MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=7");
  options.memory_budget_bytes = 1ull << 30;

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  // Two idle connections: one hello-only, one status-only.
  FakeWorker lurker(port, "lurker");
  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  monitor.send_all(encode(make_message("status")), 5.0);
  std::string line;
  ASSERT_TRUE(monitor.recv_line(line, 5.0));

  FakeWorker holder(port, "holder");
  const io::JsonValue lease = holder.acquire_lease();
  EXPECT_EQ(lease.at("memory_budget_bytes").as_uint(), 1ull << 30)
      << "idle monitors shrank the compute share";

  monitor.close();
  lurker.conn.close();
  compute_and_complete(holder, lease, options);
  holder.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

// --- parked lease requests ------------------------------------------------

constexpr const char* kOneCell =
    "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=13";

/// A master over the one-cell grid whose leases outlive any test (no
/// expiry races on a loaded host).
MasterOptions one_cell_master(const fs::path& dir) {
  MasterOptions options = fast_master(dir, kOneCell);
  options.heartbeat_seconds = 10.0;
  return options;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Polls `status` until `worker`'s lease request shows as parked. False
/// after about 2 s (a master that never parks answers the request at once).
bool wait_until_parked(std::uint16_t port, const std::string& worker) {
  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  for (int i = 0; i < 200; ++i) {
    monitor.send_all(encode(make_message("status")), 5.0);
    std::string line;
    if (!monitor.recv_line(line, 5.0)) return false;
    const io::JsonValue status = parse_message(line);
    const io::JsonValue& rows = status.at("workers");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const io::JsonValue& row = rows.item(r);
      const io::JsonValue* parked = row.get("parked");
      if (row.at("worker").as_string() == worker && parked != nullptr && parked->as_bool()) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST_F(ServiceTest, IdleRequestIsDrainedWhenGridEnds) {
  // B asks while A holds the last lease. B's request waits at the master,
  // and A's completion answers it with "drain" at once — no polling wait.
  const fs::path dir = fresh_dir("park_drain");
  const MasterOptions options = one_cell_master(dir);
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker a(port, "a");
  const io::JsonValue lease = a.acquire_lease();
  FakeWorker b(port, "b");
  b.conn.send_all(encode(make_message("request")), 5.0);
  EXPECT_TRUE(wait_until_parked(port, "b"));

  compute_and_complete(a, lease, options);
  const auto acked = std::chrono::steady_clock::now();
  std::string line;
  ASSERT_TRUE(b.conn.recv_line(line, 5.0));
  const double latency = seconds_since(acked);
  EXPECT_EQ(message_type(parse_message(line)), "drain");
  EXPECT_LT(latency, 0.2);

  a.conn.close();
  b.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, ParkedRequestTakesRevokedLease) {
  // A parked request is first in line for a lease that dies: when the
  // holder's connection drops, the parked worker's one reply is that
  // cell's lease, at the next attempt.
  const fs::path dir = fresh_dir("park_revoked");
  const MasterOptions options = one_cell_master(dir);
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker a(port, "a");
  const io::JsonValue lease_a = a.acquire_lease();
  FakeWorker b(port, "b");
  b.conn.send_all(encode(make_message("request")), 5.0);
  EXPECT_TRUE(wait_until_parked(port, "b"));
  a.conn.close();  // the holder crashes

  std::string line;
  ASSERT_TRUE(b.conn.recv_line(line, 5.0));
  const io::JsonValue reply = parse_message(line);
  const bool leased = message_type(reply) == "lease";
  EXPECT_TRUE(leased) << "first reply was '" << message_type(reply) << "'";
  if (leased) {
    EXPECT_EQ(reply.at("cell").as_string(), lease_a.at("cell").as_string());
    EXPECT_EQ(reply.at("attempt").as_uint(), 2u);
    compute_and_complete(b, reply, options);
  }
  b.conn.close();
  int w_exit = -1;
  std::thread finisher;
  if (!leased) finisher = worker_thread(dir, "finisher", w_exit);
  master.join();
  if (finisher.joinable()) finisher.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, ParkedRequestGetsKeepaliveWait) {
  // Nothing frees up: the parked request is answered "wait {seconds: 0}"
  // after kParkSeconds — well inside every peer's I/O deadline — and the
  // exposition counts the parked worker meanwhile.
  const fs::path dir = fresh_dir("park_keepalive");
  MasterOptions options = one_cell_master(dir);
  options.serve_metrics = true;
  options.metrics_port_file = (dir / "mport").string();
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");
  const std::uint16_t mport = wait_for_port(dir / "mport");

  FakeWorker a(port, "a");
  const io::JsonValue lease = a.acquire_lease();
  FakeWorker b(port, "b");
  const auto asked = std::chrono::steady_clock::now();
  b.conn.send_all(encode(make_message("request")), 5.0);
  EXPECT_TRUE(wait_until_parked(port, "b"));
  const std::string exposition = scrape_metrics(mport);
  EXPECT_EQ(count_occurrences(exposition, "sweepd_workers_parked 1\n"), 1u) << exposition;

  std::string line;
  ASSERT_TRUE(b.conn.recv_line(line, 5.0));
  const double waited = seconds_since(asked);
  const io::JsonValue reply = parse_message(line);
  EXPECT_EQ(message_type(reply), "wait");
  EXPECT_EQ(reply.at("seconds").as_double(), 0.0);
  EXPECT_GE(waited, 0.9 * kParkSeconds);
  EXPECT_LT(waited, kParkSeconds + 1.5);

  compute_and_complete(a, lease, options);
  a.conn.close();
  b.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, ParkedConnectionThatSpeaksAgainIsDropped) {
  // One message, one reply: a second line while a request is parked is a
  // protocol violation, and the master hangs up.
  const fs::path dir = fresh_dir("park_violation");
  const MasterOptions options = one_cell_master(dir);
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker a(port, "a");
  const io::JsonValue lease = a.acquire_lease();
  FakeWorker b(port, "b");
  b.conn.send_all(encode(make_message("request")), 5.0);
  EXPECT_TRUE(wait_until_parked(port, "b"));
  b.conn.send_all(encode(make_message("request")), 5.0);
  std::string line;
  bool closed = false;
  try {
    closed = !b.conn.recv_line(line, 5.0);
  } catch (const net::NetError&) {
    closed = true;  // reset instead of a clean close
  }
  EXPECT_TRUE(closed) << "got '" << line << "'";

  compute_and_complete(a, lease, options);
  a.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, MonitorDoesNotHoldFinishedMaster) {
  // An attached status monitor never asks for work, so the finished
  // master must not linger for it.
  const fs::path dir = fresh_dir("monitor_linger");
  const MasterOptions options = one_cell_master(dir);
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  monitor.send_all(encode(make_message("status")), 5.0);
  std::string line;
  ASSERT_TRUE(monitor.recv_line(line, 5.0));

  FakeWorker holder(port, "holder");
  const io::JsonValue lease = holder.acquire_lease();
  compute_and_complete(holder, lease, options);
  const auto acked = std::chrono::steady_clock::now();
  holder.conn.close();
  master.join();
  EXPECT_LT(seconds_since(acked), 0.5);
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, IdleWorkerLeavesOnShutdownWhileParked) {
  // A fake master that welcomes the worker and never answers its request
  // (a parked request, from the worker's side). SIGTERM must still get
  // the worker out promptly, holding no lease: exit 130, connection closed.
  const fs::path dir = fresh_dir("worker_parked_shutdown");
  net::TcpListener listener("127.0.0.1", 0);
  int worker_exit = -1;
  std::chrono::steady_clock::time_point returned;
  std::thread worker([&] {
    WorkerOptions options;
    options.port = listener.port();
    options.name = "idle";
    options.verbose = false;
    try {
      worker_exit = run_worker(options);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "worker threw: " << e.what();
    }
    returned = std::chrono::steady_clock::now();
  });

  net::TcpConnection conn = listener.accept(5.0);
  std::string line;
  EXPECT_TRUE(conn.recv_line(line, 5.0));
  EXPECT_EQ(message_type(parse_message(line)), "hello");
  io::JsonValue welcome = make_message("welcome");
  welcome.set("sweep", sweep::SweepSpec::parse(kOneCell).to_json());
  welcome.set("out_dir", dir.string());
  welcome.set("heartbeat_seconds", 2.0);
  welcome.set("cell_timeout_seconds", 0.0);
  welcome.set("max_retries", std::uint64_t{2});
  welcome.set("zero_wall_times", true);
  conn.send_all(encode(welcome), 5.0);
  EXPECT_TRUE(conn.recv_line(line, 5.0));
  EXPECT_EQ(message_type(parse_message(line)), "request");

  const auto signalled = std::chrono::steady_clock::now();
  sweep::request_shutdown();
  worker.join();
  EXPECT_EQ(worker_exit, kExitDrained);
  EXPECT_LT(std::chrono::duration<double>(returned - signalled).count(), 0.2);
  EXPECT_FALSE(conn.recv_line(line, 1.0)) << "worker sent '" << line << "'";
}

// --- workers that arrive after the grid ------------------------------------

TEST_F(ServiceTest, LateWorkerExitsCompleteAfterFinishedGrid) {
  // A worker that starts after the master finished the grid and left must
  // not retry a refused connect for its whole connect timeout: the port
  // file records the finish, and the worker exits 0 at once.
  const fs::path dir = fresh_dir("late_worker");
  const MasterOptions options = one_cell_master(dir);
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");
  {
    FakeWorker holder(port, "holder");
    compute_and_complete(holder, holder.acquire_lease(), options);
  }
  master.join();
  ASSERT_EQ(master_exit, kExitComplete);

  WorkerOptions late;
  late.port_file = (dir / "port").string();
  late.name = "late";
  late.connect_timeout_seconds = 5.0;
  late.verbose = false;
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(run_worker(late), kExitComplete);
  EXPECT_LT(seconds_since(started), 1.0);

  // A drained master leaves the bare port: its workers keep retrying for
  // a resumed master until the connect timeout, as before.
  io::atomic_write_text(late.port_file, std::to_string(port) + "\n");
  late.connect_timeout_seconds = 0.3;
  const auto retried = std::chrono::steady_clock::now();
  EXPECT_THROW(run_worker(late), net::NetError);
  EXPECT_GE(seconds_since(retried), 0.3);
}

// --- out-dir rules (the same as run_sweep's) ------------------------------

/// Runs a master and one worker over `options` to the end; the master's
/// exit code. A finished run's port file is cleared first, or the worker
/// would read it as "grid finished" and leave before the master binds.
int run_service(const MasterOptions& options) {
  const fs::path dir(options.out_dir);
  fs::remove(dir / "port");
  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  int worker_exit = -1;
  std::thread worker = worker_thread(dir, "w", worker_exit);
  master.join();
  worker.join();
  EXPECT_EQ(worker_exit, kExitComplete);
  return master_exit;
}

TEST_F(ServiceTest, ResumeRefusesAChangedSweep) {
  const fs::path dir = fresh_dir("changed");
  MasterOptions options = fast_master(dir);
  ASSERT_EQ(run_service(options), kExitComplete);

  options.spec.base.trials = 5;  // a different grid
  options.resume = true;
  EXPECT_THROW((void)run_master(options), CheckError);
}

TEST_F(ServiceTest, PopulatedOutDirNeedsResumeOrForce) {
  const fs::path dir = fresh_dir("clobber");
  MasterOptions options = fast_master(dir);
  ASSERT_EQ(run_service(options), kExitComplete);
  EXPECT_THROW((void)run_master(options), CheckError);
  options.force = true;
  EXPECT_EQ(run_service(options), kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 3u);
}

TEST_F(ServiceTest, TrialsOverrideShrinksEveryCell) {
  const fs::path dir = fresh_dir("override");
  MasterOptions options = fast_master(dir);
  options.trials_override = 1;
  ASSERT_EQ(run_service(options), kExitComplete);
  for (const char* id : {"cell_00000", "cell_00001"}) {
    const io::JsonValue doc =
        io::read_checkpoint_file((dir / "cells" / (std::string(id) + ".json")).string());
    EXPECT_EQ(doc.at("summary").at("trials").as_uint(), 1u) << id;
  }

  MasterOptions axis = fast_master(
      fresh_dir("override_axis"),
      "dynamics=3-majority workload=bias:2c n=500 trials=1,2 max_rounds=5000 k=2 seed=21");
  axis.trials_override = 1;
  EXPECT_THROW((void)run_master(axis), CheckError);
}

TEST_F(ServiceTest, OverBudgetCellsAreRefusedAsFailedSpec) {
  // Every cell is refused before any worker asks: the master finishes the
  // grid on its own.
  const fs::path dir = fresh_dir("budget");
  MasterOptions options = fast_master(dir);
  options.memory_budget_bytes = 1024;  // 1 KiB: nothing fits
  EXPECT_EQ(run_master(options), kExitFailedCells);
  const io::JsonValue manifest = io::read_checkpoint_file((dir / "manifest.json").string());
  const io::JsonValue& cells = manifest.at("cells");
  ASSERT_EQ(cells.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells.item(i).at("status").as_string(), "failed_spec");
    EXPECT_NE(cells.item(i).at("error").as_string().find("preflight"), std::string::npos);
  }
  const std::string failures = read_file(dir / "failures.csv");
  EXPECT_NE(failures.find("failed_spec"), std::string::npos);
  EXPECT_NE(failures.find("preflight"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir / "aggregate.csv"));
}

TEST_F(ServiceTest, ForcedStartClearsThePreviousCells) {
  // A forced start keeps no result, trajectory or ledger of the previous
  // grid, past the new grid's end included: the workers' first-write-wins
  // commit would keep a stale cell file instead of the recomputed one.
  const fs::path dir = fresh_dir("forced");
  MasterOptions four = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2,3,4,5 "
           "seed=21");
  four.spec.observe.trajectory = 8;
  ASSERT_EQ(run_service(four), kExitComplete);
  ASSERT_TRUE(fs::exists(dir / "cells" / "cell_00003_trajectory.csv"));

  MasterOptions two = fast_master(dir);
  two.force = true;
  ASSERT_EQ(run_service(two), kExitComplete);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir / "cells")) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"cell_00000.json", "cell_00001.json"}));
}

}  // namespace
}  // namespace plurality::service
