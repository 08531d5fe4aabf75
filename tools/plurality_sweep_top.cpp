// plurality_sweep_top — live terminal view of a running plurality_sweepd.
//
// Connects to the master, polls the `status` protocol verb, and renders a
// refreshing table: grid totals, one row per connected worker (leases
// held, whether its lease request is parked), and one row per leased cell
// with the latest heartbeat progress block (trial, round, node-updates/s,
// worker RSS). A monitor connection never takes leases and never shrinks
// the per-worker memory share, so it is safe to leave attached to a
// production sweep.
//
//   $ ./plurality_sweep_top --port-file out/k_grid/port
//   $ ./plurality_sweep_top --host 127.0.0.1 --port 7421 --once
//
// --once prints a single snapshot and exits 0 — the form CI polls.
//
// Exit codes: 0 snapshot(s) rendered (also when the master finished and
// closed the connection), 1 usage error or master never reachable.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "io/json.hpp"
#include "net/socket.hpp"
#include "service/protocol.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "sweep/preflight.hpp"

namespace {

using namespace plurality;

std::uint16_t resolve_port(const std::string& port_file, std::uint16_t port,
                           double timeout_seconds) {
  if (port != 0) return port;
  PLURALITY_REQUIRE(!port_file.empty(),
                    "plurality_sweep_top: need --port or --port-file to find the master");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    if (std::ifstream in(port_file); in.good()) {
      unsigned p = 0;
      in >> p;
      if (p > 0 && p <= 65535) return static_cast<std::uint16_t>(p);
    }
    PLURALITY_REQUIRE(std::chrono::steady_clock::now() < deadline,
                      "plurality_sweep_top: master port file " << port_file
                                                               << " never appeared");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

double num_or_zero(const io::JsonValue& obj, const std::string& key) {
  const io::JsonValue* v = obj.get(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : 0.0;
}

void render(const io::JsonValue& status) {
  const std::uint64_t total = status.at("cells_total").as_uint();
  const std::uint64_t done = status.at("done").as_uint();
  const std::uint64_t failed = status.at("failed").as_uint();
  const std::uint64_t pending = status.at("pending").as_uint();
  const std::uint64_t leased = status.at("leased").as_uint();
  const std::size_t workers =
      status.contains("workers") ? status.at("workers").size() : 0;

  std::printf("cells %llu/%llu done | %llu leased | %llu pending | %llu failed | "
              "%zu worker(s) | %.3g node-upd/s\n",
              static_cast<unsigned long long>(done), static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(leased),
              static_cast<unsigned long long>(pending),
              static_cast<unsigned long long>(failed), workers,
              num_or_zero(status, "node_updates_per_sec"));
  if (const io::JsonValue* cache = status.get("cache")) {
    std::printf("cache  %llu hit / %llu miss / %llu evicted\n",
                static_cast<unsigned long long>(cache->at("hits").as_uint()),
                static_cast<unsigned long long>(cache->at("misses").as_uint()),
                static_cast<unsigned long long>(cache->at("evictions").as_uint()));
  }
  if (status.at("draining").as_bool()) std::printf("DRAINING — no new leases\n");
  if (workers > 0) {
    // A parked worker is idle: the master holds its lease request until a
    // cell frees up. Masters that never park send no "parked" field.
    std::printf("\n%-10s %6s %6s\n", "WORKER", "LEASES", "PARKED");
    const io::JsonValue& rows = status.at("workers");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const io::JsonValue& row = rows.item(i);
      const io::JsonValue* parked = row.get("parked");
      std::printf("%-10s %6llu %6s\n", row.at("worker").as_string().c_str(),
                  static_cast<unsigned long long>(row.at("leases").as_uint()),
                  parked != nullptr && parked->as_bool() ? "yes" : "no");
    }
  }

  const io::JsonValue& cells = status.at("cells");
  if (cells.size() == 0) {
    std::printf("\n(no leased cells)\n");
    return;
  }
  std::printf("\n%-28s %-10s %7s %7s %9s %12s %10s %6s\n", "CELL", "WORKER", "ATTEMPT",
              "TRIAL", "ROUND", "NODE-UPD/S", "RSS", "AGE");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const io::JsonValue& row = cells.item(i);
    std::printf("%-28s %-10s %7llu ", row.at("cell").as_string().c_str(),
                row.at("worker").as_string().c_str(),
                static_cast<unsigned long long>(row.at("attempt").as_uint()));
    if (row.contains("round")) {
      std::printf("%7llu %9llu %12.3g %10s %5.0fs\n",
                  static_cast<unsigned long long>(row.at("trial").as_uint()),
                  static_cast<unsigned long long>(row.at("round").as_uint()),
                  num_or_zero(row, "node_updates_per_sec"),
                  sweep::format_bytes(row.at("rss_bytes").as_uint()).c_str(),
                  num_or_zero(row, "progress_age_seconds"));
    } else {
      std::printf("%7s %9s %12s %10s %6s\n", "-", "-", "-", "-", "-");
    }
  }
}

int run(int argc, char** argv) {
  CliParser cli("plurality_sweep_top",
                "live status table for a running plurality_sweepd master");
  cli.add_string("host", "127.0.0.1", "master address");
  cli.add_uint("port", 0, "master port (0 = read it from --port-file)");
  cli.add_string("port-file", "", "file the master writes its port into");
  cli.add_double("interval", 2.0, "seconds between refreshes");
  cli.add_double("connect-timeout", 10.0,
                 "give up connecting/port-file-polling after this many seconds");
  cli.add_flag("once", "print one snapshot and exit (no screen clearing)");
  if (!cli.parse(argc, argv)) return 0;

  const bool once = cli.flag("once");
  const double interval = cli.get_double("interval");
  const std::uint16_t port =
      resolve_port(cli.get_string("port-file"),
                   static_cast<std::uint16_t>(cli.get_uint("port")),
                   cli.get_double("connect-timeout"));
  net::TcpConnection conn =
      net::connect_tcp(cli.get_string("host"), port, cli.get_double("connect-timeout"));

  for (;;) {
    conn.send_all(service::encode(service::make_message("status")),
                  service::kIoTimeoutSeconds);
    std::string line;
    if (!conn.recv_line(line, service::kIoTimeoutSeconds)) {
      // Clean close: the master finished (or drained) — not a monitor error.
      std::printf("master closed the connection (sweep finished or draining)\n");
      return 0;
    }
    const io::JsonValue status = service::parse_message(line);
    PLURALITY_REQUIRE(service::message_type(status) == "status",
                      "plurality_sweep_top: expected status, got '"
                          << service::message_type(status) << "'");
    if (!once) std::printf("\033[H\033[2J");  // home + clear, top(1)-style
    render(status);
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "plurality_sweep_top: " << e.what() << "\n";
    return 1;
  }
}
