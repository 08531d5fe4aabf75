// plurality_sweep_worker — one compute process for a plurality_sweepd
// master.
//
// Connects, receives the sweep spec and out_dir in the welcome, then
// loops: lease a cell, run ONE attempt with the shared cell runner
// (heartbeating while it computes), commit the result as a CRC
// checkpoint file under link(2) first-write-wins, report, repeat.
// Start as many as the host's memory budget allows — the master hands
// each lease the per-worker share.
//
//   $ ./plurality_sweep_worker --port-file out/k_grid/port
//   $ ./plurality_sweep_worker --host 127.0.0.1 --port 7421 --name w1
//
// If the master vanishes mid-cell the worker degrades to
// local-orchestrator mode: it finishes the cell, the file lands on
// disk, and a restarted master reconciles it from there.
//
// Exit codes: 0 drained by the master (grid done), idle when the master
// vanished, or started after the master finished the grid (its port file
// then reads "<port> complete"), 1 usage/config error, 3 orphaned mid-cell (work
// committed locally, report lost), 130 shutdown signal, 86 injected
// crash fault.
#include <iostream>

#include "obs/trace.hpp"
#include "service/worker.hpp"
#include "support/cli.hpp"
#include "sweep/watchdog.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace plurality;

  CliParser cli("plurality_sweep_worker",
                "lease and run sweep cells for a plurality_sweepd master");
  cli.add_string("host", "127.0.0.1", "master address");
  cli.add_uint("port", 0, "master port (0 = read it from --port-file)");
  cli.add_string("port-file", "",
                 "file the master writes its port into; polled until "
                 "--connect-timeout so workers can start first");
  cli.add_string("name", "", "worker name in master logs (default w<pid>)");
  cli.add_double("connect-timeout", 10.0,
                 "give up connecting/port-file-polling after this many seconds");
  cli.add_string("trace-out", "",
                 "write a Chrome trace-event JSON (cell attempts, trials, checkpoint "
                 "writes, lease round-trips) to this file on exit");
  cli.add_flag("quiet", "suppress progress lines");
  if (!cli.parse(argc, argv)) return 0;

  service::WorkerOptions options;
  options.host = cli.get_string("host");
  options.port = static_cast<std::uint16_t>(cli.get_uint("port"));
  options.port_file = cli.get_string("port-file");
  options.name = cli.get_string("name");
  options.connect_timeout_seconds = cli.get_double("connect-timeout");
  options.verbose = !cli.flag("quiet");

  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();

  sweep::install_shutdown_signal_handlers();
  const int exit_code = service::run_worker(std::move(options));
  if (!trace_out.empty()) obs::TraceRecorder::global().write(trace_out);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "plurality_sweep_worker: " << e.what() << "\n";
    return 1;
  }
}
