// plurality_sweepd — the fault-tolerant sweep master.
//
// Loads a SweepSpec, listens on a TCP port, and dispatches cells to
// plurality_sweep_worker processes under leases with heartbeats.
// Workers share the --out directory; results travel as CRC-enveloped
// checkpoint files on disk, never over the wire. Kill workers freely:
// expired leases are reassigned with the same exponential backoff and
// attempt budget as the in-process orchestrator, and the final
// aggregate.csv is bitwise-identical (under --zero-wall-times) to a
// single-process plurality_sweep run of the same grid.
//
//   $ ./plurality_sweepd --sweep sweeps/consensus_vs_k.json --out out/k_grid \
//         --port-file out/k_grid/port &
//   $ ./plurality_sweep_worker --port-file out/k_grid/port &
//   $ ./plurality_sweep_worker --port-file out/k_grid/port &
//
// SIGTERM/SIGINT drains: no new leases, in-flight leases get up to
// --drain-seconds to finish, the manifest is left resumable, exit 130.
// Restart with --resume to continue exactly where it stopped.
//
// Exit codes: 0 grid complete, 1 usage/config error, 2 cells failed
// terminally, 130 drained (resumable).
#include <iostream>

#include "obs/trace.hpp"
#include "service/master.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "sweep/fault_plan.hpp"
#include "sweep/watchdog.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace plurality;

  CliParser cli("plurality_sweepd",
                "serve a scenario grid to plurality_sweep_worker processes under "
                "leases with crash-safe reassignment");
  cli.add_string("sweep", "", "read the SweepSpec from this JSON file");
  cli.add_string("grid", "",
                 "compact sweep string: \"key=value[,value...] ...\" (commas make an axis)");
  cli.add_string("out", "",
                 "shared checkpoint directory (manifest.json, cells/, aggregate.csv); "
                 "workers must see the same filesystem");
  cli.add_string("host", "127.0.0.1", "address to listen on");
  cli.add_uint("port", 0, "TCP port to listen on (0 = ephemeral; see --port-file)");
  cli.add_string("port-file", "",
                 "write the bound port here (atomically) once listening — how workers "
                 "find an ephemeral port");
  cli.add_flag("resume", "skip cells whose result file already matches the grid");
  cli.add_flag("force", "start over inside a populated out dir (deletes its cell files)");
  cli.add_uint("trials", 0, "override every cell's trial count (0 = spec values)");
  cli.add_double("heartbeat-seconds", service::kDefaultHeartbeatSeconds,
                 "workers heartbeat at this cadence while computing");
  cli.add_double("lease-seconds", 0.0,
                 "lease expiry; a silent lease past this is reassigned "
                 "(0 = 3x heartbeat)");
  cli.add_double("cell-timeout", 0.0,
                 "per-cell wall-clock deadline in seconds, enforced by the worker's "
                 "watchdog (0 = none)");
  cli.add_uint("retries", 2,
               "retries per cell after a retryable failure; attempts persist across "
               "worker deaths via the shared ledger");
  cli.add_double("retry-backoff", 0.05,
                 "base reassignment backoff in seconds (doubles per attempt, "
                 "seeded jitter)");
  cli.add_uint("memory-budget-mb", 0,
               "preflight memory budget in MiB for the WHOLE worker host "
               "(0 = ~80% of RAM); each lease carries budget / connected workers");
  cli.add_flag("zero-wall-times",
               "write wall_seconds as 0 everywhere so identical grids produce "
               "bitwise-identical artifacts (CI golden comparisons)");
  cli.add_double("drain-seconds", 10.0,
                 "on SIGTERM/SIGINT, wait this long for in-flight leases before "
                 "writing the resumable manifest");
  cli.add_string("fault-plan", "",
                 "deterministic fault-injection plan (JSON) forwarded to every "
                 "worker; torture/CI use only");
  cli.add_string("cache-dir", "",
                 "result cache directory: completed cells are stored by resolved-spec "
                 "hash and future sweeps fetch instead of recomputing");
  cli.add_uint("cache-max-entries", 0,
               "bound on --cache-dir entries; each store trims the oldest-mtime "
               "entries past the bound (0 = unbounded)");
  cli.add_double("progress-seconds", 0.0,
                 "print an aggregate progress line (cells done/leased/pending, summed "
                 "worker node-updates/s) every N seconds (0 = off)");
  cli.add_uint("metrics-port", 0,
               "serve the Prometheus text exposition over HTTP on this port "
               "(0 with --metrics-port-file = ephemeral)");
  cli.add_string("metrics-port-file", "",
                 "write the bound metrics port here (atomically) once serving");
  cli.add_string("trace-out", "",
                 "write a Chrome trace-event JSON (lease round-trips, checkpoint "
                 "scans) to this file on exit");
  cli.add_flag("quiet", "suppress progress lines");
  if (!cli.parse(argc, argv)) return 0;

  const bool from_file = !cli.get_string("sweep").empty();
  const bool from_grid = !cli.get_string("grid").empty();
  PLURALITY_REQUIRE(from_file != from_grid,
                    "plurality_sweepd: pass exactly one of --sweep <file> or --grid "
                    "\"<spec>\" (see --help)");

  service::MasterOptions options;
  options.spec = from_file ? sweep::SweepSpec::from_json_file(cli.get_string("sweep"))
                           : sweep::SweepSpec::parse(cli.get_string("grid"));
  options.out_dir = cli.get_string("out");
  options.host = cli.get_string("host");
  options.port = static_cast<std::uint16_t>(cli.get_uint("port"));
  options.port_file = cli.get_string("port-file");
  options.resume = cli.flag("resume");
  options.force = cli.flag("force");
  options.trials_override = cli.get_uint("trials");
  options.heartbeat_seconds = cli.get_double("heartbeat-seconds");
  options.lease_seconds = cli.get_double("lease-seconds");
  options.cell_timeout_seconds = cli.get_double("cell-timeout");
  options.max_retries = static_cast<std::uint32_t>(cli.get_uint("retries"));
  options.retry_backoff_seconds = cli.get_double("retry-backoff");
  options.memory_budget_bytes = cli.get_uint("memory-budget-mb") * (1ull << 20);
  options.zero_wall_times = cli.flag("zero-wall-times");
  options.drain_seconds = cli.get_double("drain-seconds");
  options.cache_dir = cli.get_string("cache-dir");
  options.cache_max_entries = cli.get_uint("cache-max-entries");
  options.progress_seconds = cli.get_double("progress-seconds");
  options.metrics_port = static_cast<std::uint16_t>(cli.get_uint("metrics-port"));
  options.metrics_port_file = cli.get_string("metrics-port-file");
  options.serve_metrics = cli.provided("metrics-port") || !options.metrics_port_file.empty();
  options.verbose = !cli.flag("quiet");
  if (!cli.get_string("fault-plan").empty()) {
    // Validate locally (bad plans fail HERE, with a line/column message),
    // then forward the raw text so every worker arms the identical plan.
    const io::JsonValue plan = io::read_json_file(cli.get_string("fault-plan"));
    (void)sweep::FaultPlan::from_json(plan);
    options.fault_plan_text = plan.to_compact_string();
  }

  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();

  sweep::install_shutdown_signal_handlers();
  const int exit_code = service::run_master(std::move(options));
  if (!trace_out.empty()) obs::TraceRecorder::global().write(trace_out);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "plurality_sweepd: " << e.what() << "\n";
    return 1;
  }
}
