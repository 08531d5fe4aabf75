// plurality_sweep — run a whole scenario grid as one resumable job.
//
// A SweepSpec (JSON file or compact string) expands cartesian axes over any
// ScenarioSpec field into a cell grid; the orchestrator schedules cells
// work-stealing across OpenMP threads, checkpoints one result file per
// cell, and joins everything into aggregate.csv. Interrupt it any time —
// --resume continues from the completed cells.
//
//   $ ./plurality_sweep --sweep sweeps/consensus_vs_k.json --out-dir out/k_grid
//   $ ./plurality_sweep --grid "dynamics=3-majority workload=bias:2c n=2000 \
//         trials=8 k=2,4,8,16 engine=strict,batched" --out-dir out/quick
//   $ ./plurality_sweep --sweep sweeps/consensus_vs_k.json --out-dir out/k_grid \
//         --resume
//   $ ./plurality_sweep --sweep sweeps/adversary_budget.json --print-cells
#include <iostream>
#include <map>

#include "obs/trace.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/watchdog.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace plurality;

  CliParser cli("plurality_sweep",
                "expand, schedule, checkpoint, and aggregate a scenario grid");
  cli.add_string("sweep", "", "read the SweepSpec from this JSON file");
  cli.add_string("grid", "",
                 "compact sweep string: \"key=value[,value...] ...\" (commas make an axis)");
  cli.add_string("out-dir", "",
                 "checkpoint directory (manifest.json, cells/, aggregate.csv); empty "
                 "runs in memory only");
  cli.add_flag("resume", "skip cells whose result file already matches the grid");
  cli.add_flag("force", "start over inside a populated out-dir (deletes its cell files)");
  cli.add_uint("trials", 0, "override every cell's trial count (0 = spec values)");
  cli.add_flag("seq-cells",
               "run cells one at a time, each on its own thread plan");
  cli.add_uint("observe-m", 0,
               "track time-to-m-plurality with this m (adds ttm_* columns); overrides "
               "the spec's observe block");
  cli.add_uint("observe-trajectory", 0,
               "record this many per-trial trajectory rows per cell "
               "(cells/<id>_trajectory.csv)");
  cli.add_double("cell-timeout", 0.0,
                 "per-cell wall-clock deadline in seconds, watchdog-enforced "
                 "(0 = none); overruns count as failed_timeout and retry");
  cli.add_uint("retries", 2,
               "retries per cell after a retryable failure (timeout / crash / "
               "corrupt write); attempts persist across process deaths");
  cli.add_string("fault-plan", "",
                 "deterministic fault-injection plan (JSON); torture/CI use only");
  cli.add_uint("memory-budget-mb", 0,
               "preflight memory budget in MiB (0 = ~80% of physical RAM); "
               "oversized cells are refused as failed_spec");
  cli.add_flag("zero-wall-times",
               "write wall_seconds as 0 everywhere so identical grids produce "
               "bitwise-identical artifacts (CI golden comparisons)");
  cli.add_double("progress-seconds", 0.0,
                 "print an aggregate progress line (cells done/running/failed, "
                 "node-updates/s) every N seconds (0 = off)");
  cli.add_string("trace-out", "",
                 "write a Chrome trace-event JSON (cell attempts, trials, checkpoint "
                 "writes) to this file on exit");
  cli.add_flag("print-cells", "list the expanded cells and exit without running");
  cli.add_flag("quiet", "suppress per-cell progress lines");
  if (!cli.parse(argc, argv)) return 0;

  const bool from_file = !cli.get_string("sweep").empty();
  const bool from_grid = !cli.get_string("grid").empty();
  PLURALITY_REQUIRE(from_file != from_grid,
                    "plurality_sweep: pass exactly one of --sweep <file> or --grid "
                    "\"<spec>\" (see --help)");

  sweep::SweepSpec spec = from_file
                              ? sweep::SweepSpec::from_json_file(cli.get_string("sweep"))
                              : sweep::SweepSpec::parse(cli.get_string("grid"));
  if (cli.provided("observe-m")) {
    spec.observe.m_plurality = cli.get_uint("observe-m") > 0;
    spec.observe.m = cli.get_uint("observe-m");
  }
  if (cli.provided("observe-trajectory")) {
    spec.observe.trajectory = cli.get_uint("observe-trajectory");
  }

  if (cli.flag("print-cells")) {
    const auto cells = spec.expand();
    std::cout << cells.size() << " cells:\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::cout << "  " << sweep::cell_id(i) << "  " << cells[i].to_spec_string() << "\n";
    }
    return 0;
  }

  sweep::SweepOptions options;
  options.out_dir = cli.get_string("out-dir");
  options.resume = cli.flag("resume");
  options.force = cli.flag("force");
  options.cells_in_parallel = !cli.flag("seq-cells");
  options.trials_override = cli.get_uint("trials");
  options.cell_timeout_seconds = cli.get_double("cell-timeout");
  options.max_retries = static_cast<std::uint32_t>(cli.get_uint("retries"));
  options.memory_budget_bytes = cli.get_uint("memory-budget-mb") * (1ull << 20);
  options.zero_wall_times = cli.flag("zero-wall-times");
  options.progress_seconds = cli.get_double("progress-seconds");
  if (!cli.get_string("fault-plan").empty()) {
    options.fault_plan = sweep::FaultPlan::from_json_file(cli.get_string("fault-plan"));
  }
  if (!cli.flag("quiet")) {
    options.on_cell = [](const sweep::CellOutcome& cell, std::size_t done,
                         std::size_t total) {
      std::cout << "[" << done << "/" << total << "] " << cell.id << "  "
                << cell.requested.dynamics << " on " << cell.requested.topology << "  n="
                << format_count(cell.requested.n) << " k=" << cell.requested.k << "  ("
                << cell.resolved_backend << "/" << cell.requested.engine << ")"
                << (cell.resumed
                        ? "  [resumed]"
                        : "  rounds mean " +
                              (cell.metrics.rounds_mean >= 0
                                   ? format_sig(cell.metrics.rounds_mean, 4)
                                   : std::string("n/a")) +
                              ", " + format_duration(cell.metrics.wall_seconds))
                << "\n";
    };
  }

  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();

  sweep::install_shutdown_signal_handlers();
  const sweep::SweepOutcome outcome = sweep::run_sweep(spec, options);
  if (!trace_out.empty()) obs::TraceRecorder::global().write(trace_out);

  std::cout << "\nsweep complete: " << outcome.cells.size() << " cells (" << outcome.ran
            << " ran, " << outcome.resumed << " resumed) in "
            << format_duration(outcome.wall_seconds) << "\n";
  if (!outcome.aggregate_path.empty()) {
    std::cout << "aggregate -> " << outcome.aggregate_path << "\n"
              << "manifest  -> " << outcome.manifest_path << "\n";
  }

  if (outcome.failed > 0) {
    // Per-taxonomy failure summary; the full table is failures.csv.
    std::map<std::string, std::size_t> by_status;
    for (const sweep::CellOutcome& cell : outcome.cells) {
      if (sweep::cell_status_failed(cell.status)) {
        ++by_status[sweep::cell_status_name(cell.status)];
      }
    }
    std::cerr << "plurality_sweep: " << outcome.failed << " of " << outcome.cells.size()
              << " cells failed:";
    for (const auto& [status, count] : by_status) {
      std::cerr << "  " << status << "=" << count;
    }
    std::cerr << "\n";
    for (const sweep::CellOutcome& cell : outcome.cells) {
      if (sweep::cell_status_failed(cell.status)) {
        std::cerr << "  " << cell.id << " [" << sweep::cell_status_name(cell.status)
                  << ", " << cell.attempts << " attempt(s)]: " << cell.error << "\n";
      }
    }
    if (!outcome.failures_path.empty()) {
      std::cerr << "failure table -> " << outcome.failures_path << "\n";
    }
    std::cerr << "completed cells are checkpointed; rerun with --resume to retry "
                 "just the failures\n";
    return 2;
  }
  if (outcome.interrupted) {
    std::cerr << "plurality_sweep: interrupted by shutdown request; the out-dir is "
                 "resumable (rerun with --resume)\n";
    return 130;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Spec/validation/resume errors are user errors, not crashes: print the
  // actionable message and exit nonzero (completed cells stay on disk).
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "plurality_sweep: " << e.what() << "\n";
    return 1;
  }
}
