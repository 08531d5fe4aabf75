#include "sweep/orchestrator.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/thread_plan.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/preflight.hpp"
#include "sweep/sweep_dir.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::sweep {

namespace fs = std::filesystem;

const char* cell_status_name(CellStatus status) {
  switch (status) {
    case CellStatus::Pending: return "pending";
    case CellStatus::Done: return "done";
    case CellStatus::Resumed: return "resumed";
    case CellStatus::FailedTimeout: return "failed_timeout";
    case CellStatus::FailedCrash: return "failed_crash";
    case CellStatus::FailedCorrupt: return "failed_corrupt";
    case CellStatus::FailedSpec: return "failed_spec";
    case CellStatus::Interrupted: return "interrupted";
  }
  return "?";
}

bool cell_status_failed(CellStatus status) {
  switch (status) {
    case CellStatus::FailedTimeout:
    case CellStatus::FailedCrash:
    case CellStatus::FailedCorrupt:
    case CellStatus::FailedSpec:
      return true;
    default:
      return false;
  }
}

io::JsonValue cell_result_to_json(const CellOutcome& outcome) {
  scenario::ScenarioResult result;
  result.resolved = outcome.requested;
  result.resolved.backend = outcome.resolved_backend;
  result.summary = outcome.summary;
  result.wall_seconds = outcome.metrics.wall_seconds;
  io::JsonValue doc = scenario::scenario_result_to_json(result);

  io::JsonValue& cell = doc.set("cell", io::JsonValue::object());
  cell.set("index", std::uint64_t{outcome.index});
  cell.set("id", outcome.id);
  // The PRE-resolution spec string — what resume matches against, so a
  // re-expanded grid recognizes its own cells even through backend=auto.
  cell.set("requested", outcome.requested.to_spec_string());

  if (outcome.attempts > 1) {
    // Retry audit block: how many attempts this result took, and the
    // retry-derived stream tag (keys backoff jitter only — the summary
    // above is bitwise what attempt 1 would have produced).
    io::JsonValue& retry = doc.set("retry", io::JsonValue::object());
    retry.set("attempts", std::uint64_t{outcome.attempts});
    retry.set("stream_tag", outcome.retry_tag);
  }

  const CellMetrics& m = outcome.metrics;
  if (m.ttm_hits >= 0.0 || m.final_fraction_mean >= 0.0) {
    io::JsonValue& observers = doc.set("observers", io::JsonValue::object());
    if (m.ttm_hits >= 0.0) {
      io::JsonValue& ttm = observers.set("m_plurality", io::JsonValue::object());
      ttm.set("hits", static_cast<std::uint64_t>(m.ttm_hits));
      if (m.ttm_hits > 0.0) {
        ttm.set("p50", m.ttm_p50);
        ttm.set("p95", m.ttm_p95);
      }
    }
    if (m.final_fraction_mean >= 0.0) {
      io::JsonValue& fin = observers.set("final", io::JsonValue::object());
      fin.set("plurality_fraction_mean", m.final_fraction_mean);
      fin.set("support_mean", m.final_support_mean);
      fin.set("mono_distance_mean", m.final_mono_mean);
    }
  }
  return doc;
}

SweepOutcome run_sweep(const SweepSpec& spec_in, const SweepOptions& options) {
  WallTimer timer;
  SweepSpec spec = spec_in;
  SweepOutcome out;
  out.cells = effective_grid(spec, options.trials_override);
  const std::size_t total = out.cells.size();

  PLURALITY_REQUIRE(!options.out_dir.empty() || !options.resume,
                    "sweep: resume requires an out_dir");
  std::optional<SweepDir> dir;
  if (!options.out_dir.empty()) {
    dir.emplace(options.out_dir, spec, out.cells, options.resume, options.force);
    out.manifest_path = dir->manifest_path().string();
    out.failures_path = dir->failures_path().string();
  }

  FaultInjector injector(options.fault_plan, options.out_dir);

  // --- resume: trust verified cells whose payload matches their spec -----
  std::size_t done = 0;
  std::vector<std::size_t> pending;
  std::vector<std::uint32_t> prior_attempts(total, 0);
  pending.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    CellOutcome& cell = out.cells[i];
    if (options.resume) {
      if (dir->resume(cell)) {
        ++out.resumed;
        ++done;
        if (options.on_cell) options.on_cell(cell, done, total);
        continue;
      }
      // No trusted result; a surviving ledger records attempts that died
      // with the previous process.
      prior_attempts[i] = read_attempts_ledger(dir->ledger(cell));
    }
    pending.push_back(i);
  }

  // --- memory preflight ---------------------------------------------------
  const std::uint64_t budget = options.memory_budget_bytes > 0
                                   ? options.memory_budget_bytes
                                   : default_memory_budget_bytes();
  const unsigned threads = options.cells_in_parallel ? available_threads() : 1;

  // A graph cell whose thread plan gives its trials every thread (at least
  // `threads` trials) runs alone on that trial team, and so does a cell too
  // big to run next to siblings. Every other cell shares the cell team,
  // count cells whatever their trial count: their trials take micro- to
  // milliseconds, less than a trial team's fork and join.
  std::vector<std::size_t> shared_batch;
  std::vector<std::size_t> alone_batch;
  for (const std::size_t i : pending) {
    CellOutcome& cell = out.cells[i];
    const scenario::ScenarioSpec& spec = cell.requested;
    const bool graph_cell = cell_backend(spec) == "graph";
    const ThreadPlan plan = plan_threads(spec.trials, spec.n, threads, graph_cell);
    const bool own_team = graph_cell && plan.trial_team == threads;
    const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
    if (std::string refusal = preflight_refusal(estimate, budget); !refusal.empty()) {
      cell.status = CellStatus::FailedSpec;
      cell.error = std::move(refusal);
      ++done;
      if (options.on_cell) options.on_cell(cell, done, total);
    } else if (threads > 1 && (own_team || estimate > budget / threads)) {
      alone_batch.push_back(i);
    } else {
      shared_batch.push_back(i);
    }
  }

  // --- run cells (watchdogged, retried) -----------------------------------
  Watchdog watchdog;

  // Live telemetry: --progress-seconds implies metrics (the global
  // registry unless the caller supplied one). The progress thread reads
  // ONLY registry atomics — never the cell table, which worker threads own.
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr
          ? options.metrics
          : (options.progress_seconds > 0 ? &obs::MetricsRegistry::global() : nullptr);
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (options.progress_seconds > 0 && metrics != nullptr) {
    obs::Counter& updates =
        metrics->counter("engine_node_updates_total",
                         "Node state updates (one per node per round) across all trials");
    obs::Counter& started =
        metrics->counter("sweep_cells_started_total", "Cells entering the attempt loop");
    obs::Counter& finished =
        metrics->counter("sweep_cells_finished_total", "Cells run to Done");
    obs::Counter& failed =
        metrics->counter("sweep_cells_failed_total", "Cells with a failed_* verdict");
    const double interval = options.progress_seconds;
    const std::size_t grand_total = total;
    progress_thread = std::thread([&updates, &started, &finished, &failed, &progress_stop,
                                   interval, grand_total] {
      std::uint64_t last_updates = updates.value();
      auto last_time = std::chrono::steady_clock::now();
      while (!progress_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto now = std::chrono::steady_clock::now();
        const double elapsed = std::chrono::duration<double>(now - last_time).count();
        if (elapsed < interval) continue;
        const std::uint64_t now_updates = updates.value();
        const double rate = static_cast<double>(now_updates - last_updates) / elapsed;
        last_updates = now_updates;
        last_time = now;
        const std::uint64_t s = started.value();
        const std::uint64_t f = finished.value();
        const std::uint64_t x = failed.value();
        std::fprintf(stderr,
                     "[sweep] %llu/%zu done, %llu running, %llu failed | %.3g node-upd/s\n",
                     static_cast<unsigned long long>(f + x), grand_total,
                     static_cast<unsigned long long>(s - (f + x)),
                     static_cast<unsigned long long>(x), rate);
      }
    });
  }

  const auto run_cell = [&](std::size_t i) {
    CellOutcome& cell = out.cells[i];
    if (shutdown_requested()) return;  // skipped cells stay Pending (resumable)

    CellRunContext ctx;
    ctx.cells_dir = dir ? dir->cells_dir() : fs::path();
    ctx.observe = spec.observe;
    ctx.zero_wall_times = options.zero_wall_times;
    ctx.cell_timeout_seconds = options.cell_timeout_seconds;
    ctx.max_retries = options.max_retries;
    ctx.retry_backoff_seconds = options.retry_backoff_seconds;
    ctx.prior_attempts = prior_attempts[i];
    ctx.injector = &injector;
    ctx.watchdog = &watchdog;
    ctx.metrics = metrics;
    run_cell_to_verdict(cell, ctx);

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp critical(plurality_sweep_progress)
#endif
    {
      ++done;
      if (options.on_cell) options.on_cell(cell, done, total);
    }
  };

#if defined(PLURALITY_HAVE_OPENMP)
  if (threads > 1) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::size_t p = 0; p < shared_batch.size(); ++p) run_cell(shared_batch[p]);
  } else
#endif
  {
    for (const std::size_t i : shared_batch) run_cell(i);
  }
  // Alone phase: each cell runs on its own thread plan.
  for (const std::size_t i : alone_batch) run_cell(i);

  if (progress_thread.joinable()) {
    progress_stop.store(true, std::memory_order_release);
    progress_thread.join();
  }

  // --- account statuses ----------------------------------------------------
  for (const CellOutcome& cell : out.cells) {
    switch (cell.status) {
      case CellStatus::Done:
        ++out.ran;
        break;
      case CellStatus::Resumed:
        break;
      case CellStatus::Interrupted:
      case CellStatus::Pending:
        out.interrupted = true;
        break;
      default:
        ++out.failed;
        break;
    }
  }
  if (shutdown_requested()) out.interrupted = true;

  if (dir && dir->finish(out.cells, options.zero_wall_times)) {
    out.aggregate_path = dir->aggregate_path().string();
  }

  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace plurality::sweep
