#include "sweep/orchestrator.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/thread_plan.hpp"
#include "io/checkpoint.hpp"
#include "io/csv.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/preflight.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::sweep {

namespace fs = std::filesystem;

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

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

std::vector<std::string> aggregate_columns(const SweepSpec& spec) {
  std::vector<std::string> columns = {
      "cell",        "dynamics",       "workload",   "topology",   "adversary",
      "backend",     "engine",         "stop",       "n",          "k",
      "trials",      "seed",           "max_rounds", "consensus_rate",
      "win_rate",    "rounds_mean",    "rounds_p50", "rounds_p95", "rounds_min",
      "rounds_max",  "round_limit_hits", "predicate_stops", "wall_seconds"};
  const bool probes = spec.observe.m_plurality || spec.observe.trajectory > 0;
  if (spec.observe.m_plurality) {
    columns.insert(columns.end(), {"ttm_hits", "ttm_p50", "ttm_p95"});
  }
  if (probes) {
    columns.insert(columns.end(),
                   {"final_fraction_mean", "final_support_mean", "final_mono_mean"});
  }
  return columns;
}

std::vector<std::string> aggregate_row(const SweepSpec& spec, const CellOutcome& outcome) {
  const scenario::ScenarioSpec& s = outcome.requested;
  const CellMetrics& m = outcome.metrics;
  std::vector<std::string> row = {
      outcome.id,
      s.dynamics,
      s.workload,
      s.topology,
      s.adversary,
      outcome.resolved_backend,
      s.engine,
      s.stop,
      std::to_string(s.n),
      std::to_string(s.k),
      std::to_string(m.trials),
      std::to_string(s.seed),
      std::to_string(s.max_rounds),
      fmt_double(m.consensus_rate),
      fmt_double(m.win_rate),
      fmt_double(m.rounds_mean),
      fmt_double(m.rounds_p50),
      fmt_double(m.rounds_p95),
      fmt_double(m.rounds_min),
      fmt_double(m.rounds_max),
      std::to_string(m.round_limit_hits),
      std::to_string(m.predicate_stops),
      fmt_double(m.wall_seconds)};
  const bool probes = spec.observe.m_plurality || spec.observe.trajectory > 0;
  if (spec.observe.m_plurality) {
    row.push_back(fmt_double(m.ttm_hits));
    row.push_back(fmt_double(m.ttm_p50));
    row.push_back(fmt_double(m.ttm_p95));
  }
  if (probes) {
    row.push_back(fmt_double(m.final_fraction_mean));
    row.push_back(fmt_double(m.final_support_mean));
    row.push_back(fmt_double(m.final_mono_mean));
  }
  return row;
}

io::JsonValue manifest_to_json(const SweepSpec& spec,
                               const std::vector<CellOutcome>& cells) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("schema_version", std::uint64_t{io::kCheckpointSchema});
  doc.set("sweep", spec.to_json());
  io::JsonValue& cell_list = doc.set("cells", io::JsonValue::array());
  for (const CellOutcome& cell : cells) {
    io::JsonValue& entry = cell_list.push(io::JsonValue::object());
    entry.set("index", std::uint64_t{cell.index});
    entry.set("id", cell.id);
    entry.set("spec", cell.requested.to_spec_string());
    entry.set("status", cell_status_name(cell.status));
    if (cell.attempts > 0) entry.set("attempts", std::uint64_t{cell.attempts});
    if (!cell.error.empty()) entry.set("error", cell.error);
  }
  return doc;
}

void write_failures_csv(const std::string& path, const std::vector<CellOutcome>& cells) {
  const fs::path tmp = path + ".tmp";
  {
    io::CsvWriter csv(tmp.string(), {"cell", "status", "attempts", "retry_tag", "error"});
    for (const CellOutcome& cell : cells) {
      if (!cell_status_failed(cell.status)) continue;
      csv.add_row({cell.id, cell_status_name(cell.status),
                   std::to_string(cell.attempts), cell.retry_tag, cell.error});
    }
  }
  fs::rename(tmp, path);
}

void write_aggregate_csv(const std::string& path, const SweepSpec& spec,
                         std::vector<CellOutcome>& cells, bool zero_wall_times) {
  const fs::path tmp = path + ".tmp";
  {
    io::CsvWriter csv(tmp.string(), aggregate_columns(spec));
    for (CellOutcome& cell : cells) {
      if (zero_wall_times) cell.metrics.wall_seconds = 0.0;
      csv.add_row(aggregate_row(spec, cell));
    }
  }
  fs::rename(tmp, path);
}

SweepOutcome run_sweep(const SweepSpec& spec_in, const SweepOptions& options) {
  WallTimer timer;
  SweepSpec spec = spec_in;
  if (options.trials_override > 0) {
    for (const SweepAxis& axis : spec.axes) {
      PLURALITY_REQUIRE(axis.field != "trials",
                        "sweep: trials_override cannot combine with a 'trials' axis");
    }
    spec.base.trials = options.trials_override;
  }

  const std::vector<scenario::ScenarioSpec> expanded = spec.expand();
  const std::size_t total = expanded.size();

  SweepOutcome out;
  out.cells.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    out.cells[i].index = i;
    out.cells[i].id = cell_id(i);
    out.cells[i].requested = expanded[i];
  }

  // --- checkpoint directory + manifest -----------------------------------
  const bool files = !options.out_dir.empty();
  PLURALITY_REQUIRE(files || !options.resume, "sweep: resume requires an out_dir");
  fs::path cells_dir;
  fs::path quarantine_dir;
  fs::path manifest;
  if (files) {
    const fs::path dir(options.out_dir);
    cells_dir = dir / "cells";
    quarantine_dir = cells_dir / "quarantine";
    fs::create_directories(cells_dir);
    manifest = dir / "manifest.json";
    const std::string sweep_json = spec.to_json().to_string();
    if (fs::exists(manifest)) {
      if (options.resume) {
        // Schema skew and corruption both surface here with their own
        // actionable errors (a corrupt manifest means the cell table's
        // provenance is unverifiable — use a fresh out_dir).
        const io::JsonValue stored = io::read_checkpoint_file(manifest.string());
        PLURALITY_REQUIRE(stored.at("sweep").to_string() == sweep_json,
                          "sweep: manifest at " << manifest.string()
                              << " records a DIFFERENT sweep (spec or trial override "
                                 "changed); refusing to resume a mixed grid — use a "
                                 "fresh out_dir");
      } else {
        PLURALITY_REQUIRE(options.force,
                          "sweep: " << manifest.string()
                              << " already exists; pass resume to continue that sweep "
                                 "or force to start over (cell files get overwritten)");
      }
    }
    // A killed run can leave *.tmp staging files (never partial results —
    // the rename is atomic). Sweep them before writing anything new.
    remove_stray_tmp_files(dir);
    remove_stray_tmp_files(cells_dir);
    io::write_checkpoint_file(manifest.string(), manifest_to_json(spec, out.cells));
    out.manifest_path = manifest.string();
    out.failures_path = (dir / "failures.csv").string();
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
      const fs::path path = cells_dir / (cell.id + ".json");
      if (scan_cell_file(path, quarantine_dir, cell) == CellScan::Trusted) {
        cell.status = CellStatus::Resumed;
        cell.resumed = true;
        fs::remove(ledger_path(cells_dir, cell.id));  // stale crash ledger
        ++out.resumed;
        ++done;
        if (options.on_cell) options.on_cell(cell, done, total);
        continue;
      }
      // No trusted result; a surviving ledger records attempts that died
      // with the previous process.
      prior_attempts[i] = read_attempts_ledger(ledger_path(cells_dir, cell.id));
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
    const ThreadPlan plan =
        plan_threads(spec.parallel ? spec.trials : 1, spec.n, threads, graph_cell);
    const bool own_team = graph_cell && plan.trial_team == threads;
    const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
    if (estimate > budget) {
      cell.status = CellStatus::FailedSpec;
      cell.error = "preflight: estimated peak memory " + format_bytes(estimate) +
                   " exceeds the sweep budget " + format_bytes(budget) +
                   " (raise memory_budget_bytes or shrink the cell)";
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

  const auto run_cell = [&](std::size_t i, bool in_cell_team) {
    CellOutcome& cell = out.cells[i];
    if (shutdown_requested()) return;  // skipped cells stay Pending (resumable)

    CellRunContext ctx;
    ctx.cells_dir = files ? cells_dir : fs::path();
    ctx.observe = spec.observe;
    ctx.zero_wall_times = options.zero_wall_times;
    ctx.cell_timeout_seconds = options.cell_timeout_seconds;
    ctx.max_retries = options.max_retries;
    ctx.retry_backoff_seconds = options.retry_backoff_seconds;
    ctx.force_serial_trials = in_cell_team;
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
#pragma omp parallel for schedule(dynamic, 1)
    for (std::size_t p = 0; p < shared_batch.size(); ++p) {
      run_cell(shared_batch[p], true);
    }
  } else
#endif
  {
    for (const std::size_t i : shared_batch) run_cell(i, false);
  }
  // Alone phase: each cell runs on its own thread plan.
  for (const std::size_t i : alone_batch) run_cell(i, false);

  if (progress_thread.joinable()) {
    progress_stop.store(true, std::memory_order_release);
    progress_thread.join();
  }

  // --- account statuses ----------------------------------------------------
  bool complete = true;
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
        complete = false;
        break;
      default:
        ++out.failed;
        complete = false;
        break;
    }
  }
  if (shutdown_requested()) out.interrupted = true;

  // --- failure table + final manifest -------------------------------------
  if (files) {
    // Prune attempts ledgers for cells that reached a clean verdict — a
    // ledger's job ends when its cell's story does. (Covers ledgers left
    // by OTHER processes of this out_dir, e.g. a service worker that died
    // between committing the cell file and removing its ledger.)
    for (const CellOutcome& cell : out.cells) {
      if (cell.status == CellStatus::Done || cell.status == CellStatus::Resumed) {
        fs::remove(ledger_path(cells_dir, cell.id));
      }
    }
    write_failures_csv((fs::path(options.out_dir) / "failures.csv").string(), out.cells);
    io::write_checkpoint_file(manifest.string(), manifest_to_json(spec, out.cells));
  }

  // --- aggregate (complete runs only) --------------------------------------
  if (files && complete) {
    const std::string aggregate = (fs::path(options.out_dir) / "aggregate.csv").string();
    write_aggregate_csv(aggregate, spec, out.cells, options.zero_wall_times);
    out.aggregate_path = aggregate;
  }

  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace plurality::sweep
