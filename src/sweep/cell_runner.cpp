#include "sweep/cell_runner.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "core/observer.hpp"
#include "io/checkpoint.hpp"
#include "io/csv.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/trace.hpp"
#include "rng/philox.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "support/format.hpp"

namespace plurality::sweep {

namespace fs = std::filesystem;

namespace {

/// Stream-family tag for retry-scoped randomness (backoff jitter). Trial
/// streams NEVER derive from it — a retried cell reproduces its
/// first-attempt results bitwise.
constexpr std::uint64_t kRetryStreamTag = 0x7265747279ull;  // "retry"

/// Retry-scoped Philox word. Keys backoff jitter and the audit tag ONLY.
std::uint64_t retry_stream_word(std::uint64_t cell_seed, std::uint32_t attempt,
                                std::uint64_t w) {
  return rng::Philox4x32::word(rng::Philox4x32::key_from_seed(cell_seed, kRetryStreamTag),
                               attempt, w);
}

ProbeOptions probe_options(const ObserveSpec& observe, std::uint64_t trials) {
  ProbeOptions options;
  options.trials = trials;
  options.trajectory_capacity = observe.trajectory;
  options.trajectory_stride = observe.trajectory_stride;
  options.track_m_plurality = observe.m_plurality;
  options.m_plurality = observe.m;
  return options;
}

CellMetrics metrics_from_run(const TrialSummary& summary, double wall_seconds,
                             const ProbeObserver* probe, const ObserveSpec& observe) {
  CellMetrics m;
  m.trials = summary.trials;
  m.consensus_count = summary.consensus_count;
  m.plurality_wins = summary.plurality_wins;
  m.round_limit_hits = summary.round_limit_hits;
  m.predicate_stops = summary.predicate_stops;
  m.rounds_count = summary.rounds.count();
  m.consensus_rate = summary.consensus_rate();
  m.win_rate = summary.win_rate();
  if (summary.rounds.count() > 0) {
    m.rounds_mean = summary.rounds.mean();
    m.rounds_min = summary.rounds.min();
    m.rounds_max = summary.rounds.max();
    m.rounds_p50 = summary.rounds_p(0.5);
    m.rounds_p95 = summary.rounds_p(0.95);
  }
  m.wall_seconds = wall_seconds;
  if (probe != nullptr) {
    if (probe->final_plurality_fraction().count() > 0) {
      m.final_fraction_mean = probe->final_plurality_fraction().mean();
      m.final_support_mean = probe->final_support().mean();
      m.final_mono_mean = probe->final_mono_distance().mean();
    }
    if (observe.m_plurality) {
      m.ttm_hits = static_cast<double>(probe->m_plurality_hits());
      if (probe->m_plurality_hits() > 0) {
        m.ttm_p50 = probe->time_to_m_sketch().quantile(0.5);
        m.ttm_p95 = probe->time_to_m_sketch().quantile(0.95);
      }
    }
  }
  return m;
}

void write_trajectory_csv(const fs::path& path, const ProbeObserver& probe) {
  const fs::path tmp = path.string() + ".tmp";
  {
    io::CsvWriter csv(tmp.string(),
                      {"trial", "round", "plurality_fraction", "support", "mono_distance"});
    for (std::uint64_t trial = 0; trial < probe.options().trials; ++trial) {
      for (const ProbeRow& row : probe.trajectory(trial)) {
        csv.add_row({std::to_string(trial), std::to_string(row.round),
                     format_sig(row.plurality_fraction, 12),
                     std::to_string(static_cast<std::uint64_t>(row.support)),
                     format_sig(row.mono_distance, 12)});
      }
    }
  }
  fs::rename(tmp, path);
}

/// Chunked sleep that gives up early on shutdown — a backoff must never
/// outlive a Ctrl-C.
void backoff_sleep(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() - start < budget) {
    if (shutdown_requested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// First-write-wins commit: link(2) refuses to clobber, so whichever
/// writer links first owns the cell. The loser verifies the winner's CRC —
/// a verified file IS this cell's result (same seed => same bytes under
/// zero_wall_times) — and a corrupt "winner" is quarantined so the link
/// can be retried with honest bytes.
void commit_first_write_wins(const fs::path& tmp, const fs::path& target,
                             const fs::path& quarantine_dir) {
  for (int round = 0; round < 8; ++round) {
    if (::link(tmp.c_str(), target.c_str()) == 0) {
      fs::remove(tmp);
      return;
    }
    PLURALITY_REQUIRE(errno == EEXIST, "sweep: cannot commit " << target.string() << ": "
                                                               << std::strerror(errno));
    try {
      (void)io::read_checkpoint_file(target.string());
      fs::remove(tmp);  // verified winner: our bytes are redundant
      return;
    } catch (const io::CheckpointSchemaError&) {
      throw;  // version skew is a hard refusal, never a silent overwrite
    } catch (const io::CheckpointCorruptError&) {
      const std::string moved = quarantine_file(target, quarantine_dir);
      std::fprintf(stderr, "sweep: quarantined corrupt checkpoint %s -> %s\n",
                   target.string().c_str(), moved.c_str());
    } catch (const CheckError&) {
      // Racing quarantine by another process: target vanished between the
      // failed link and the read. Retry the link.
    }
  }
  PLURALITY_REQUIRE(false, "sweep: first-write-wins commit of " << target.string()
                                                                << " kept colliding");
}

}  // namespace

double retry_backoff_seconds(double base, std::uint64_t cell_seed, std::uint32_t attempt) {
  const double jitter =
      static_cast<double>(retry_stream_word(cell_seed, attempt, 1) % 1000) / 1000.0;
  const std::uint32_t doublings = attempt - 1 < 20 ? attempt - 1 : 20;
  return base * static_cast<double>(std::uint64_t{1} << doublings) * (1.0 + jitter);
}

std::string retry_tag_hex(std::uint64_t cell_seed, std::uint32_t attempt) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(retry_stream_word(cell_seed, attempt, 0)));
  return buf;
}

fs::path ledger_path(const fs::path& cells_dir, const std::string& id) {
  return cells_dir / (id + ".attempts.json");
}

std::uint32_t read_attempts_ledger(const fs::path& path) {
  if (!fs::exists(path)) return 0;
  try {
    return static_cast<std::uint32_t>(
        io::read_json_file(path.string()).at("attempts").as_uint());
  } catch (const CheckError&) {
    return 0;  // unreadable ledger: assume nothing, the cell just retries
  }
}

void write_attempts_ledger(const fs::path& path, std::uint32_t attempts) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("attempts", std::uint64_t{attempts});
  io::atomic_write_text(path.string(), doc.to_string());
}

std::string quarantine_file(const fs::path& path, const fs::path& quarantine_dir) {
  fs::create_directories(quarantine_dir);
  fs::path target = quarantine_dir / path.filename();
  for (int n = 1; fs::exists(target); ++n) {
    target = quarantine_dir / (path.filename().string() + "." + std::to_string(n));
  }
  fs::rename(path, target);
  return target.string();
}

CellMetrics metrics_from_json(const io::JsonValue& doc) {
  CellMetrics m;
  const io::JsonValue& summary = doc.at("summary");
  m.trials = summary.at("trials").as_uint();
  m.consensus_count = summary.at("consensus_count").as_uint();
  m.plurality_wins = summary.at("plurality_wins").as_uint();
  m.round_limit_hits = summary.at("round_limit_hits").as_uint();
  m.predicate_stops = summary.at("predicate_stops").as_uint();
  m.consensus_rate = summary.at("consensus_rate").as_double();
  m.win_rate = summary.at("win_rate").as_double();
  const io::JsonValue& rounds = summary.at("rounds");
  m.rounds_count = rounds.at("count").as_uint();
  if (m.rounds_count > 0) {
    m.rounds_mean = rounds.at("mean").as_double();
    m.rounds_min = rounds.at("min").as_double();
    m.rounds_max = rounds.at("max").as_double();
    m.rounds_p50 = rounds.at("p50").as_double();
    m.rounds_p95 = rounds.at("p95").as_double();
  }
  m.wall_seconds = doc.at("wall_seconds").as_double();
  if (const io::JsonValue* observers = doc.get("observers")) {
    if (const io::JsonValue* ttm = observers->get("m_plurality")) {
      m.ttm_hits = static_cast<double>(ttm->at("hits").as_uint());
      if (const io::JsonValue* p50 = ttm->get("p50")) m.ttm_p50 = p50->as_double();
      if (const io::JsonValue* p95 = ttm->get("p95")) m.ttm_p95 = p95->as_double();
    }
    if (const io::JsonValue* fin = observers->get("final")) {
      m.final_fraction_mean = fin->at("plurality_fraction_mean").as_double();
      m.final_support_mean = fin->at("support_mean").as_double();
      m.final_mono_mean = fin->at("mono_distance_mean").as_double();
    }
  }
  return m;
}

CellScan scan_cell_file(const fs::path& path, const fs::path& quarantine_dir,
                        CellOutcome& cell) {
  if (!fs::exists(path)) return CellScan::Missing;
  obs::TraceSpan span("scan_cell_file", "sweep", cell.id);
  try {
    const io::JsonValue doc = io::read_checkpoint_file(path.string());
    if (doc.at("cell").at("requested").as_string() != cell.requested.to_spec_string()) {
      // A verified file for a DIFFERENT spec: not corruption — the grid
      // changed around it (whole-manifest skew is caught separately);
      // recompute.
      return CellScan::SpecMismatch;
    }
    cell.metrics = metrics_from_json(doc);
    cell.resolved_backend = doc.at("spec").at("backend").as_string();
    if (const io::JsonValue* retry = doc.get("retry")) {
      cell.attempts = static_cast<std::uint32_t>(retry->at("attempts").as_uint());
      cell.retry_tag = retry->at("stream_tag").as_string();
    }
    return CellScan::Trusted;
  } catch (const io::CheckpointSchemaError&) {
    throw;  // version skew is a hard, actionable refusal — never silent
  } catch (const CheckError&) {
    // Corrupt (CRC mismatch, truncation, malformed envelope) or a verified
    // envelope with an impossible payload shape: quarantine the bytes as
    // evidence, recompute the cell.
    const std::string moved = quarantine_file(path, quarantine_dir);
    std::fprintf(stderr, "sweep: quarantined corrupt checkpoint %s -> %s\n",
                 path.string().c_str(), moved.c_str());
    return CellScan::Quarantined;
  }
}

void run_cell_to_verdict(CellOutcome& cell, const CellRunContext& ctx) {
  PLURALITY_REQUIRE(ctx.injector != nullptr && ctx.watchdog != nullptr,
                    "sweep: run_cell_to_verdict needs an injector and a watchdog");
  const bool files = !ctx.cells_dir.empty();
  const fs::path quarantine_dir = ctx.cells_dir / "quarantine";
  const std::string spec_string = cell.requested.to_spec_string();
  const fs::path cell_path = files ? ctx.cells_dir / (cell.id + ".json") : fs::path();
  const fs::path ledger = files ? ledger_path(ctx.cells_dir, cell.id) : fs::path();
  const bool probes_on = ctx.observe.m_plurality || ctx.observe.trajectory > 0;
  const std::size_t i = cell.index;

  CancellationToken local_token;
  CancellationToken* token = ctx.token != nullptr ? ctx.token : &local_token;

  // Cell-level telemetry. Handles resolve once here; a null registry costs
  // nothing below (every use is guarded).
  obs::Counter* cells_started = nullptr;
  obs::Counter* cells_done = nullptr;
  obs::Counter* cells_failed = nullptr;
  obs::Counter* cell_retries = nullptr;
  obs::Counter* cell_cancellations = nullptr;
  if (ctx.metrics != nullptr) {
    cells_started = &ctx.metrics->counter("sweep_cells_started_total",
                                          "Cells entering the attempt loop");
    cells_done =
        &ctx.metrics->counter("sweep_cells_finished_total", "Cells run to Done");
    cells_failed =
        &ctx.metrics->counter("sweep_cells_failed_total", "Cells with a failed_* verdict");
    cell_retries = &ctx.metrics->counter("sweep_cell_retries_total",
                                         "Cell attempts after the first");
    cell_cancellations = &ctx.metrics->counter(
        "sweep_cell_cancellations_total", "Cell attempts cancelled (shutdown/lease/timeout)");
    cells_started->add(1);
  }

  std::uint32_t attempt = ctx.prior_attempts;
  if (ctx.single_attempt > 0) {
    attempt = ctx.single_attempt - 1;  // the loop's ++ lands on the leased attempt
  } else if (attempt > ctx.max_retries) {
    // The ledger shows this cell already burned its whole budget killing
    // processes — do not run it an (N+2)th time.
    cell.status = CellStatus::FailedCrash;
    cell.attempts = attempt;
    cell.error = "process died during " + std::to_string(attempt) +
                 " attempt(s) (attempts ledger); retry budget exhausted";
    if (files) fs::remove(ledger);  // a future resume starts fresh
  }

  while (cell.status == CellStatus::Pending) {
    ++attempt;
    cell.attempts = attempt;
    obs::TraceSpan attempt_span("cell_attempt", "sweep",
                                cell.id + " attempt " + std::to_string(attempt));
    if (cell_retries != nullptr && attempt > ctx.prior_attempts + 1) cell_retries->add(1);
    if (attempt > 1) {
      cell.retry_tag = retry_tag_hex(cell.requested.seed, attempt);
    }
    if (files) write_attempts_ledger(ledger, attempt);

    token->reset();
    const auto deadline =
        ctx.cell_timeout_seconds > 0
            ? Watchdog::Clock::now() + std::chrono::duration_cast<Watchdog::Clock::duration>(
                  std::chrono::duration<double>(ctx.cell_timeout_seconds))
            : Watchdog::Clock::time_point::max();
    const std::uint64_t handle = ctx.watchdog->watch(token, deadline);

    CellStatus failure = CellStatus::Pending;  // Pending = no failure yet
    try {
      ctx.injector->at_driver_start(i, cell.id, spec_string, token);

      std::unique_ptr<ProbeObserver> probe;
      if (probes_on) {
        probe = std::make_unique<ProbeObserver>(
            probe_options(ctx.observe, cell.requested.trials));
      }
      // Metrics stack ON TOP of the probes: the MetricsObserver forwards
      // every callback, so probe products are untouched and the drivers
      // still see exactly one observer.
      std::unique_ptr<obs::MetricsObserver> metrics_observer;
      RoundObserver* observer = probe.get();
      if (ctx.metrics != nullptr) {
        metrics_observer = std::make_unique<obs::MetricsObserver>(*ctx.metrics, probe.get());
        observer = metrics_observer.get();
      }
      const scenario::ScenarioResult result =
          scenario::run_scenario(cell.requested, observer, token);
      if (probe != nullptr) probe->finalize();
      cell.resolved_backend = result.resolved.backend;
      cell.summary = result.summary;
      cell.metrics = metrics_from_run(result.summary,
                                      ctx.zero_wall_times ? 0.0 : result.wall_seconds,
                                      probe.get(), ctx.observe);
      if (files) {
        obs::TraceSpan write_span("checkpoint_write", "sweep", cell.id);
        std::string text = io::checkpoint_envelope_text(cell_result_to_json(cell));
        ctx.injector->mutate_checkpoint_text(i, cell.id, spec_string, text);
        ctx.injector->at_write_point(i, cell.id, spec_string, CrashPoint::BeforeWrite);
        const fs::path tmp = cell_path.string() + ".tmp";
        {
          std::ofstream out_file(tmp, std::ios::binary | std::ios::trunc);
          out_file << text;
          out_file.flush();
          PLURALITY_REQUIRE(out_file.good(), "sweep: cannot write " << tmp.string());
        }
        ctx.injector->at_write_point(i, cell.id, spec_string, CrashPoint::MidWrite);
        if (ctx.first_write_wins) {
          commit_first_write_wins(tmp, cell_path, quarantine_dir);
        } else {
          fs::rename(tmp, cell_path);
        }
        ctx.injector->at_write_point(i, cell.id, spec_string, CrashPoint::AfterWrite);

        // Read-back verification closes the loop: if what landed on disk
        // does not CRC-verify (injected corruption, actual I/O fault),
        // this attempt FAILED even though the driver succeeded.
        try {
          (void)io::read_checkpoint_file(cell_path.string());
        } catch (const io::CheckpointCorruptError& e) {
          const std::string moved = quarantine_file(cell_path, quarantine_dir);
          throw io::CheckpointCorruptError(std::string(e.what()) +
                                           " (quarantined to " + moved + ")");
        }
        if (ctx.observe.trajectory > 0 && probe != nullptr) {
          write_trajectory_csv(ctx.cells_dir / (cell.id + "_trajectory.csv"), *probe);
        }
      }
      cell.status = CellStatus::Done;
      cell.error.clear();
      if (files) fs::remove(ledger);
    } catch (const CancelledError& e) {
      if (cell_cancellations != nullptr) cell_cancellations->add(1);
      if (e.reason() == CancellationToken::Reason::kShutdown) {
        // Not a failure: the user asked the whole sweep to stop. Drop
        // the ledger — a clean cancellation is not a crash.
        cell.status = CellStatus::Interrupted;
        cell.error = e.what();
        if (files) fs::remove(ledger);
      } else if (e.reason() == CancellationToken::Reason::kLeaseLost) {
        // The master reassigned this cell while we ran it. Whoever holds
        // the new lease owns the ledger now — leave it alone.
        cell.status = CellStatus::Interrupted;
        cell.error = e.what();
      } else {
        failure = CellStatus::FailedTimeout;
        cell.error = e.what();
      }
    } catch (const io::CheckpointCorruptError& e) {
      failure = CellStatus::FailedCorrupt;
      cell.error = e.what();
    } catch (const CheckError& e) {
      // Spec/validation errors are deterministic — retrying re-proves them.
      cell.status = CellStatus::FailedSpec;
      cell.error = e.what();
      if (files) fs::remove(ledger);
    } catch (const std::exception& e) {
      failure = CellStatus::FailedCrash;
      cell.error = e.what();
    }
    ctx.watchdog->unwatch(handle);

    if (failure == CellStatus::Pending) break;  // success / terminal verdict
    if (ctx.single_attempt > 0) {
      // Service worker mode: one attempt per lease. Report the failure and
      // KEEP the ledger — the master owns the retry/terminal decision and
      // prunes the ledger when the cell's story ends.
      cell.status = failure;
      break;
    }
    if (shutdown_requested()) {
      // A retryable failure racing a shutdown stays RESUMABLE, not failed.
      cell.status = CellStatus::Interrupted;
      if (files) fs::remove(ledger);
      break;
    }
    if (attempt > ctx.max_retries) {
      cell.status = failure;
      if (files) fs::remove(ledger);  // a future resume starts fresh
      break;
    }
    backoff_sleep(
        retry_backoff_seconds(ctx.retry_backoff_seconds, cell.requested.seed, attempt));
  }

  if (ctx.metrics != nullptr) {
    if (cell.status == CellStatus::Done) {
      cells_done->add(1);
    } else if (cell_status_failed(cell.status)) {
      cells_failed->add(1);
    }
  }
}

}  // namespace plurality::sweep
