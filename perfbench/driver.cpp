// perfbench_driver — the in-process half of the end-to-end benchmark.
//
// run.py launches one fresh driver process per unit of work and reads the
// single JSON line it prints last. Every mode goes through the library's
// public entry points (ScenarioSpec -> Scenario::compile -> Scenario::run,
// sweep::run_sweep, io::read_checkpoint_file); the driver only adds clocks
// around those calls and, with --trace-out, its own spans next to the
// program's existing ones in obs::TraceRecorder.
//
//   perfbench_driver env
//   perfbench_driver scenario --spec "<compact spec>" --out result.json
//                             [--trace-out spans.json]
//   perfbench_driver graph-probe --spec "<compact spec>"
//   perfbench_driver sweep --sweep grid.json --trials 512 --out-dir dir
//                          [--trace-out spans.json]
//   perfbench_driver verify --out-dir dir
//
// "ready_us" in the scenario and sweep output is the instant set-up ended
// and simulation work could start.
//
// Timestamps are steady-clock microseconds (TraceRecorder::now_us), the
// same clock as Python's time.monotonic() on Linux, so run.py can place
// driver spans, program spans and its own process spans on one timeline.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <vector>

#include "core/observer.hpp"
#include "graph/batched_simd.hpp"
#include "graph/topology_registry.hpp"
#include "io/checkpoint.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/stream.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/preflight.hpp"
#include "sweep/sweep_spec.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

// The graph probe builds what Scenario::compile builds. While the
// graph_layout relabeling exists it is an argument of make_topology; the
// benchmark must keep compiling once the relabeling is deleted.
#if __has_include("graph/layout.hpp")
#include "graph/layout.hpp"
#define PERFBENCH_GRAPH_LAYOUT 1
#else
#define PERFBENCH_GRAPH_LAYOUT 0
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace plurality;
namespace fs = std::filesystem;

double now_us() { return obs::TraceRecorder::now_us(); }

double seconds_since(double start_us) { return (now_us() - start_us) * 1e-6; }

/// Records one benchmark-side span on the calling thread's trace lane.
void span(const char* name, const char* layer, double start_us) {
  obs::TraceRecorder::global().record(name, layer, start_us, now_us() - start_us);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int team_lane() {
#if defined(PLURALITY_HAVE_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

int max_team() {
#if defined(PLURALITY_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Σ rounds over all trials: stopped trials from the round statistics,
/// capped trials at the cap — what every trial actually stepped.
std::uint64_t total_rounds(const io::JsonValue& summary, std::uint64_t max_rounds) {
  const io::JsonValue& rounds = summary.at("rounds");
  const std::uint64_t stopped = rounds.at("count").as_uint();
  const double stepped =
      stopped > 0 ? std::round(rounds.at("mean").as_double() * static_cast<double>(stopped))
                  : 0.0;
  return static_cast<std::uint64_t>(stepped) +
         summary.at("round_limit_hits").as_uint() * max_rounds;
}

/// Per-round wall clock of every trial. Trials on different OpenMP lanes
/// call in concurrently, so every write goes to the trial's own slot or
/// the calling lane's slot (RoundObserver's disjoint-slot contract).
class TimingObserver final : public RoundObserver {
 public:
  TimingObserver(std::uint64_t trials, double run_start_us)
      : begin_(trials, 0.0),
        last_(trials, 0.0),
        init_s_(trials, 0.0),
        rounds_(trials),
        lane_end_(static_cast<std::size_t>(max_team()), run_start_us) {}

  void begin_trial(std::uint64_t trial, const Configuration&, state_t) override {
    const double t = now_us();
    const double lane_start = lane_end_[static_cast<std::size_t>(team_lane())];
    init_s_[trial] = (t - lane_start) * 1e-6;
    obs::TraceRecorder::global().record("trial_init", "core", lane_start, t - lane_start);
    begin_[trial] = last_[trial] = t;
  }

  void observe_round(std::uint64_t trial, round_t, const Configuration&, state_t) override {
    const double t = now_us();
    rounds_[trial].push_back((t - last_[trial]) * 1e-6);
    last_[trial] = t;
  }

  void end_trial(std::uint64_t trial, StopReason, round_t, const Configuration&,
                 state_t) override {
    const double t = now_us();
    lane_end_[static_cast<std::size_t>(team_lane())] = t;
    obs::TraceRecorder::global().record("trial_rounds", "core", begin_[trial],
                                        t - begin_[trial]);
  }

  [[nodiscard]] io::JsonValue to_json() const {
    io::JsonValue doc = io::JsonValue::object();
    io::JsonValue& init = doc.set("init_s", io::JsonValue::array());
    for (const double s : init_s_) init.push(s);
    io::JsonValue& rounds = doc.set("round_s", io::JsonValue::array());
    for (const auto& trial : rounds_) {
      for (const double s : trial) rounds.push(s);
    }
    return doc;
  }

 private:
  std::vector<double> begin_;
  std::vector<double> last_;
  std::vector<double> init_s_;
  std::vector<std::vector<double>> rounds_;
  std::vector<double> lane_end_;
};

struct Setup {
  scenario::ScenarioSpec spec;
  double parse_s = 0.0;
  double validate_s = 0.0;
};

Setup parse_and_validate(const std::string& text) {
  Setup setup;
  const double t_parse = now_us();
  setup.spec = scenario::ScenarioSpec::parse(text);
  span("scenario.parse", "scenario", t_parse);
  setup.parse_s = seconds_since(t_parse);
  const double t_validate = now_us();
  setup.spec.validate();
  span("scenario.validate", "scenario", t_validate);
  setup.validate_s = seconds_since(t_validate);
  return setup;
}

int run_env() {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("omp_max_threads", max_team());
  const graph::simd::Ops* ops = graph::simd::detect();
  doc.set("batched_simd", ops != nullptr ? ops->name : "none");
  doc.set("build_type", PERFBENCH_BUILD_TYPE);
  std::cout << doc.to_compact_string() << "\n";
  return 0;
}

int run_scenario(const CliParser& cli) {
  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();

  const Setup setup = parse_and_validate(cli.get_string("spec"));
  const double t_compile = now_us();
  const scenario::Scenario compiled = scenario::Scenario::compile(setup.spec);
  span("scenario.compile", "scenario", t_compile);
  const double compile_s = seconds_since(t_compile);
  const double ready_us = now_us();
  io::JsonValue doc = io::JsonValue::object();
  doc.set("ready_us", ready_us);

  const double t_run = now_us();
  std::unique_ptr<TimingObserver> timing;
  if (!trace_out.empty()) {
    timing = std::make_unique<TimingObserver>(compiled.spec().trials, t_run);
  }
  scenario::ScenarioResult result;
  result.resolved = compiled.spec();
  result.summary = compiled.run(timing.get());
  span("scenario.run", "core", t_run);
  result.wall_seconds = seconds_since(t_run);

  const double t_write = now_us();
  const io::JsonValue result_doc = scenario::scenario_result_to_json(result);
  io::write_json_file(cli.get_string("out"), result_doc);
  span("result_write", "io", t_write);
  const double result_us = now_us();

  if (!trace_out.empty()) obs::TraceRecorder::global().write(trace_out);

  doc.set("parse_s", setup.parse_s);
  doc.set("validate_s", setup.validate_s);
  doc.set("compile_s", compile_s);
  doc.set("result_us", result_us);
  const TrialSummary& summary = result.summary;
  doc.set("trials", summary.trials);
  doc.set("consensus_count", summary.consensus_count);
  doc.set("plurality_wins", summary.plurality_wins);
  doc.set("round_limit_hits", summary.round_limit_hits);
  const std::uint64_t rounds = total_rounds(result_doc.at("summary"), result.resolved.max_rounds);
  doc.set("rounds_total", rounds);
  doc.set("node_updates", rounds * result.resolved.n);
  if (timing != nullptr) doc.set("timing", timing->to_json());
  std::cout << doc.to_compact_string() << "\n";
  return 0;
}

/// make_topology timed alone, in a process of its own so the RSS
/// high-water growth across it is the build's and nothing else's.
int run_graph_probe(const CliParser& cli) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(cli.get_string("spec"));
  io::JsonValue doc = io::JsonValue::object();
  double build_s = 0.0;
  double rss_growth = 0.0;
  std::uint64_t arena_bytes = 0;
  if (spec.resolved_backend() == "graph") {
    const double rss_before = peak_rss_mib();
    const double t0 = now_us();
    graph::AgentGraph built;
    if (spec.resolved_topology_backend() == "implicit") {
      built = graph::make_topology_implicit(spec.topology, spec.n);
    } else {
      rng::Xoshiro256pp gen =
          rng::StreamFactory(spec.seed).child(scenario::kTopologyStreamTag).stream(0);
#if PERFBENCH_GRAPH_LAYOUT
      built = graph::make_topology(spec.topology, spec.n, gen,
                                   graph::parse_graph_layout(spec.resolved_graph_layout()));
#else
      built = graph::make_topology(spec.topology, spec.n, gen);
#endif
    }
    build_s = seconds_since(t0);
    rss_growth = peak_rss_mib() - rss_before;
    arena_bytes = built.arena_bytes();
  }
  doc.set("build_s", build_s);
  doc.set("build_rss_mib", rss_growth);
  doc.set("arena_bytes", arena_bytes);
  std::cout << doc.to_compact_string() << "\n";
  return 0;
}

/// The sweep's up-front work before its first cell can run: grid
/// expansion (which validates every cell) and the memory preflight, as
/// run_sweep does them.
void sweep_setup(sweep::SweepSpec spec, std::uint64_t trials) {
  if (trials > 0) spec.base.trials = trials;
  const std::vector<scenario::ScenarioSpec> cells = spec.expand();
  const std::uint64_t budget = sweep::default_memory_budget_bytes();
  std::uint64_t over_budget = 0;
  for (const scenario::ScenarioSpec& cell : cells) {
    over_budget += sweep::estimate_cell_memory_bytes(cell) > budget ? 1 : 0;
  }
  PLURALITY_REQUIRE(over_budget == 0, "perfbench: " << over_budget
                                                    << " cells exceed the memory budget");
}

int run_sweep(const CliParser& cli) {
  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();

  const double t_setup = now_us();
  const sweep::SweepSpec spec = sweep::SweepSpec::from_json_file(cli.get_string("sweep"));
  sweep_setup(spec, cli.get_uint("trials"));
  span("sweep.setup", "sweep", t_setup);
  const double ready_us = now_us();
  io::JsonValue doc = io::JsonValue::object();
  doc.set("ready_us", ready_us);

  sweep::SweepOptions options;
  options.out_dir = cli.get_string("out-dir");
  options.trials_override = cli.get_uint("trials");
  // The trial span is emitted by the metrics observer, so the traced run
  // threads the registry in; the untraced run keeps telemetry fully off.
  if (!trace_out.empty()) options.metrics = &obs::MetricsRegistry::global();

  const double t0 = now_us();
  const sweep::SweepOutcome outcome = sweep::run_sweep(spec, options);
  span("sweep.run_sweep", "sweep", t0);
  if (!trace_out.empty()) obs::TraceRecorder::global().write(trace_out);

  for (const sweep::CellOutcome& cell : outcome.cells) {
    if (sweep::cell_status_failed(cell.status)) {
      std::cerr << "perfbench_driver: " << cell.id << " "
                << sweep::cell_status_name(cell.status) << ": " << cell.error << "\n";
    }
  }
  std::cout << doc.to_compact_string() << "\n";
  return outcome.failed == 0 && !outcome.interrupted ? 0 : 2;
}

/// Reads every cell checkpoint back through the CRC-verifying reader and
/// checks each cell's consensus and win rates.
int run_verify(const CliParser& cli) {
  const fs::path cells_dir = fs::path(cli.get_string("out-dir")) / "cells";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(cells_dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("cell_") && name.ends_with(".json")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  io::JsonValue doc = io::JsonValue::object();
  io::JsonValue& bad = doc.set("bad", io::JsonValue::array());
  double scan_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t node_updates = 0;
  std::uint64_t rounds = 0;
  for (const fs::path& path : files) {
    bytes += fs::file_size(path);
    try {
      const double t0 = now_us();
      const io::JsonValue payload = io::read_checkpoint_file(path.string());
      scan_s += seconds_since(t0);
      const io::JsonValue& summary = payload.at("summary");
      const io::JsonValue& spec = payload.at("spec");
      const std::uint64_t cell_rounds = total_rounds(summary, spec.at("max_rounds").as_uint());
      rounds += cell_rounds;
      node_updates += cell_rounds * spec.at("n").as_uint();
      if (summary.at("consensus_rate").as_double() != 1.0 ||
          summary.at("win_rate").as_double() != 1.0) {
        bad.push(path.filename().string() + ": consensus/win rate below 1");
      }
    } catch (const CheckError& e) {
      bad.push(path.filename().string() + ": " + e.what());
    }
  }
  doc.set("cells", std::uint64_t{files.size()});
  doc.set("scan_s", scan_s);
  doc.set("checkpoint_bytes", bytes);
  doc.set("rounds_total", rounds);
  doc.set("node_updates", node_updates);
  std::cout << doc.to_compact_string() << "\n";
  return 0;
}

int run(int argc, char** argv) {
  CliParser cli("perfbench_driver",
                "one unit of an end-to-end benchmark workload; prints one JSON line");
  cli.add_string("spec", "", "compact ScenarioSpec string");
  cli.add_string("out", "", "scenario result JSON path");
  cli.add_string("sweep", "", "SweepSpec JSON path");
  cli.add_uint("trials", 0, "sweep trial override");
  cli.add_string("out-dir", "", "sweep checkpoint directory");
  cli.add_string("trace-out", "", "enable spans and write them here at exit");
  if (!cli.parse(argc, argv)) return 0;
  PLURALITY_REQUIRE(cli.positional().size() == 1, "perfbench_driver: expected one mode");
  const std::string& mode = cli.positional().front();
  if (mode == "env") return run_env();
  if (mode == "scenario") return run_scenario(cli);
  if (mode == "graph-probe") return run_graph_probe(cli);
  if (mode == "sweep") return run_sweep(cli);
  if (mode == "verify") return run_verify(cli);
  PLURALITY_REQUIRE(false, "perfbench_driver: unknown mode '" << mode << "'");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
