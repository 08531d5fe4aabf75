// Orchestrator contract: cells == standalone scenarios (bitwise), resume
// skips exactly the completed cells, mixed grids are refused, and the
// aggregate CSV covers every cell.
#include "sweep/orchestrator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "io/checkpoint.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"
#include "thread_count_guard.hpp"

namespace plurality::sweep {
namespace {

namespace fs = std::filesystem;

/// Fresh unique directory under the test temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_sweep_" + name);
  fs::remove_all(dir);
  return dir;
}

SweepSpec small_sweep() {
  SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 trials=3 max_rounds=5000 "
      "k=2,4 backend=count,graph");
  return sweep;
}

std::size_t count_lines(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(Orchestrator, CellsMatchStandaloneScenariosBitwise) {
  // The sweep layer adds scheduling and files, never different results: a
  // cell's summary equals run_scenario() on the expanded cell spec.
  const SweepSpec sweep = small_sweep();
  SweepOptions options;  // in-memory
  const SweepOutcome outcome = run_sweep(sweep, options);
  ASSERT_EQ(outcome.cells.size(), 4u);
  EXPECT_EQ(outcome.ran, 4u);
  for (const CellOutcome& cell : outcome.cells) {
    const scenario::ScenarioResult standalone = scenario::run_scenario(cell.requested);
    EXPECT_EQ(cell.summary.trials, standalone.summary.trials);
    EXPECT_EQ(cell.summary.consensus_count, standalone.summary.consensus_count);
    EXPECT_EQ(cell.summary.plurality_wins, standalone.summary.plurality_wins);
    EXPECT_EQ(cell.summary.rounds.count(), standalone.summary.rounds.count());
    if (standalone.summary.rounds.count() > 0) {
      EXPECT_EQ(cell.summary.rounds.mean(), standalone.summary.rounds.mean());
    }
    ASSERT_EQ(cell.summary.round_samples.size(), standalone.summary.round_samples.size());
    for (std::size_t i = 0; i < standalone.summary.round_samples.size(); ++i) {
      EXPECT_EQ(cell.summary.round_samples[i], standalone.summary.round_samples[i]);
    }
    EXPECT_EQ(cell.resolved_backend, standalone.resolved.backend);
  }
}

TEST(Orchestrator, SchedulingModeCannotChangeResults) {
  const SweepSpec sweep = small_sweep();
  SweepOptions parallel_options;
  parallel_options.cells_in_parallel = true;
  SweepOptions serial_options;
  serial_options.cells_in_parallel = false;
  const SweepOutcome a = run_sweep(sweep, parallel_options);
  const SweepOutcome b = run_sweep(sweep, serial_options);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].summary.rounds.mean(), b.cells[i].summary.rounds.mean());
    EXPECT_EQ(a.cells[i].summary.plurality_wins, b.cells[i].summary.plurality_wins);
  }
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(Orchestrator, CellFilesAndAggregateAreByteIdenticalWithCellsInParallelOnAndOff) {
  // Cells with more trials than threads and cells with fewer, on both
  // backends and engines: however the cells and their trials share the
  // team, every cell file and the aggregate must come out byte-identical.
  const ThreadCountGuard guard(4);
  const SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=3000 max_rounds=5000 seed=3 "
      "trials=2,6 k=2,4 backend=count,graph engine=strict,batched");
  std::string cells[2][16];
  std::string aggregate[2];
  for (const bool in_parallel : {true, false}) {
    const fs::path dir = fresh_dir(in_parallel ? "plan_on" : "plan_off");
    SweepOptions options;
    options.out_dir = dir.string();
    options.zero_wall_times = true;
    options.cells_in_parallel = in_parallel;
    const SweepOutcome outcome = run_sweep(sweep, options);
    ASSERT_EQ(outcome.cells.size(), 16u);
    ASSERT_EQ(outcome.ran, 16u);
    for (const CellOutcome& cell : outcome.cells) {
      cells[in_parallel][cell.index] = file_bytes(dir / "cells" / (cell.id + ".json"));
    }
    aggregate[in_parallel] = file_bytes(dir / "aggregate.csv");
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(cells[1][i].empty()) << "cell " << i;
    EXPECT_EQ(cells[1][i], cells[0][i]) << "cell " << i;
    // The thread plan is a scheduling fact, so cell files never carry it.
    EXPECT_EQ(cells[1][i].find("\"plan\""), std::string::npos) << "cell " << i;
  }
  EXPECT_FALSE(aggregate[1].empty());
  EXPECT_EQ(aggregate[1], aggregate[0]);
}

TEST(Orchestrator, WritesManifestCellFilesAndAggregate) {
  const fs::path dir = fresh_dir("files");
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome outcome = run_sweep(small_sweep(), options);

  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "aggregate.csv"));
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_TRUE(fs::exists(dir / "cells" / (cell.id + ".json"))) << cell.id;
  }
  // Header + one row per cell.
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 1u + outcome.cells.size());
  // No stray tmp files (atomic writes completed).
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension() == ".tmp", false) << entry.path();
  }

  // The manifest is a CRC-stamped checkpoint envelope; the payload carries
  // the schema stamp and the cell table with statuses.
  const io::JsonValue raw = io::read_json_file((dir / "manifest.json").string());
  EXPECT_EQ(raw.at("checkpoint_schema").as_uint(), io::kCheckpointSchema);
  EXPECT_TRUE(raw.contains("crc32"));
  const io::JsonValue manifest = io::read_checkpoint_file((dir / "manifest.json").string());
  EXPECT_EQ(manifest.at("schema_version").as_uint(), io::kCheckpointSchema);
  EXPECT_EQ(manifest.at("cells").size(), outcome.cells.size());
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    EXPECT_EQ(manifest.at("cells").item(i).at("status").as_string(), "done");
  }
}

TEST(Orchestrator, ResumeSkipsCompletedCellsAndRecomputesMissing) {
  const fs::path dir = fresh_dir("resume");
  const SweepSpec sweep = small_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome first = run_sweep(sweep, options);
  ASSERT_EQ(first.ran, 4u);

  // Simulate an interrupted run: one completed cell's file is gone (a
  // killed run differs only in WHICH files exist — partial files cannot,
  // by the atomic-rename discipline).
  fs::remove(dir / "cells" / "cell_00002.json");

  options.resume = true;
  const SweepOutcome second = run_sweep(sweep, options);
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.ran, 1u);
  // The recomputed cell must reproduce the first run's numbers exactly
  // (per-cell seeds; scheduling-independent).
  EXPECT_EQ(second.cells[2].summary.rounds.mean(), first.cells[2].summary.rounds.mean());

  // A third resume recomputes nothing, and resumed metrics survive the
  // JSON round trip bit-for-bit (shortest-round-trip number formatting).
  const SweepOutcome third = run_sweep(sweep, options);
  EXPECT_EQ(third.resumed, 4u);
  EXPECT_EQ(third.ran, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(third.cells[i].resumed);
    EXPECT_EQ(third.cells[i].metrics.rounds_mean, first.cells[i].metrics.rounds_mean);
    EXPECT_EQ(third.cells[i].metrics.win_rate, first.cells[i].metrics.win_rate);
    EXPECT_EQ(third.cells[i].metrics.trials, first.cells[i].metrics.trials);
  }
}

TEST(Orchestrator, ResumeRefusesAChangedSweep) {
  const fs::path dir = fresh_dir("changed");
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(small_sweep(), options);

  SweepSpec changed = small_sweep();
  changed.base.trials = 5;  // different grid
  options.resume = true;
  EXPECT_THROW((void)run_sweep(changed, options), CheckError);
}

TEST(Orchestrator, PopulatedOutDirNeedsResumeOrForce) {
  const fs::path dir = fresh_dir("clobber");
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(small_sweep(), options);
  EXPECT_THROW((void)run_sweep(small_sweep(), options), CheckError);
  options.force = true;
  EXPECT_NO_THROW((void)run_sweep(small_sweep(), options));
}

TEST(Orchestrator, CorruptCellFileIsRecomputedNotTrusted) {
  const fs::path dir = fresh_dir("corrupt");
  const SweepSpec sweep = small_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(sweep, options);
  {
    std::ofstream out(dir / "cells" / "cell_00001.json", std::ios::trunc);
    out << "{ not json";
  }
  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.ran, 1u);
  EXPECT_EQ(resumed.resumed, 3u);
  // The recomputed file verifies again, and the corrupt bytes were
  // QUARANTINED (preserved as evidence), not silently deleted.
  EXPECT_NO_THROW(
      (void)io::read_checkpoint_file((dir / "cells" / "cell_00001.json").string()));
  EXPECT_TRUE(fs::exists(dir / "cells" / "quarantine" / "cell_00001.json"));
}

TEST(Orchestrator, TrialsOverrideShrinksEveryCell) {
  SweepOptions options;
  options.trials_override = 2;
  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_EQ(cell.metrics.trials, 2u);
  }
}

TEST(Orchestrator, ObserverProbesLandInCellFilesAndAggregate) {
  const fs::path dir = fresh_dir("probes");
  SweepSpec sweep = small_sweep();
  sweep.observe.m_plurality = true;
  sweep.observe.m = 200;
  sweep.observe.trajectory = 32;
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome outcome = run_sweep(sweep, options);

  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_GE(cell.metrics.ttm_hits, 0.0) << cell.id;
    EXPECT_GE(cell.metrics.final_fraction_mean, 0.0) << cell.id;
    const io::JsonValue doc =
        io::read_checkpoint_file((dir / "cells" / (cell.id + ".json")).string());
    EXPECT_TRUE(doc.at("observers").contains("m_plurality")) << cell.id;
    EXPECT_TRUE(fs::exists(dir / "cells" / (cell.id + "_trajectory.csv"))) << cell.id;
  }
  // The aggregate grows the probe columns.
  std::ifstream in(dir / "aggregate.csv");
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("ttm_p50"), std::string::npos);
  EXPECT_NE(header.find("final_mono_mean"), std::string::npos);

  // Observer-on cells are STILL bitwise-equal to standalone runs — the
  // acceptance property, here at the sweep level.
  SweepSpec plain = small_sweep();
  const SweepOutcome unobserved = run_sweep(plain, SweepOptions{});
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    EXPECT_EQ(outcome.cells[i].summary.rounds.mean(),
              unobserved.cells[i].summary.rounds.mean());
    EXPECT_EQ(outcome.cells[i].summary.plurality_wins,
              unobserved.cells[i].summary.plurality_wins);
  }
}

TEST(Orchestrator, CommittedSweepSpecsExpandAndValidate) {
  // The repo's committed grids must stay runnable: parse + full expansion
  // validation (no execution — CI runs consensus_vs_k end to end).
  for (const char* path : {"sweeps/consensus_vs_k.json", "sweeps/adversary_budget.json"}) {
    SCOPED_TRACE(path);
    fs::path file(path);
    // ctest runs from build/; the specs live in the source tree.
    if (!fs::exists(file)) file = fs::path("..") / path;
    if (!fs::exists(file)) GTEST_SKIP() << "spec not found from cwd";
    const SweepSpec sweep = SweepSpec::from_json_file(file.string());
    const auto cells = sweep.expand();
    EXPECT_GE(cells.size(), 8u);
    if (std::string(path).find("consensus_vs_k") != std::string::npos) {
      // The acceptance grid: >= 24 cells across >= 2 backends.
      EXPECT_GE(cells.size(), 24u);
      bool saw_count = false, saw_graph = false;
      for (const auto& cell : cells) {
        saw_count |= cell.backend == "count";
        saw_graph |= cell.backend == "graph";
      }
      EXPECT_TRUE(saw_count && saw_graph);
    }
  }
}

}  // namespace
}  // namespace plurality::sweep
