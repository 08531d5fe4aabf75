// Fault injection exercises every recovery path the orchestrator promises:
// throw -> retry -> done, hang -> timeout -> retry, corrupt write ->
// quarantine -> retry, process crash -> resume — and after ANY of them the
// final artifacts are bitwise what a clean run produces.
#include "sweep/fault_plan.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "io/checkpoint.hpp"
#include "support/check.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/watchdog.hpp"
#include "thread_count_guard.hpp"

namespace plurality::sweep {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_faults_" + name);
  fs::remove_all(dir);
  return dir;
}

SweepSpec small_sweep() {
  return SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 trials=3 max_rounds=5000 "
      "k=2,4 backend=count,graph");
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The golden artifact: this grid run with no faults, wall times zeroed.
std::string clean_aggregate_bytes() {
  static const std::string bytes = [] {
    const fs::path dir = fresh_dir("golden");
    SweepOptions options;
    options.out_dir = dir.string();
    options.zero_wall_times = true;
    const SweepOutcome outcome = run_sweep(small_sweep(), options);
    EXPECT_EQ(outcome.failed, 0u);
    return file_bytes(dir / "aggregate.csv");
  }();
  return bytes;
}

TEST(FaultPlan, ParsesEveryKindAndAddressingMode) {
  const io::JsonValue doc = io::parse_json(R"({
    "seed": 7,
    "faults": [
      {"cell": "cell_00002", "kind": "throw"},
      {"cell": 3, "kind": "hang", "seconds": 0.5},
      {"match": "backend=graph", "kind": "crash", "point": "mid_write", "times": 2},
      {"cell": "cell_00005", "kind": "corrupt"}
    ]
  })");
  const FaultPlan plan = FaultPlan::from_json(doc);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::Throw);
  EXPECT_EQ(plan.faults[0].cell_id, "cell_00002");
  EXPECT_EQ(plan.faults[1].kind, FaultKind::Hang);
  EXPECT_TRUE(plan.faults[1].by_index);
  EXPECT_EQ(plan.faults[1].index, 3u);
  EXPECT_DOUBLE_EQ(plan.faults[1].seconds, 0.5);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::Crash);
  EXPECT_EQ(plan.faults[2].point, CrashPoint::MidWrite);
  EXPECT_EQ(plan.faults[2].times, 2u);
  EXPECT_EQ(plan.faults[2].match, "backend=graph");
  EXPECT_EQ(plan.faults[3].kind, FaultKind::Corrupt);

  EXPECT_TRUE(plan.faults[0].matches(9, "cell_00002", "whatever"));
  EXPECT_FALSE(plan.faults[0].matches(2, "cell_00009", "whatever"));
  EXPECT_TRUE(plan.faults[1].matches(3, "cell_00003", ""));
  EXPECT_TRUE(plan.faults[2].matches(0, "x", "n=2000 backend=graph k=4"));
  EXPECT_FALSE(plan.faults[2].matches(0, "x", "n=2000 backend=count k=4"));
}

TEST(FaultPlan, ParsesNetworkKindsAndBoundsTheirFirings) {
  // The service-only kinds parse, address, and spend marker budget like
  // every other fault; the in-process orchestrator simply never calls
  // their injection points.
  const io::JsonValue doc = io::parse_json(R"({
    "faults": [
      {"cell": "cell_00000", "kind": "drop_heartbeat"},
      {"cell": 1, "kind": "stall_conn", "seconds": 0.25},
      {"match": "k=8", "kind": "worker_crash", "times": 2}
    ]
  })");
  const FaultPlan plan = FaultPlan::from_json(doc);
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::DropHeartbeat);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::StallConn);
  EXPECT_DOUBLE_EQ(plan.faults[1].seconds, 0.25);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::WorkerCrash);
  EXPECT_EQ(plan.faults[2].times, 2u);

  // drop_heartbeat / stall_conn fire once (marker-file bounded across
  // injector instances, like crash faults) and then run clean.
  const fs::path dir = fresh_dir("network_markers");
  fs::create_directories(dir);
  {
    FaultInjector injector(plan, dir.string());
    EXPECT_TRUE(injector.should_drop_heartbeats(0, "cell_00000", ""));
    EXPECT_DOUBLE_EQ(injector.stall_connection_seconds(1, "cell_00001", ""), 0.25);
  }
  FaultInjector second(plan, dir.string());
  EXPECT_FALSE(second.should_drop_heartbeats(0, "cell_00000", ""));
  EXPECT_DOUBLE_EQ(second.stall_connection_seconds(1, "cell_00001", ""), 0.0);
}

TEST(FaultPlan, StrictParsingRejectsMistakes) {
  const auto parse = [](const std::string& text) {
    return FaultPlan::from_json(io::parse_json(text));
  };
  EXPECT_THROW(parse(R"([])"), CheckError);                       // not an object
  EXPECT_THROW(parse(R"({"seed": 1})"), CheckError);              // faults required
  EXPECT_THROW(parse(R"({"faults": [], "bogus": 1})"), CheckError);
  EXPECT_THROW(parse(R"({"faults": [{"cell": "c"}]})"), CheckError);  // no kind
  EXPECT_THROW(parse(R"({"faults": [{"kind": "throw"}]})"), CheckError);  // no target
  EXPECT_THROW(parse(R"({"faults": [{"cell": "c", "match": "m", "kind": "throw"}]})"),
               CheckError);  // both targets
  EXPECT_THROW(parse(R"({"faults": [{"cell": "c", "kind": "explode"}]})"), CheckError);
  EXPECT_THROW(parse(R"({"faults": [{"cell": "c", "kind": "crash", "point": "soon"}]})"),
               CheckError);
  EXPECT_THROW(parse(R"({"faults": [{"cell": "c", "kind": "throw", "times": 0}]})"),
               CheckError);
}

TEST(FaultPlan, FiringMarkersPersistAcrossInjectorInstances) {
  // A crash fault's budget must survive the process dying — modeled here
  // by constructing a second injector over the same out_dir.
  const fs::path dir = fresh_dir("markers");
  fs::create_directories(dir);
  FaultPlan plan;
  FaultSpec fault;
  fault.cell_id = "cell_00000";
  fault.kind = FaultKind::Throw;
  fault.times = 1;
  plan.faults.push_back(fault);

  {
    FaultInjector first(plan, dir.string());
    EXPECT_THROW(first.at_driver_start(0, "cell_00000", "", nullptr),
                 std::runtime_error);
  }
  FaultInjector second(plan, dir.string());
  EXPECT_NO_THROW(second.at_driver_start(0, "cell_00000", "", nullptr));
}

TEST(Faults, ThrowFaultRetriesToDoneWithAuditTrail) {
  const fs::path dir = fresh_dir("throw");
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  options.retry_backoff_seconds = 0.001;
  FaultSpec fault;
  fault.cell_id = "cell_00001";
  fault.kind = FaultKind::Throw;
  options.fault_plan.faults.push_back(fault);

  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.ran, 4u);
  EXPECT_EQ(outcome.cells[1].status, CellStatus::Done);
  EXPECT_EQ(outcome.cells[1].attempts, 2u);
  EXPECT_FALSE(outcome.cells[1].retry_tag.empty());
  EXPECT_EQ(outcome.cells[0].attempts, 1u);

  // The cell file records the retry audit block with the stream tag.
  const io::JsonValue doc =
      io::read_checkpoint_file((dir / "cells" / "cell_00001.json").string());
  ASSERT_TRUE(doc.contains("retry"));
  EXPECT_EQ(doc.at("retry").at("attempts").as_uint(), 2u);
  EXPECT_EQ(doc.at("retry").at("stream_tag").as_string(), outcome.cells[1].retry_tag);

  // Retries keep the trial seed: the aggregate is bitwise the clean run's.
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), clean_aggregate_bytes());
}

TEST(Faults, HangFaultTimesOutOnceThenRetriesClean) {
  const fs::path dir = fresh_dir("hang_once");
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  options.cell_timeout_seconds = 0.15;
  options.retry_backoff_seconds = 0.001;
  FaultSpec fault;
  fault.cell_id = "cell_00002";
  fault.kind = FaultKind::Hang;
  fault.seconds = 30.0;  // way past the deadline; the token ends the nap
  fault.times = 1;
  options.fault_plan.faults.push_back(fault);

  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.cells[2].status, CellStatus::Done);
  EXPECT_EQ(outcome.cells[2].attempts, 2u);
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), clean_aggregate_bytes());
}

TEST(Faults, PersistentHangExhaustsRetriesIntoFailedTimeout) {
  const fs::path dir = fresh_dir("hang_always");
  SweepOptions options;
  options.out_dir = dir.string();
  options.cell_timeout_seconds = 0.1;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.001;
  FaultSpec fault;
  fault.cell_id = "cell_00000";
  fault.kind = FaultKind::Hang;
  fault.seconds = 30.0;
  fault.times = 99;  // hangs EVERY attempt
  options.fault_plan.faults.push_back(fault);

  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  EXPECT_EQ(outcome.failed, 1u);
  EXPECT_EQ(outcome.cells[0].status, CellStatus::FailedTimeout);
  EXPECT_EQ(outcome.cells[0].attempts, 2u);  // 1 try + 1 retry
  // The other cells still completed — one bad cell never sinks the grid.
  EXPECT_EQ(outcome.ran, 3u);
  // No aggregate for an incomplete run; the failure table names the cell.
  EXPECT_TRUE(outcome.aggregate_path.empty());
  EXPECT_FALSE(fs::exists(dir / "aggregate.csv"));
  const std::string failures = file_bytes(dir / "failures.csv");
  EXPECT_NE(failures.find("cell_00000"), std::string::npos);
  EXPECT_NE(failures.find("failed_timeout"), std::string::npos);
  // Manifest carries the taxonomy too.
  const io::JsonValue manifest =
      io::read_checkpoint_file((dir / "manifest.json").string());
  EXPECT_EQ(manifest.at("cells").item(0).at("status").as_string(), "failed_timeout");
}

TEST(Faults, CorruptWriteIsQuarantinedAndRetriedToDone) {
  const fs::path dir = fresh_dir("corrupt");
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  options.retry_backoff_seconds = 0.001;
  FaultSpec fault;
  fault.cell_id = "cell_00003";
  fault.kind = FaultKind::Corrupt;
  fault.times = 1;
  options.fault_plan.faults.push_back(fault);

  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.cells[3].status, CellStatus::Done);
  EXPECT_EQ(outcome.cells[3].attempts, 2u);
  // The corrupted first write was preserved as evidence.
  EXPECT_TRUE(fs::exists(dir / "cells" / "quarantine" / "cell_00003.json"));
  // And the kept file verifies.
  EXPECT_NO_THROW(
      (void)io::read_checkpoint_file((dir / "cells" / "cell_00003.json").string()));
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), clean_aggregate_bytes());
}

/// Process-crash faults need a real process death: gtest death tests with
/// the threadsafe style re-exec the binary, the CHILD runs the sweep until
/// _Exit(86), and the PARENT then resumes the same out_dir. Sequential
/// cells on one OpenMP thread keep the child free of thread teams. One
/// TEST per crash point: a threadsafe child re-runs its test body from the
/// start, so the body must contain exactly one death statement and no
/// state-changing code before it (fresh_dir only clears a dir the parent
/// has not yet populated).
void run_crash_case(const std::string& point, CrashPoint crash_point) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ThreadCountGuard single_thread(1);
  const fs::path dir = fresh_dir("crash_" + point);

  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  options.cells_in_parallel = false;
  options.retry_backoff_seconds = 0.001;
  FaultSpec fault;
  fault.cell_id = "cell_00002";
  fault.kind = FaultKind::Crash;
  fault.point = crash_point;
  options.fault_plan.faults.push_back(fault);

  const SweepSpec spec = small_sweep();

  EXPECT_EXIT((void)run_sweep(spec, options), ::testing::ExitedWithCode(86), "");

  // The fired marker persisted before the _Exit, so the resume runs the
  // cell CLEAN (no re-crash). Retries reuse the trial seed, so the final
  // aggregate is the golden one — results are schedule-invariant by
  // construction.
  options.resume = true;
  const SweepOutcome resumed = run_sweep(spec, options);
  EXPECT_EQ(resumed.failed, 0u) << resumed.cells[2].error;
  // A crash AFTER the atomic rename leaves a fully valid cell file: the
  // resume trusts it (Resumed). Before/mid-write crashes leave no trusted
  // file (mid-write dies before the rename), so the cell reruns (Done).
  EXPECT_EQ(resumed.cells[2].status, crash_point == CrashPoint::AfterWrite
                                         ? CellStatus::Resumed
                                         : CellStatus::Done);
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), clean_aggregate_bytes());
}

TEST(FaultsDeathTest, CrashBeforeWriteResumesToTheGoldenAggregate) {
  run_crash_case("before_write", CrashPoint::BeforeWrite);
}

TEST(FaultsDeathTest, CrashMidWriteResumesToTheGoldenAggregate) {
  run_crash_case("mid_write", CrashPoint::MidWrite);
}

TEST(FaultsDeathTest, CrashAfterWriteResumesToTheGoldenAggregate) {
  run_crash_case("after_write", CrashPoint::AfterWrite);
}

}  // namespace
}  // namespace plurality::sweep
