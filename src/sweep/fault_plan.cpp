#include "sweep/fault_plan.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "rng/philox.hpp"
#include "support/check.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::sweep {

namespace fs = std::filesystem;

bool FaultSpec::matches(std::size_t cell_index, const std::string& id,
                        const std::string& spec_string) const {
  if (!match.empty()) return spec_string.find(match) != std::string::npos;
  if (by_index) return index == cell_index;
  return cell_id == id;
}

namespace {

FaultKind parse_kind(const std::string& kind) {
  if (kind == "throw") return FaultKind::Throw;
  if (kind == "hang") return FaultKind::Hang;
  if (kind == "crash") return FaultKind::Crash;
  if (kind == "corrupt") return FaultKind::Corrupt;
  if (kind == "drop_heartbeat") return FaultKind::DropHeartbeat;
  if (kind == "stall_conn") return FaultKind::StallConn;
  if (kind == "worker_crash") return FaultKind::WorkerCrash;
  PLURALITY_REQUIRE(false, "fault plan: unknown kind '"
                               << kind
                               << "' (known: throw, hang, crash, corrupt, "
                                  "drop_heartbeat, stall_conn, worker_crash)");
  return FaultKind::Throw;  // unreachable
}

CrashPoint parse_point(const std::string& point) {
  if (point == "before_write") return CrashPoint::BeforeWrite;
  if (point == "mid_write") return CrashPoint::MidWrite;
  if (point == "after_write") return CrashPoint::AfterWrite;
  PLURALITY_REQUIRE(false, "fault plan: unknown crash point '"
                               << point
                               << "' (known: before_write, mid_write, after_write)");
  return CrashPoint::BeforeWrite;  // unreachable
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::Throw: return "throw";
    case FaultKind::Hang: return "hang";
    case FaultKind::Crash: return "crash";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::DropHeartbeat: return "drop_heartbeat";
    case FaultKind::StallConn: return "stall_conn";
    case FaultKind::WorkerCrash: return "worker_crash";
  }
  return "?";
}

}  // namespace

FaultPlan FaultPlan::from_json(const io::JsonValue& doc) {
  PLURALITY_REQUIRE(doc.is_object(), "fault plan: top-level value must be an object");
  FaultPlan plan;
  for (const std::string& key : doc.keys()) {
    PLURALITY_REQUIRE(key == "seed" || key == "faults",
                      "fault plan: unknown key '" << key << "' (known: seed, faults)");
  }
  if (const io::JsonValue* seed = doc.get("seed")) plan.seed = seed->as_uint();
  const io::JsonValue* faults = doc.get("faults");
  PLURALITY_REQUIRE(faults != nullptr && faults->is_array(),
                    "fault plan: required key 'faults' must be an array");
  for (std::size_t i = 0; i < faults->size(); ++i) {
    const io::JsonValue& entry = faults->item(i);
    PLURALITY_REQUIRE(entry.is_object(), "fault plan: faults[" << i << "] must be an object");
    FaultSpec fault;
    bool has_cell = false;
    for (const std::string& key : entry.keys()) {
      if (key == "cell") {
        has_cell = true;
        const io::JsonValue& cell = entry.at("cell");
        if (cell.is_string()) {
          fault.cell_id = cell.as_string();
          PLURALITY_REQUIRE(!fault.cell_id.empty(),
                            "fault plan: faults[" << i << "].cell must not be empty");
        } else {
          fault.by_index = true;
          fault.index = static_cast<std::size_t>(cell.as_uint());
        }
      } else if (key == "match") {
        fault.match = entry.at("match").as_string();
        PLURALITY_REQUIRE(!fault.match.empty(),
                          "fault plan: faults[" << i << "].match must not be empty");
      } else if (key == "kind") {
        fault.kind = parse_kind(entry.at("kind").as_string());
      } else if (key == "point") {
        fault.point = parse_point(entry.at("point").as_string());
      } else if (key == "seconds") {
        fault.seconds = entry.at("seconds").as_double();
        PLURALITY_REQUIRE(fault.seconds >= 0,
                          "fault plan: faults[" << i << "].seconds must be >= 0");
      } else if (key == "times") {
        const std::uint64_t times = entry.at("times").as_uint();
        PLURALITY_REQUIRE(times >= 1, "fault plan: faults[" << i << "].times must be >= 1");
        fault.times = static_cast<std::uint32_t>(times);
      } else {
        PLURALITY_REQUIRE(false, "fault plan: faults["
                                     << i << "] has unknown key '" << key
                                     << "' (known: cell, match, kind, point, seconds, "
                                        "times)");
      }
    }
    PLURALITY_REQUIRE(has_cell != !fault.match.empty(),
                      "fault plan: faults[" << i
                                            << "] needs exactly one of 'cell' or 'match'");
    PLURALITY_REQUIRE(entry.contains("kind"),
                      "fault plan: faults[" << i << "] needs a 'kind'");
    plan.faults.push_back(fault);
  }
  return plan;
}

FaultPlan FaultPlan::from_json_file(const std::string& path) {
  return from_json(io::read_json_file(path));
}

FaultInjector::FaultInjector(FaultPlan plan, const std::string& out_dir)
    : plan_(std::move(plan)) {
  if (!plan_.empty() && !out_dir.empty()) {
    fault_dir_ = (fs::path(out_dir) / "faults").string();
    fs::create_directories(fault_dir_);
  }
}

bool FaultInjector::arm(std::size_t fault_index, const FaultSpec& fault,
                        const std::string& id) {
  const std::string key = std::to_string(fault_index).insert(0, 1, 'f') + "_" + id;
  std::lock_guard<std::mutex> lock(mutex_);
  if (fault_dir_.empty()) {
    std::uint32_t& count = memory_counts_[key];
    if (count >= fault.times) return false;
    ++count;
    return true;
  }
  // Persistent count: one small file per (fault, cell), rewritten before
  // the fault fires — a crash fault must burn its budget BEFORE dying, or
  // every resume re-crashes forever.
  const fs::path marker = fs::path(fault_dir_) / key;
  std::uint32_t count = 0;
  if (std::ifstream in(marker); in.good()) in >> count;
  if (count >= fault.times) return false;
  {
    std::ofstream out(marker, std::ios::trunc);
    out << (count + 1) << "\n";
    out.flush();
    PLURALITY_REQUIRE(out.good(), "fault plan: cannot persist firing marker " << marker);
  }
  return true;
}

void FaultInjector::at_driver_start(std::size_t index, const std::string& id,
                                    const std::string& spec_string,
                                    const CancellationToken* token) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::Throw && fault.kind != FaultKind::Hang) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    if (fault.kind == FaultKind::Throw) {
      throw std::runtime_error("injected fault: driver throw in " + id);
    }
    // Hang: stall in small slices so the watchdog/shutdown path — the very
    // thing this fault exists to exercise — can reclaim the cell.
    const auto start = std::chrono::steady_clock::now();
    const auto budget = std::chrono::duration<double>(fault.seconds);
    while (std::chrono::steady_clock::now() - start < budget) {
      if (token != nullptr && token->stop_requested()) break;
      if (shutdown_requested()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void FaultInjector::mutate_checkpoint_text(std::size_t index, const std::string& id,
                                           const std::string& spec_string,
                                           std::string& text) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::Corrupt) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    PLURALITY_CHECK(!text.empty());
    // Seeded byte choice: reproducible given (plan seed, cell index). Flip
    // inside the payload body (skip the envelope head) so the corruption
    // lands where only the CRC can catch it.
    const std::uint64_t word = rng::Philox4x32::word(
        rng::Philox4x32::key_from_seed(plan_.seed, 0x6661756c74ull /* "fault" */),
        index, 0);
    const std::size_t lo = std::min<std::size_t>(text.size() - 1, text.size() / 2);
    const std::size_t pos = lo + static_cast<std::size_t>(word % (text.size() - lo));
    text[pos] = static_cast<char>(text[pos] ^ 0x20);
  }
}

void FaultInjector::at_write_point(std::size_t index, const std::string& id,
                                   const std::string& spec_string, CrashPoint point) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::Crash || fault.point != point) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    // Simulated power-loss: no unwinding, no atexit, no flushes beyond
    // what already hit the page cache. The marker write above survives
    // (page cache outlives the process).
    std::fprintf(stderr, "injected fault: %s crash at %s in %s\n", kind_name(fault.kind),
                 point == CrashPoint::BeforeWrite  ? "before_write"
                 : point == CrashPoint::MidWrite   ? "mid_write"
                                                   : "after_write",
                 id.c_str());
    std::_Exit(kFaultCrashExitCode);
  }
}

void FaultInjector::at_lease_start(std::size_t index, const std::string& id,
                                   const std::string& spec_string) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::WorkerCrash) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    // Same power-loss semantics as the crash kind — the marker persisted
    // by arm() is the only trace, so the NEXT worker to lease this cell
    // runs it clean.
    std::fprintf(stderr, "injected fault: worker_crash at lease start of %s\n",
                 id.c_str());
    std::_Exit(kFaultCrashExitCode);
  }
}

bool FaultInjector::should_drop_heartbeats(std::size_t index, const std::string& id,
                                           const std::string& spec_string) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::DropHeartbeat) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    std::fprintf(stderr, "injected fault: dropping heartbeats for %s\n", id.c_str());
    return true;
  }
  return false;
}

double FaultInjector::stall_connection_seconds(std::size_t index, const std::string& id,
                                               const std::string& spec_string) {
  for (std::size_t f = 0; f < plan_.faults.size(); ++f) {
    const FaultSpec& fault = plan_.faults[f];
    if (fault.kind != FaultKind::StallConn) continue;
    if (!fault.matches(index, id, spec_string)) continue;
    if (!arm(f, fault, id)) continue;
    std::fprintf(stderr, "injected fault: stalling connection %.3fs before reporting %s\n",
                 fault.seconds, id.c_str());
    return fault.seconds;
  }
  return 0.0;
}

}  // namespace plurality::sweep
