// Arena-size preflight for sweep cells.
//
// A sweep grid can hold one cell whose topology allocates two orders of
// magnitude more than its neighbours (er:0.01 at n=1e6 is a ~10^10-entry
// CSR). Discovering that by OOM-kill mid-sweep loses every in-flight cell
// and — on Linux default overcommit — can take the whole machine with it.
// The orchestrator therefore estimates each cell's peak allocation from
// its RESOLVED spec before running anything:
//
//   estimate > budget            the cell is refused up front (failed_spec;
//                                it would be refused by the allocator
//                                anyway, just less politely)
//   estimate > budget / threads  the cell runs alone, never next to
//                                siblings on the cell team (which would
//                                multiply peaks)
//
// Estimates are deliberately coarse upper bounds (±2x is fine); they only
// have to rank "fits comfortably / fits alone / cannot fit".
#pragma once

#include <cstdint>
#include <string>

#include "scenario/spec.hpp"

namespace plurality::sweep {

/// Upper-bound estimate of one cell's peak heap use in bytes, derived from
/// the resolved backend, n, k, and — for arena-backed graph cells — the
/// topology's edge count. Graph cells are billed one step workspace per
/// thread of the trial team their thread plan picks (core/thread_plan.hpp:
/// min(trials, threads), or one when the trials run one after another). Cells whose topology resolves to the implicit
/// backend are billed for the state arrays only (no CSR arena; the whole
/// point of gossip/implicit cells at n = 1e9). All arithmetic saturates
/// instead of wrapping, so a clique at n = 7e9 estimates "cannot fit"
/// rather than wrapping u64 into "fits". Never throws on a well-formed
/// spec; an unparseable topology argument returns a clique-sized worst
/// case (validation will reject the cell anyway).
[[nodiscard]] std::uint64_t estimate_cell_memory_bytes(const scenario::ScenarioSpec& spec);

/// The backend a cell's trials run on, "count" or "graph". A spec that
/// does not resolve reads as its own backend field, with "auto" as
/// "graph" (validation rejects the cell when it runs). Never throws.
[[nodiscard]] std::string cell_backend(const scenario::ScenarioSpec& spec);

/// The default sweep memory budget: ~80% of physical RAM, or 2 GiB when
/// the platform won't say. SweepOptions::memory_budget_bytes overrides.
[[nodiscard]] std::uint64_t default_memory_budget_bytes();

/// The failed_spec error for a cell whose estimate exceeds `budget`, or ""
/// when it fits. `worker_share` names the budget as a service worker's
/// slice of the sweep budget (the master splits it across its workers).
[[nodiscard]] std::string preflight_refusal(std::uint64_t estimate, std::uint64_t budget,
                                            bool worker_share = false);

/// Human-readable "1.5 GiB" style rendering for refusal messages.
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

}  // namespace plurality::sweep
