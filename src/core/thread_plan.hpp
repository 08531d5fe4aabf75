// The one thread plan of a run: how a trial driver splits the threads
// between its trials and their rounds.
//
// Two OpenMP levels can use the cores: the trial drivers (run_trials,
// graph::run_graph_trials) run trials on a team, and a graph round splits
// its kGraphChunks chunks over a team. Only one of them ever gets more
// than one thread: a region opened inside another active region runs on
// one thread, whatever the OpenMP nesting settings say (available_threads
// below). The drivers pick the level here, from the trial count, n and
// the threads available:
//
//  * at least as many trials as threads: a trial team of all the threads,
//    and every round runs on the thread that owns its trial;
//  * fewer trials than threads, and rounds that can use a team: trials run
//    one after another and each round gets the whole team;
//  * otherwise (count rounds, or a graph below kRoundTeamMinNodes, where a
//    team's fork and join cost more than the round): a trial team of one
//    thread per trial, rounds on one thread.
//
// The plan changes scheduling only. Trials, rounds and chunks all draw from
// their own streams, so every plan gives bitwise the same results.
#pragma once

#include <algorithm>
#include <cstdint>

namespace plurality {

/// Graph nodes from which a round's chunk loop runs on a thread team. Below
/// it, the graph round regions step on one thread. Measured on a 4-vCPU
/// host (docs/performance.md, "Thread plan"): under the default wait policy
/// a 4-thread team wins from about 1000-2000 nodes, under passive waiting
/// (ctest) from about 6000-8000.
inline constexpr std::uint64_t kRoundTeamMinNodes = 4096;

/// Whether an n-node graph round runs its chunk loop on a thread team.
constexpr bool rounds_take_team(std::uint64_t n) { return n >= kRoundTeamMinNodes; }

/// Thread-team sizes of one trial driver call. 1 means "no team".
struct ThreadPlan {
  unsigned trial_team = 1;
  unsigned round_team = 1;

  friend bool operator==(const ThreadPlan&, const ThreadPlan&) = default;
};

/// The planning rule. `trials` is the number of trials the driver runs,
/// `n` the node count,
/// `threads` the threads available to the driver, and `team_rounds`
/// whether its rounds have a parallel region at all (graph rounds do,
/// count rounds do not).
constexpr ThreadPlan plan_threads(std::uint64_t trials, std::uint64_t n, unsigned threads,
                                  bool team_rounds) {
  threads = std::max(threads, 1u);
  if (trials >= threads || !team_rounds || !rounds_take_team(n)) {
    const std::uint64_t team = std::clamp<std::uint64_t>(trials, 1, threads);
    return {static_cast<unsigned>(team), 1};
  }
  return {1, threads};
}

/// Threads a parallel region opened at this point may run on: the OpenMP
/// team size at the top level, and 1 inside any active region (and in
/// builds without OpenMP). Nested teams would multiply the threads past
/// the cores, so OMP_MAX_ACTIVE_LEVELS and OMP_NUM_THREADS lists never
/// open one.
unsigned available_threads();

/// Threads the chunk loop of an n-node graph round runs on: the num_threads
/// of the three graph round regions. 1 below the crossover and inside a
/// trial team, else every available thread.
unsigned round_team_size(std::uint64_t n);

}  // namespace plurality
