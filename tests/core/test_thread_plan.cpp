// The thread planning rule on its own: a pure function of (trials, n,
// threads, whether rounds can take a team), so it is checked as a table,
// with no OpenMP involved.
#include "core/thread_plan.hpp"

#include <gtest/gtest.h>

namespace plurality {
namespace {

struct PlanCase {
  std::uint64_t trials;
  std::uint64_t n;
  unsigned threads;
  bool graph;  // graph rounds can take a team, count rounds cannot
  ThreadPlan want;
};

constexpr std::uint64_t kSmall = kRoundTeamMinNodes - 1;
constexpr std::uint64_t kLarge = kRoundTeamMinNodes;

TEST(ThreadPlan, RuleTable) {
  const PlanCase cases[] = {
      // At least as many trials as threads: a full trial team, rounds on
      // the trial's thread, whatever the backend or n.
      {4, kLarge, 4, true, {4, 1}},
      {512, kLarge, 4, true, {4, 1}},
      {512, kSmall, 4, true, {4, 1}},
      {512, 10'000'000, 4, false, {4, 1}},
      // Fewer trials than threads on a graph at or above the crossover:
      // trials one after another, each round on the whole team.
      {1, kLarge, 4, true, {1, 4}},
      {3, kLarge, 4, true, {1, 4}},
      {1, 4'194'303, 4, true, {1, 4}},
      {3, 20'000, 16, true, {1, 16}},
      {8, 4'194'303, 16, true, {1, 16}},
      // ... below the crossover, or on the count backend: one thread per
      // trial, rounds on one thread.
      {1, kSmall, 4, true, {1, 1}},
      {3, kSmall, 4, true, {3, 1}},
      {3, 10'000'000, 4, false, {3, 1}},
      {1, 10'000'000, 4, false, {1, 1}},
      // One thread (or a nested call, which sees one): no team at all.
      {1, kLarge, 1, true, {1, 1}},
      {512, kLarge, 1, true, {1, 1}},
      {512, kLarge, 1, false, {1, 1}},
      // A thread count of 0 reads as 1.
      {8, kLarge, 0, true, {1, 1}},
  };
  for (const PlanCase& c : cases) {
    const ThreadPlan got = plan_threads(c.trials, c.n, c.threads, c.graph);
    EXPECT_EQ(got, c.want) << "trials=" << c.trials << " n=" << c.n
                           << " threads=" << c.threads << " graph=" << c.graph << " -> {"
                           << got.trial_team << ", " << got.round_team << "}";
  }
}

TEST(ThreadPlan, NeverUsesMoreThreadsThanItHas) {
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u, 64u}) {
    for (const std::uint64_t trials : {1u, 2u, 5u, 64u, 1000u}) {
      for (const std::uint64_t n : {kSmall, kLarge}) {
        for (const bool graph : {false, true}) {
          const ThreadPlan plan = plan_threads(trials, n, threads, graph);
          // Only one level is ever a team, and it never exceeds the
          // threads or (for trials) the trial count.
          EXPECT_TRUE(plan.trial_team == 1 || plan.round_team == 1);
          EXPECT_LE(plan.trial_team * plan.round_team, threads);
          EXPECT_LE(plan.trial_team, trials);
        }
      }
    }
  }
}

static_assert(plan_threads(2, kLarge, 4, true) == ThreadPlan{1, 4},
              "the rule is usable at compile time");
static_assert(!rounds_take_team(kSmall) && rounds_take_team(kLarge),
              "graph rounds take a team from the crossover on");

}  // namespace
}  // namespace plurality
