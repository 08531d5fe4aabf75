// `parallel` decides only how trials and rounds share the threads: every
// trial, round and chunk draws from its own stream, so parallel=true and
// parallel=false must give bitwise-equal summaries and round samples. The
// grid covers graph strict, graph batched and count, with fewer, as many
// and more trials than a 4-thread team, on small and large n.
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::scenario {
namespace {

#if defined(PLURALITY_HAVE_OPENMP)
struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};
#endif

TrialSummary run_with(const std::string& text, bool parallel) {
  ScenarioSpec spec = ScenarioSpec::parse(text);
  spec.parallel = parallel;
  return run_scenario(spec).summary;
}

TEST(ParallelInvariance, ParallelTrueAndFalseAgreeBitwise) {
#if defined(PLURALITY_HAVE_OPENMP)
  // A fixed team of 4 puts trials = 1 and 3 below the team size and 8
  // above it, whatever the host's core count.
  ThreadCountGuard guard(4);
#endif
  const char* const cells[] = {
      "backend=graph engine=strict topology=clique",
      "backend=graph engine=strict topology=regular:8",
      "backend=graph engine=batched topology=clique",
      "backend=graph engine=batched topology=regular:8",
      "backend=count engine=strict topology=clique",
      "backend=count engine=batched topology=clique",
  };
  for (const char* cell : cells) {
    for (const char* n : {"600", "20000"}) {
      for (const char* trials : {"1", "3", "8"}) {
        const std::string text = std::string("dynamics=3-majority workload=bias:2c k=4 ") +
                                 "max_rounds=400 seed=11 " + cell + " n=" + n +
                                 " trials=" + trials;
        const TrialSummary on = run_with(text, true);
        const TrialSummary off = run_with(text, false);
        EXPECT_EQ(on.trials, off.trials) << text;
        EXPECT_EQ(on.consensus_count, off.consensus_count) << text;
        EXPECT_EQ(on.plurality_wins, off.plurality_wins) << text;
        EXPECT_EQ(on.round_limit_hits, off.round_limit_hits) << text;
        EXPECT_EQ(on.predicate_stops, off.predicate_stops) << text;
        EXPECT_EQ(on.rounds.count(), off.rounds.count()) << text;
        if (off.rounds.count() > 0) {
          EXPECT_EQ(on.rounds.mean(), off.rounds.mean()) << text;
          EXPECT_EQ(on.rounds.min(), off.rounds.min()) << text;
          EXPECT_EQ(on.rounds.max(), off.rounds.max()) << text;
        }
        EXPECT_EQ(on.round_samples, off.round_samples) << text;  // order included
      }
    }
  }
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(ParallelInvariance, ResultsEchoTheThreadPlanTheyRanWith) {
  ThreadCountGuard guard(4);
  const auto plan_of = [](const std::string& text) {
    const io::JsonValue doc = scenario_result_to_json(run_scenario(ScenarioSpec::parse(text)));
    const io::JsonValue& plan = doc.at("plan");
    return ThreadPlan{static_cast<unsigned>(plan.at("trial_team").as_uint()),
                      static_cast<unsigned>(plan.at("round_team").as_uint())};
  };
  const std::string graph = "dynamics=3-majority workload=bias:2c k=2 max_rounds=50 "
                            "backend=graph topology=ring n=8192 ";
  EXPECT_EQ(plan_of(graph + "trials=1"), (ThreadPlan{1, 4}));
  EXPECT_EQ(plan_of(graph + "trials=8"), (ThreadPlan{4, 1}));
  EXPECT_EQ(plan_of(graph + "trials=8 parallel=false"), (ThreadPlan{1, 4}));
  EXPECT_EQ(plan_of("dynamics=3-majority workload=bias:2c k=2 n=600 trials=3 "
                    "backend=graph topology=ring max_rounds=50"),
            (ThreadPlan{3, 1}));
  EXPECT_EQ(plan_of("dynamics=3-majority workload=bias:2c k=2 n=100000 trials=3 "
                    "backend=count"),
            (ThreadPlan{3, 1}));
  // Scenario::plan() is what run_scenario records.
  const Scenario compiled = Scenario::compile(ScenarioSpec::parse(graph + "trials=2"));
  EXPECT_EQ(compiled.plan(), (ThreadPlan{1, 4}));
}
#endif

}  // namespace
}  // namespace plurality::scenario
