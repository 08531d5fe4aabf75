// Determinism regression suite for the stepping engine.
//
// Three contracts, all bitwise:
//
//  1. Golden fixed-seed trajectories. The exact count vectors below were
//     recorded from the PRE-workspace-refactor stepper (the seed tree's
//     backend.cpp) and must never drift: the workspace/sparse-kernel path,
//     the frozen dense reference, and the graph engine's unshuffled
//     implicit clique all have to keep reproducing them for these seeds.
//  2. Workspace path == dense reference path on the same generator state,
//     for every dynamics with an exact law (sparse or not), round by round.
//  3. Thread-count independence: run_trials and the per-node clique return
//     identical results under 1, 4, and max OpenMP threads.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/registry.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {
namespace {

std::vector<count_t> counts_of(const Configuration& c) {
  return {c.counts().begin(), c.counts().end()};
}

// The per-node clique sampler: the graph engine on the implicit complete
// graph with the layout unshuffled (states laid out in color order).
graph::GraphSimulation clique_sim(const Dynamics& dyn, const Configuration& start,
                                  std::uint64_t seed) {
  return graph::GraphSimulation(dyn, graph::Topology::complete(start.n()), start, seed,
                                /*shuffle_layout=*/false);
}

// FNV-1a over the count vector's little-endian bytes (compact golden value
// for wide configurations).
std::uint64_t fnv_hash(const Configuration& c) {
  std::uint64_t h = 1469598103934665603ULL;
  for (state_t j = 0; j < c.k(); ++j) {
    std::uint64_t v = c.at(j);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(GoldenTrajectories, CountBasedMajority) {
  ThreeMajority dyn;
  rng::Xoshiro256pp gen(12345);
  Configuration c({500000, 300000, 150000, 50000});
  StepWorkspace ws;
  for (int r = 0; r < 3; ++r) step_count_based(dyn, c, gen, ws);
  EXPECT_EQ(counts_of(c), (std::vector<count_t>{758781, 181735, 48493, 10991}));
}

TEST(GoldenTrajectories, CountBasedUndecided) {
  UndecidedState dyn;
  rng::Xoshiro256pp gen(777);
  Configuration c = UndecidedState::extend_with_undecided(
      Configuration({40000, 35000, 15000, 10000}));
  StepWorkspace ws;
  for (int r = 0; r < 8; ++r) step_count_based(dyn, c, gen, ws);
  EXPECT_EQ(counts_of(c), (std::vector<count_t>{53449, 15483, 858, 283, 29927}));
}

TEST(GoldenTrajectories, CountBasedUndecidedSparseK301) {
  // The workload the sparse-class kernel targets: 300 colors, 3 occupied.
  UndecidedState dyn;
  rng::Xoshiro256pp gen(424242);
  std::vector<count_t> counts(300, 0);
  counts[0] = 60000;
  counts[17] = 30000;
  counts[255] = 10000;
  Configuration c =
      UndecidedState::extend_with_undecided(Configuration(std::move(counts)));
  StepWorkspace ws;
  for (int r = 0; r < 6; ++r) step_count_based(dyn, c, gen, ws);
  EXPECT_EQ(c.n(), 100000u);
  EXPECT_EQ(fnv_hash(c), 9164166613050701103ULL);
}

// The two Agent* goldens were recorded from the standalone per-node clique
// sampler that preceded the graph engine; the unshuffled implicit clique
// reproduces them bitwise.
TEST(GoldenTrajectories, AgentMajority) {
  ThreeMajority dyn;
  auto sim = clique_sim(dyn, Configuration({700, 200, 100}), 2024);
  for (int r = 0; r < 2; ++r) sim.step();
  EXPECT_EQ(counts_of(sim.configuration()), (std::vector<count_t>{918, 53, 29}));
}

TEST(GoldenTrajectories, AgentUndecided) {
  UndecidedState dyn;
  auto sim = clique_sim(
      dyn, UndecidedState::extend_with_undecided(Configuration({600, 250, 150})), 31337);
  for (int r = 0; r < 5; ++r) sim.step();
  EXPECT_EQ(counts_of(sim.configuration()), (std::vector<count_t>{911, 5, 3, 81}));
}

// Per-node clique sampler digests: one FNV-1a fold of the node-state array
// and the counts after each of 10 rounds, for every rule family at k = 3
// (byte-mirror path) and k = 300 (u32 path). Recorded from the per-node
// clique sampler; any change to its streams, sampling order or rules shows.
struct CliqueDigestCase {
  const char* dynamics;
  state_t k;
  std::uint64_t digest;
};

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// Colors weighted k, k-1, ..., 1 over n nodes (remainder to color 0), and
// auxiliary states (undecided) empty.
Configuration graded_start(const Dynamics& dyn, state_t k, count_t n) {
  std::vector<count_t> counts(dyn.num_states(k), 0);
  const count_t weight_sum = static_cast<count_t>(k) * (k + 1) / 2;
  count_t placed = 0;
  for (state_t j = 0; j < k; ++j) {
    counts[j] = n * (k - j) / weight_sum;
    placed += counts[j];
  }
  counts[0] += n - placed;
  return Configuration(std::move(counts));
}

TEST(GoldenTrajectories, CliqueSamplerDigests) {
  const CliqueDigestCase cases[] = {
      {"3-majority", 3, 17725176247682898086ULL},
      {"3-majority", 300, 17875364873088364195ULL},
      {"voter", 3, 2333765033266312165ULL},
      {"voter", 300, 16085049829527386644ULL},
      {"2-choices", 3, 2430938240495809081ULL},
      {"2-choices", 300, 9465827551908295399ULL},
      {"3-median", 3, 1126657314494264600ULL},
      {"3-median", 300, 2247545137847261442ULL},
      {"median-own2", 3, 10507996373616064261ULL},
      {"median-own2", 300, 9830893035830288219ULL},
      {"undecided", 3, 15617732017628269757ULL},
      {"undecided", 300, 2938181430325591659ULL},
      {"5-plurality", 3, 7204498589609765241ULL},
      {"5-plurality", 300, 14368627381998888249ULL},
      {"9-plurality", 3, 16052157858778547753ULL},
      {"9-plurality", 300, 15351903790642994911ULL},
      {"17-plurality", 3, 10585436439634826620ULL},
      {"17-plurality", 300, 8812557935241010493ULL},
      {"rule:first", 3, 1963770488053959939ULL},
      {"rule:first", 300, 6777706428368296139ULL},
      {"rule:majority-tie-cond", 3, 11134629958152286038ULL},
      {"rule:majority-tie-cond", 300, 6476684134718693335ULL},
      {"rule:majority-tie-last", 3, 12783280821161275073ULL},
      {"rule:majority-tie-last", 300, 2124644048327645564ULL},
  };
  const count_t n = 4097;  // not a multiple of the 64 chunks
  std::uint64_t seed = 9001;
  for (const CliqueDigestCase& c : cases) {
    const auto dyn = make_dynamics(c.dynamics);
    auto sim = clique_sim(*dyn, graded_start(*dyn, c.k, n), seed++);
    std::uint64_t h = 1469598103934665603ULL;
    for (int r = 0; r < 10; ++r) {
      sim.step();
      for (const state_t s : sim.states()) h = fnv_fold(h, s);
      for (const count_t x : sim.configuration().counts()) h = fnv_fold(h, x);
    }
    EXPECT_EQ(h, c.digest) << c.dynamics << " k=" << c.k;
  }
}

TEST(GoldenTrajectories, TrialSummaries) {
  {
    ThreeMajority dyn;
    CommonTrialOptions options;
    options.trials = 32;
    options.seed = 99;
    options.parallel = false;
    const TrialSummary s = run_trials(dyn, Configuration({4000, 3500, 2500}), options);
    EXPECT_EQ(s.consensus_count, 32u);
    EXPECT_EQ(s.plurality_wins, 32u);
    EXPECT_DOUBLE_EQ(s.rounds.mean(), 11.5);
  }
  {
    UndecidedState dyn;
    CommonTrialOptions options;
    options.trials = 24;
    options.seed = 7;
    options.parallel = false;
    const TrialSummary s = run_trials(
        dyn, UndecidedState::extend_with_undecided(Configuration({4000, 3500, 2500})),
        options);
    EXPECT_EQ(s.consensus_count, 24u);
    EXPECT_EQ(s.plurality_wins, 24u);
    EXPECT_DOUBLE_EQ(s.rounds.mean(), 16.791666666666668);
  }
}

// --- Workspace path vs frozen dense reference, all exact-law dynamics. ---

class WorkspaceVsReference : public ::testing::TestWithParam<const Dynamics*> {};

TEST_P(WorkspaceVsReference, IdenticalStreamsAndStates) {
  const Dynamics& dynamics = *GetParam();
  const state_t colors = 5;
  Configuration base({40, 0, 25, 20, 15});  // one empty class on purpose
  Configuration start = dynamics.num_states(colors) > colors
                            ? UndecidedState::extend_with_undecided(base)
                            : base;
  rng::Xoshiro256pp gen_ws(321), gen_ref(321);
  Configuration a = start, b = start;
  StepWorkspace ws;
  for (int round = 0; round < 40; ++round) {
    step_count_based(dynamics, a, gen_ws, ws);
    step_count_based_reference(dynamics, b, gen_ref);
    ASSERT_EQ(a, b) << dynamics.name() << " diverged at round " << round << ": "
                    << a.to_string() << " vs " << b.to_string();
    ASSERT_EQ(gen_ws.state(), gen_ref.state())
        << dynamics.name() << " consumed different randomness at round " << round;
  }
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;

INSTANTIATE_TEST_SUITE_P(AllDynamics, WorkspaceVsReference,
                         ::testing::Values(&kMajority, &kVoter, &kTwoChoices, &kMedian,
                                           &kMedianOwnTwo, &kUndecided),
                         [](const auto& info) {
                           std::string name = info.param->name();
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(WorkspaceReuse, SharedAcrossRunsMatchesFresh) {
  // A workspace reused across runs/dynamics is pure scratch: interleaving
  // two different processes through ONE workspace must reproduce what each
  // gets from a private fresh workspace.
  ThreeMajority majority;
  UndecidedState undecided;
  const Configuration start_a({300, 250, 200});
  const Configuration start_b =
      UndecidedState::extend_with_undecided(Configuration({100, 80, 60, 40}));

  rng::Xoshiro256pp gen_a1(5), gen_a2(5), gen_b1(6), gen_b2(6);
  Configuration shared_a = start_a, fresh_a = start_a;
  Configuration shared_b = start_b, fresh_b = start_b;
  StepWorkspace shared;
  for (int round = 0; round < 30; ++round) {
    step_count_based(majority, shared_a, gen_a1, shared);
    step_count_based(undecided, shared_b, gen_b1, shared);
    StepWorkspace fresh1, fresh2;
    step_count_based(majority, fresh_a, gen_a2, fresh1);
    step_count_based(undecided, fresh_b, gen_b2, fresh2);
    ASSERT_EQ(shared_a, fresh_a) << "round " << round;
    ASSERT_EQ(shared_b, fresh_b) << "round " << round;
  }
}

// --- Thread-count independence. ---

#if defined(PLURALITY_HAVE_OPENMP)

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

TrialSummary majority_trials(bool parallel) {
  ThreeMajority dyn;
  CommonTrialOptions options;
  options.trials = 48;
  options.seed = 2026;
  options.parallel = parallel;
  return run_trials(dyn, Configuration({2000, 1800, 1200}), options);
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
  EXPECT_EQ(a.predicate_stops, b.predicate_stops);
  EXPECT_EQ(a.round_samples, b.round_samples);  // bitwise, order included
}

TEST(ThreadInvariance, TrialSummaryIdenticalAcrossThreadCounts) {
  const TrialSummary serial = majority_trials(false);
  for (const int threads : {1, 4, omp_get_max_threads()}) {
    ThreadCountGuard guard(threads);
    expect_same_summary(majority_trials(true), serial);
  }
}

TEST(ThreadInvariance, AgentTrajectoryIdenticalAcrossThreadCounts) {
  UndecidedState dyn;
  const Configuration start =
      UndecidedState::extend_with_undecided(Configuration({500, 300, 200}));
  std::vector<std::vector<count_t>> baseline;
  {
    ThreadCountGuard guard(1);
    auto sim = clique_sim(dyn, start, 4096);
    for (int r = 0; r < 10; ++r) {
      sim.step();
      baseline.push_back(counts_of(sim.configuration()));
    }
  }
  for (const int threads : {4, omp_get_max_threads()}) {
    ThreadCountGuard guard(threads);
    auto sim = clique_sim(dyn, start, 4096);
    for (int r = 0; r < 10; ++r) {
      sim.step();
      ASSERT_EQ(counts_of(sim.configuration()), baseline[static_cast<std::size_t>(r)])
          << threads << " threads diverged at round " << r;
    }
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality
