// Determinism regression suite for the CSR graph engine — the graph-layer
// mirror of tests/core/test_determinism.cpp. Three bitwise contracts:
//
//  1. Golden fixed-seed trajectories, recorded from the FROZEN pre-refactor
//     per-node stepper (reference_sim.cpp) on ring / torus / clique. Both
//     the reference and the CSR engine must keep reproducing them forever.
//  2. Engine == reference round by round — node states AND count vectors —
//     for every dynamics (fused kernels and the generic fallback alike),
//     on sparse explicit graphs and on the implicit clique.
//  3. Thread-count independence: GraphSimulation trajectories and
//     run_graph_trials summaries are identical under 1, 4, and max OpenMP
//     threads.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/observer.hpp"
#include "core/registry.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/kernels.hpp"
#include "graph/reference_sim.hpp"
#include "thread_count_guard.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

std::vector<count_t> counts_of(const Configuration& c) {
  return {c.counts().begin(), c.counts().end()};
}

// --- 1. Golden fixed-seed trajectories (recorded from the frozen
//        reference stepper; see file comment). -----------------------------

TEST(GoldenGraphTrajectories, RingMajority) {
  ThreeMajority dyn;
  const AgentGraph topo = cycle(60);
  const Configuration start = workloads::additive_bias(60, 3, 18);
  const std::vector<count_t> golden = {33, 8, 19};

  ReferenceGraphSimulation ref(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, TorusUndecided) {
  UndecidedState dyn;
  const AgentGraph topo = torus(10, 10);
  const Configuration start =
      UndecidedState::extend_with_undecided(workloads::additive_bias(100, 4, 20));
  const std::vector<count_t> golden = {75, 0, 5, 9, 11};

  ReferenceGraphSimulation ref(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, CliqueMajority) {
  ThreeMajority dyn;
  const AgentGraph topo = AgentGraph::complete(150);
  const Configuration start = workloads::additive_bias(150, 3, 30);
  const std::vector<count_t> golden = {140, 3, 7};

  ReferenceGraphSimulation ref(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

// --- 2. Engine vs frozen reference, all dynamics, round by round. ---------

struct EngineVsReferenceCase {
  const Dynamics* dynamics;
  bool extend_undecided;
};

class EngineVsReference : public ::testing::TestWithParam<EngineVsReferenceCase> {};

TEST_P(EngineVsReference, BitwiseEqualOnRandomRegular) {
  const auto& param = GetParam();
  rng::Xoshiro256pp topo_gen(42);
  const AgentGraph graph = random_regular(200, 6, topo_gen);

  Configuration start = workloads::additive_bias(200, 4, 40);
  if (param.extend_undecided) start = UndecidedState::extend_with_undecided(start);

  ReferenceGraphSimulation ref(*param.dynamics, graph, start, 1234);
  GraphSimulation engine(*param.dynamics, graph, start, 1234);
  for (int round = 0; round < 25; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states().to_vector())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

TEST_P(EngineVsReference, BitwiseEqualOnClique) {
  const auto& param = GetParam();
  const AgentGraph topo = AgentGraph::complete(200);
  Configuration start = workloads::additive_bias(200, 4, 40);
  if (param.extend_undecided) start = UndecidedState::extend_with_undecided(start);

  ReferenceGraphSimulation ref(*param.dynamics, topo, start, 555);
  GraphSimulation engine(*param.dynamics, topo, start, 555);
  for (int round = 0; round < 15; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states().to_vector())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;
const HPlurality kFivePlurality(5);
// No fused kernel exists for rule tables: exercises the generic
// virtual-dispatch fallback path.
const std::unique_ptr<Dynamics> kRuleMin = make_dynamics("rule:min");

INSTANTIATE_TEST_SUITE_P(
    AllDynamics, EngineVsReference,
    ::testing::Values(EngineVsReferenceCase{&kMajority, false},
                      EngineVsReferenceCase{&kVoter, false},
                      EngineVsReferenceCase{&kTwoChoices, false},
                      EngineVsReferenceCase{&kMedian, false},
                      EngineVsReferenceCase{&kMedianOwnTwo, false},
                      EngineVsReferenceCase{&kUndecided, true},
                      EngineVsReferenceCase{&kFivePlurality, false},
                      EngineVsReferenceCase{kRuleMin.get(), false}),
    [](const auto& info) {
      std::string name = info.param.dynamics->name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(EngineVsReferenceWide, BitwiseEqualBeyondByteMirror) {
  // k > 256 keeps the node states as u32, taking the state_t sweep path —
  // pin that branch against the reference too (the k <= 256 cases above
  // never reach it).
  const state_t k = 300;
  rng::Xoshiro256pp topo_gen(77);
  const AgentGraph graph = random_regular(600, 6, topo_gen);
  std::vector<count_t> counts(k, 2);  // 600 nodes over 300 colors
  const Configuration start(std::move(counts));

  const Voter voter;
  const MedianDynamics median;
  for (const Dynamics* dynamics :
       {static_cast<const Dynamics*>(&voter), static_cast<const Dynamics*>(&median)}) {
    ReferenceGraphSimulation ref(*dynamics, graph, start, 4242);
    GraphSimulation engine(*dynamics, graph, start, 4242);
    for (int round = 0; round < 12; ++round) {
      ref.step();
      engine.step();
      ASSERT_EQ(ref.configuration(), engine.configuration())
          << dynamics->name() << " (k=300) counts diverged at round " << round;
      ASSERT_EQ(ref.states(), engine.states().to_vector())
          << dynamics->name() << " (k=300) node states diverged at round " << round;
    }
  }
}

TEST(EngineVsReferenceLongChunks, WindowedDriverMatchesPerNodeLoop) {
  // n = 1500 gives 24-node chunks: longer than kernels::kPrefetchWindow, so
  // the windowed strict driver runs a full window and a ragged one per
  // chunk (the cases above have 4-node chunks, one partial window). The
  // frozen reference steps node by node, so equality pins that the window
  // keeps the per-node draw order. The ring with chords is not
  // degree-uniform, so the scalar CSR driver runs on every host; the
  // random-regular graph takes the lane kernels where the host has them.
  constexpr count_t n = 1500;
  static_assert((n + kGraphChunks - 1) / kGraphChunks > kernels::kPrefetchWindow);
  std::vector<std::pair<count_t, count_t>> edges;
  for (count_t v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    if (v % 3 == 0) edges.emplace_back(v, (v + 7) % n);
  }
  const AgentGraph chords = AgentGraph::from_edges(n, edges);
  ASSERT_NE(chords.min_degree(), chords.max_degree());
  rng::Xoshiro256pp topo_gen(51);
  const AgentGraph regular = random_regular(n, 8, topo_gen);
  const Configuration start = workloads::parse_workload("bias:40", n, 3);
  const Configuration start_undecided = UndecidedState::extend_with_undecided(start);
  for (const AgentGraph* graph : {&chords, &regular}) {
    for (const auto& [dynamics, from] :
         {std::pair<const Dynamics*, const Configuration*>{&kMajority, &start},
          {&kUndecided, &start_undecided}}) {
      ReferenceGraphSimulation ref(*dynamics, *graph, *from, 61);
      GraphSimulation engine(*dynamics, *graph, *from, 61);
      for (int round = 0; round < 4; ++round) {
        ref.step();
        engine.step();
        ASSERT_EQ(ref.states(), engine.states().to_vector())
            << dynamics->name() << (graph == &chords ? " chords" : " regular:8")
            << " node states diverged at round " << round;
      }
    }
  }
}

TEST(EngineWorkspaceReuse, SharedAcrossTrialsMatchesFresh) {
  // One workspace carried across different dynamics and k values (the
  // run_graph_trials reuse pattern) must reproduce fresh-workspace runs:
  // everything except the node states is rewritten per round, and the node
  // states are rewritten per load_nodes.
  ThreeMajority majority;
  UndecidedState undecided;
  rng::Xoshiro256pp topo_gen(11);
  const AgentGraph graph = random_regular(120, 4, topo_gen);
  const Configuration start_a = workloads::additive_bias(120, 3, 30);
  const Configuration start_b =
      UndecidedState::extend_with_undecided(workloads::additive_bias(120, 5, 20));

  GraphStepWorkspace shared;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int which = 0; which < 2; ++which) {
      const Dynamics& dyn = which == 0 ? static_cast<const Dynamics&>(majority)
                                       : static_cast<const Dynamics&>(undecided);
      const Configuration& start = which == 0 ? start_a : start_b;
      const rng::StreamFactory streams(301 + which);

      Configuration shared_cfg = start;
      shared.prepare(start.n(), start.k());
      load_nodes(start, true, streams, shared);

      GraphStepWorkspace fresh;
      Configuration fresh_cfg = start;
      fresh.prepare(start.n(), start.k());
      load_nodes(start, true, streams, fresh);

      for (round_t round = 0; round < 8; ++round) {
        step_graph(dyn, graph, shared_cfg, streams, round, shared);
        step_graph(dyn, graph, fresh_cfg, streams, round, fresh);
        ASSERT_EQ(shared_cfg, fresh_cfg) << dyn.name() << " round " << round;
        ASSERT_EQ(shared.states(start.k()).to_vector(), fresh.states(start.k()).to_vector())
            << dyn.name() << " round " << round;
      }
    }
  }
}

// --- Golden run_graph_trials summary (pins the trial driver's stream
//     plumbing: per-trial families, layout stream, outcome filters). ------

TEST(GoldenGraphTrajectories, GraphTrialSummary) {
  const ThreadCountGuard guard(1);
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(8);
  const AgentGraph graph = random_regular(300, 8, topo_gen);
  CommonTrialOptions options;
  options.trials = 24;
  options.seed = 31;
  options.max_rounds = 4000;
  const TrialSummary s =
      run_graph_trials(dyn, graph, workloads::additive_bias(300, 3, 90), options);
  EXPECT_EQ(s.consensus_count, 24u);
  EXPECT_EQ(s.plurality_wins, 24u);
  EXPECT_EQ(s.round_limit_hits, 0u);
  EXPECT_DOUBLE_EQ(s.rounds.mean(), 10.83333333333333);
}

// --- Golden adversary digests (pin corrupt_nodes' victim placement through
//     run_graph_trials, at both node-state widths and on both engines). ----

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every observed round's counts, per trial.
class RoundCountsRecorder final : public RoundObserver {
 public:
  explicit RoundCountsRecorder(std::uint64_t trials) : rounds(trials) {}
  void begin_trial(std::uint64_t, const Configuration&, state_t) override {}
  void observe_round(std::uint64_t trial, round_t, const Configuration& config,
                     state_t) override {
    rounds[trial].push_back(counts_of(config));
  }
  void end_trial(std::uint64_t, StopReason, round_t, const Configuration&,
                 state_t) override {}
  std::vector<std::vector<std::vector<count_t>>> rounds;
};

/// Node states of a loaded workspace, read at the width it holds them in:
/// the u32 array when it is sized for the trial, the byte array otherwise.
std::vector<state_t> held_states(const GraphStepWorkspace& ws, count_t n) {
  if (ws.nodes.size() == n) return ws.nodes;
  return {ws.nodes8.begin(), ws.nodes8.begin() + static_cast<std::ptrdiff_t>(n)};
}

struct AdversaryDigestCase {
  EngineMode mode;
  state_t k;
  bool clique;
  const char* adversary;
  std::uint64_t digest;
};

TEST(GoldenGraphTrajectories, AdversaryDigests) {
  // One FNV-1a fold per case: each trial's per-round counts as
  // run_graph_trials observes them, then that trial's final node states.
  // The states come from replaying the trial body by hand (same streams,
  // same step/corrupt order), checked round by round against the driver.
  const AdversaryDigestCase cases[] = {
      {EngineMode::Strict, 3, false, "boost-runner-up:5", 9852026409027801548ULL},
      {EngineMode::Strict, 3, false, "feed-weakest:5", 4967488595588132269ULL},
      {EngineMode::Strict, 3, false, "random:5", 16044322498806337014ULL},
      {EngineMode::Strict, 3, true, "boost-runner-up:5", 3648216674347242354ULL},
      {EngineMode::Strict, 3, true, "feed-weakest:5", 13918839696605588705ULL},
      {EngineMode::Strict, 3, true, "random:5", 4269764271436849247ULL},
      {EngineMode::Strict, 300, false, "boost-runner-up:5", 11434491331252467179ULL},
      {EngineMode::Strict, 300, false, "feed-weakest:5", 3437248862254746286ULL},
      {EngineMode::Strict, 300, false, "random:5", 8689180245820232417ULL},
      {EngineMode::Strict, 300, true, "boost-runner-up:5", 14810013975322796848ULL},
      {EngineMode::Strict, 300, true, "feed-weakest:5", 13192695104015871542ULL},
      {EngineMode::Strict, 300, true, "random:5", 3496551910755007910ULL},
      {EngineMode::Batched, 3, false, "boost-runner-up:5", 12005769850071587784ULL},
      {EngineMode::Batched, 3, false, "feed-weakest:5", 6916512133824353322ULL},
      {EngineMode::Batched, 3, false, "random:5", 14579110828458237110ULL},
      {EngineMode::Batched, 3, true, "boost-runner-up:5", 7595546262468472183ULL},
      {EngineMode::Batched, 3, true, "feed-weakest:5", 5843886066452926274ULL},
      {EngineMode::Batched, 3, true, "random:5", 9991894083895568087ULL},
      {EngineMode::Batched, 300, false, "boost-runner-up:5", 9535074156720721478ULL},
      {EngineMode::Batched, 300, false, "feed-weakest:5", 14477177272306780550ULL},
      {EngineMode::Batched, 300, false, "random:5", 16848510144476427838ULL},
      {EngineMode::Batched, 300, true, "boost-runner-up:5", 13619612230741886071ULL},
      {EngineMode::Batched, 300, true, "feed-weakest:5", 12201288241587720159ULL},
      {EngineMode::Batched, 300, true, "random:5", 248374195580575791ULL},
  };
  const count_t n = 1200;
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(2718);
  const AgentGraph regular = random_regular(n, 8, topo_gen);
  const AgentGraph clique = AgentGraph::complete(n);
  std::uint64_t seed = 500;
  for (const AdversaryDigestCase& c : cases) {
    const std::string what = std::string(c.mode == EngineMode::Strict ? "strict" : "batched") +
                             " k=" + std::to_string(c.k) +
                             (c.clique ? " clique " : " regular:8 ") + c.adversary;
    const AgentGraph& graph = c.clique ? clique : regular;
    const Configuration start = workloads::additive_bias(n, c.k, 100);
    const auto adversary = make_adversary(c.adversary);
    RoundCountsRecorder recorder(3);
    CommonTrialOptions options;
    options.trials = 3;
    options.seed = seed++;
    options.max_rounds = 30;
    options.mode = c.mode;
    options.adversary = adversary.get();
    options.observer = &recorder;
    run_graph_trials(dyn, graph, start, options);

    const rng::StreamFactory streams(options.seed);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t trial = 0; trial < options.trials; ++trial) {
      rng::Xoshiro256pp gen = streams.stream(trial);
      const rng::StreamFactory trial_streams = streams.child(trial);
      Configuration config = start;
      GraphStepWorkspace ws;
      ws.prepare(n, c.k);
      load_nodes(config, true, trial_streams, ws);
      const auto& observed = recorder.rounds[trial];
      for (round_t r = 1; r <= observed.size(); ++r) {
        step_graph(dyn, graph, config, trial_streams, r - 1, ws, c.mode);
        corrupt_nodes(*adversary, config, c.k, r, gen, ws);
        ASSERT_EQ(counts_of(config), observed[r - 1]) << what << " trial " << trial;
        for (const count_t x : observed[r - 1]) h = fnv_fold(h, x);
      }
      for (const state_t s : held_states(ws, n)) h = fnv_fold(h, s);
    }
    EXPECT_EQ(h, c.digest) << what;
  }
}

// --- 3. Thread-count independence. ----------------------------------------

#if defined(PLURALITY_HAVE_OPENMP)

TEST(GraphThreadInvariance, TrajectoryIdenticalAcrossThreadCounts) {
  UndecidedState dyn;
  // 128x128 gives chunks long enough for the strict lane kernels (on hosts
  // that have them); 12x12 chunks are too short and stay scalar. A team of
  // 16 exceeds the lane path's 8 work items per round and steps scalar.
  for (const auto& [side, bias] : {std::pair<count_t, count_t>{12, 40}, {128, 4096}}) {
    const AgentGraph topo = torus(side, side);
    const Configuration start =
        UndecidedState::extend_with_undecided(workloads::additive_bias(side * side, 3, bias));

    std::vector<std::vector<count_t>> baseline;
    {
      ThreadCountGuard guard(1);
      GraphSimulation sim(dyn, topo, start, 4096);
      for (int r = 0; r < 10; ++r) {
        sim.step();
        baseline.push_back(counts_of(sim.configuration()));
      }
    }
    for (const int threads : {4, 16, omp_get_max_threads()}) {
      ThreadCountGuard guard(threads);
      GraphSimulation sim(dyn, topo, start, 4096);
      for (int r = 0; r < 10; ++r) {
        sim.step();
        ASSERT_EQ(counts_of(sim.configuration()), baseline[static_cast<std::size_t>(r)])
            << threads << " threads diverged at round " << r << " on torus " << side;
      }
    }
  }
}

TrialSummary torus_trials() {
  ThreeMajority dyn;
  const AgentGraph graph = torus(10, 10);
  CommonTrialOptions options;
  options.trials = 16;
  options.seed = 2026;
  options.max_rounds = 3000;
  return run_graph_trials(dyn, graph, workloads::additive_bias(100, 2, 40), options);
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
  EXPECT_EQ(a.predicate_stops, b.predicate_stops);
  EXPECT_EQ(a.round_samples, b.round_samples);  // bitwise, order included
}

TEST(GraphThreadInvariance, TrialSummaryIdenticalAcrossThreadCounts) {
  TrialSummary serial;
  {
    const ThreadCountGuard guard(1);
    serial = torus_trials();
  }
  for (const int threads : {2, 4, omp_get_max_threads()}) {
    const ThreadCountGuard guard(threads);
    expect_same_summary(torus_trials(), serial);
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality::graph
