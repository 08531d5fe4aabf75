// The strict engine's lane kernels (simd::Ops::strict_*): several
// (round, chunk) xoshiro256++ streams stepped in SIMD lockstep must
// reproduce the scalar chunk drivers bit for bit.
//
//  * SimdMatchesScalarBitwise: whole strict rounds with every kernel table
//    the host supports against the scalar path — lane rules and the
//    two-choices fallback, clique and regular:8, empty and ragged chunks.
//  * LaneKernelsRedoRejectedDraws: hand-built generator states whose next
//    output is 0 force Lemire rejections on some lanes; the lane entry must
//    finish those draws exactly like kernels::uniform_below.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/majority.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "graph/batched_simd.hpp"
#include "graph/builders.hpp"
#include "graph/kernels.hpp"

#include "thread_count_guard.hpp"

namespace plurality::graph {
namespace {

/// n nodes spread over k colors, color 0 ahead by a few nodes.
Configuration spread(count_t n, state_t k) {
  std::vector<count_t> counts(k, n / k);
  count_t rest = n % k;
  for (state_t j = 0; rest > 0; j = (j + 1) % k, --rest) ++counts[j];
  const count_t shift = std::min<count_t>(counts[k - 1], 3);
  counts[k - 1] -= shift;
  counts[0] += shift;
  return Configuration(counts);
}

std::vector<std::vector<state_t>> strict_trajectory(const Dynamics& dynamics,
                                                    const AgentGraph& graph,
                                                    const Configuration& start,
                                                    int rounds) {
  GraphSimulation sim(dynamics, graph, start, 41, /*shuffle_layout=*/true);
  std::vector<std::vector<state_t>> out;
  for (int r = 0; r < rounds; ++r) {
    sim.step();
    out.push_back(sim.states().to_vector());
    const auto counts = sim.configuration().counts();
    out.emplace_back(counts.begin(), counts.end());
  }
  return out;
}

TEST(GraphStrict, SimdMatchesScalarBitwise) {
  if (simd::supported().empty()) {
    GTEST_SKIP() << "no SIMD kernels on this host; scalar path is the only path";
  }
  // One thread: the battery compares kernel tables, not thread counts
  // (GraphThreadInvariance's 128x128 torus pins those on the lane path),
  // and one thread keeps it fast under ThreadSanitizer, which slows
  // libgomp's barriers by orders of magnitude.
  const ThreadCountGuard single_thread(1);
  ThreeMajority majority;
  Voter voter;
  UndecidedState undecided;
  TwoChoices two_choices;  // no lane kernel: must take the scalar fallback
  const std::array<const Dynamics*, 4> dynamics = {&majority, &voter, &undecided,
                                                   &two_choices};
  // n = 10 leaves most chunks empty, 4097 leaves the last chunk ragged.
  for (const count_t n : {count_t{10}, count_t{900}, count_t{4097}, count_t{20000}}) {
    rng::Xoshiro256pp topo_gen(n);
    const std::array<std::pair<const char*, AgentGraph>, 2> graphs = {
        std::pair{"clique", AgentGraph::complete(n)},
        std::pair{"regular:8", random_regular(n, 8, topo_gen)}};
    for (const state_t k : {state_t{2}, state_t{17}, state_t{200}}) {
      for (const Dynamics* dyn : dynamics) {
        const Configuration start = dyn == &undecided
                                        ? UndecidedState::extend_with_undecided(spread(n, k))
                                        : spread(n, k);
        for (const auto& [graph_name, graph] : graphs) {
          std::vector<std::vector<state_t>> scalar;
          {
            const simd::ScopedSelection none(nullptr);
            scalar = strict_trajectory(*dyn, graph, start, 3);
          }
          for (const simd::Ops* ops : simd::supported()) {
            const simd::ScopedSelection select(ops);
            ASSERT_EQ(strict_trajectory(*dyn, graph, start, 3), scalar)
                << ops->name << " / " << graph_name << " / " << dyn->name() << " n=" << n
                << " k=" << k;
          }
        }
      }
    }
  }
}

/// Runs one lane entry over hand-built states and checks every lane against
/// the scalar chunk driver started from the same state.
template <class Rule>
void expect_lanes_match_scalar(const simd::Ops& ops, void (*entry)(const simd::LaneArgs&),
                               const Rule& rule, const AgentGraph& graph,
                               const std::vector<std::uint8_t>& nodes8, state_t k,
                               const char* what) {
  const unsigned lanes = simd::kStrictLanes;
  const std::size_t stride = 24;
  const std::size_t steps = 2 * simd::kLaneBlock;
  const std::uint64_t first = 5;
  const std::size_t n = graph.num_nodes();
  ASSERT_LE(first + lanes * stride, n);
  const bool complete = graph.is_complete();
  const std::uint64_t bound = complete ? n : graph.min_degree();

  // Even lanes start at {0, a, b, 0}: their first output is 0, so the first
  // draw's low product word is 0 < bound and Lemire must reject/redo.
  std::vector<std::array<std::uint64_t, 4>> starts(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    starts[l] = l % 2 == 0 ? std::array<std::uint64_t, 4>{0, 0x9E3779B97F4A7C15ULL * (l + 1),
                                                           0xD1B54A32D192ED03ULL + l, 0}
                           : rng::Xoshiro256pp(1000 + l).state();
  }
  std::vector<std::uint64_t> state(4 * lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    for (unsigned w = 0; w < 4; ++w) state[w * lanes + l] = starts[l][w];
  }
  std::vector<std::uint8_t> out8(n + 4, 0xee);
  entry(simd::LaneArgs{state.data(), first, stride, steps,
                       complete ? nullptr : graph.neighbors(), bound, nodes8.data(),
                       out8.data(), k});

  std::vector<std::uint8_t> ref8(n + 4, 0xee);
  std::vector<count_t> local(k, 0);
  for (unsigned l = 0; l < lanes; ++l) {
    rng::Xoshiro256pp gen(starts[l]);
    const std::size_t lo = first + l * stride;
    if (complete) {
      kernels::run_chunk_complete(rule, nodes8.data(), ref8.data(), local.data(), lo,
                                  lo + steps, n, k, gen);
    } else {
      kernels::run_chunk_regular(rule, nodes8.data(), ref8.data(), local.data(), lo,
                                 lo + steps, graph.neighbors(), bound, k, gen);
    }
    for (unsigned w = 0; w < 4; ++w) {
      EXPECT_EQ(state[w * lanes + l], gen.state()[w])
          << ops.name << " " << what << " lane " << l << " word " << w;
    }
  }
  EXPECT_EQ(out8, ref8) << ops.name << " " << what;
}

TEST(GraphStrict, LaneKernelsRedoRejectedDraws) {
  const auto has_lanes = [](const simd::Ops* ops) {
    return ops->strict_complete_majority != nullptr;
  };
  if (std::none_of(simd::supported().begin(), simd::supported().end(), has_lanes)) {
    GTEST_SKIP() << "no strict lane kernels on this host; scalar path is the only path";
  }
  const count_t n = 1000;  // clique bound 1000: rejection threshold 616
  rng::Xoshiro256pp topo_gen(3);
  // Degree 6 rejects below threshold 4; degree 8 (a power of two) flags the
  // draw but accepts it (threshold 0).
  const AgentGraph clique = AgentGraph::complete(n);
  const AgentGraph regular6 = random_regular(n, 6, topo_gen);
  const AgentGraph regular8 = random_regular(n, 8, topo_gen);
  const state_t k = 4;  // undecided: state 3
  std::vector<std::uint8_t> nodes8(n + 4, 0);
  rng::Xoshiro256pp fill(9);
  for (count_t i = 0; i < n; ++i) nodes8[i] = static_cast<std::uint8_t>(fill() % k);

  for (const simd::Ops* ops : simd::supported()) {
    if (!has_lanes(ops)) continue;
    expect_lanes_match_scalar(*ops, ops->strict_complete_majority, kernels::MajorityRule{},
                              clique, nodes8, k, "complete majority");
    expect_lanes_match_scalar(*ops, ops->strict_complete_voter, kernels::VoterRule{},
                              clique, nodes8, k, "complete voter");
    expect_lanes_match_scalar(*ops, ops->strict_complete_undecided,
                              kernels::UndecidedRule{}, clique, nodes8, k,
                              "complete undecided");
    for (const AgentGraph* regular : {&regular6, &regular8}) {
      expect_lanes_match_scalar(*ops, ops->strict_regular_majority, kernels::MajorityRule{},
                                *regular, nodes8, k, "regular majority");
      expect_lanes_match_scalar(*ops, ops->strict_regular_voter, kernels::VoterRule{},
                                *regular, nodes8, k, "regular voter");
      expect_lanes_match_scalar(*ops, ops->strict_regular_undecided,
                                kernels::UndecidedRule{}, *regular, nodes8, k,
                                "regular undecided");
    }
  }
}

}  // namespace
}  // namespace plurality::graph
