#include "graph/agent_graph.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/thread_plan.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/batched_simd.hpp"
#include "graph/kernels.hpp"
#include "graph/kernels_batched.hpp"
#include "graph/step_batched.hpp"
#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

// ------------------------------------------------------------ AgentGraph ---

AgentGraph AgentGraph::complete(count_t n) {
  PLURALITY_REQUIRE(n >= 1, "AgentGraph::complete: need at least one node");
  AgentGraph g;
  g.n_ = n;
  g.complete_ = true;
  g.min_degree_ = n;  // self included — the paper's clique sampling model
  g.max_degree_ = n;
  return g;
}

AgentGraph AgentGraph::implicit(const ImplicitTopology& topo) {
  PLURALITY_REQUIRE(topo.implicit(), "AgentGraph::implicit: empty descriptor");
  AgentGraph g;
  g.n_ = static_cast<count_t>(topo.n);
  g.arcs_ = topo.n * topo.degree;  // same count the arena twin would store
  g.min_degree_ = static_cast<count_t>(topo.degree);
  g.max_degree_ = static_cast<count_t>(topo.degree);
  g.implicit_ = topo;
  return g;
}

AgentGraph AgentGraph::with_arena(count_t n, std::uint64_t arcs) {
  PLURALITY_REQUIRE(n >= 1, "AgentGraph: need at least one node");
  PLURALITY_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                    "AgentGraph: node ids must fit 32 bits (n=" << n << ")");
  AgentGraph g;
  g.n_ = n;
  g.arcs_ = arcs;
  // One arena: n+1 offset words, then the neighbor ids packed two per word.
  const std::size_t words = static_cast<std::size_t>(n) + 1 + (arcs + 1) / 2;
  g.arena_.assign(words, 0);
  return g;
}

AgentGraph AgentGraph::from_edges(count_t n,
                                  std::span<const std::pair<count_t, count_t>> edges) {
  std::uint64_t arcs = 0;
  for (const auto& [u, v] : edges) {
    PLURALITY_REQUIRE(u < n && v < n, "AgentGraph::from_edges: endpoint out of range");
    arcs += u == v ? 1 : 2;
  }
  AgentGraph g = with_arena(n, arcs);
  // Count-then-scatter inside the arena: offsets[v + 1] first counts v's
  // degree, then holds the start of row v and serves as its write cursor,
  // ending at the row's end — which is offsets[v + 1] proper.
  std::uint64_t* offsets = g.arena_.data();
  std::uint32_t* neighbors = g.mutable_neighbors();
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    if (u != v) ++offsets[v + 1];
  }
  g.min_degree_ = static_cast<count_t>(offsets[1]);
  g.max_degree_ = g.min_degree_;
  std::uint64_t start = 0;
  for (count_t v = 0; v < n; ++v) {
    const std::uint64_t deg = offsets[v + 1];
    g.min_degree_ = std::min<count_t>(g.min_degree_, deg);
    g.max_degree_ = std::max<count_t>(g.max_degree_, deg);
    offsets[v + 1] = start;
    start += deg;
  }
  for (const auto& [u, v] : edges) {
    neighbors[offsets[u + 1]++] = static_cast<std::uint32_t>(v);
    if (u != v) neighbors[offsets[v + 1]++] = static_cast<std::uint32_t>(u);
  }
  return g;
}

AgentGraph AgentGraph::fixed_degree(
    count_t n, count_t d, const std::function<void(std::uint32_t* rows)>& write_rows) {
  AgentGraph g = with_arena(n, n * d);
  std::uint64_t* offsets = g.arena_.data();
  for (count_t v = 0; v <= n; ++v) offsets[v] = v * d;
  g.min_degree_ = d;
  g.max_degree_ = d;
  write_rows(g.mutable_neighbors());
  return g;
}

count_t AgentGraph::degree(count_t v) const {
  PLURALITY_REQUIRE(v < n_, "AgentGraph::degree: node out of range");
  if (complete_) return n_;
  if (is_implicit()) return static_cast<count_t>(implicit_.degree);
  return offsets()[v + 1] - offsets()[v];
}

std::span<const std::uint32_t> AgentGraph::neighbors_of(count_t v) const {
  PLURALITY_REQUIRE(!complete_ && !is_implicit(),
                    "AgentGraph::neighbors_of: implicit graph stores no list");
  PLURALITY_REQUIRE(v < n_, "AgentGraph::neighbors_of: node out of range");
  const std::uint64_t lo = offsets()[v];
  return {neighbors() + lo, static_cast<std::size_t>(offsets()[v + 1] - lo)};
}

// ---------------------------------------------------------------- engine ---

namespace {

/// Lays state j out start.at(j) times in node-id order, then shuffles with
/// the layout stream. rng::shuffle's swaps depend only on the node count,
/// so every storage width gets the same node -> state assignment.
template <typename TNode>
void lay_out(const Configuration& start, bool shuffle_layout,
             const rng::StreamFactory& streams, TNode* nodes) {
  std::size_t pos = 0;
  for (state_t j = 0; j < start.k(); ++j) {
    const count_t c = start.at(j);
    std::fill_n(nodes + pos, c, static_cast<TNode>(j));
    pos += c;
  }
  if (shuffle_layout) {
    rng::Xoshiro256pp gen = streams.stream(kLayoutStream);
    rng::shuffle(gen, nodes, start.n());
  }
}

}  // namespace

void load_nodes(const Configuration& start, bool shuffle_layout,
                const rng::StreamFactory& streams, GraphStepWorkspace& ws) {
  ws.prepare(start.n(), start.k());
  if (byte_states(start.k())) {
    lay_out(start, shuffle_layout, streams, ws.nodes8.data());
  } else {
    lay_out(start, shuffle_layout, streams, ws.nodes.data());
  }
}

namespace {

/// Shared chunked-step body, instantiated once per fused rule. The chunk
/// grid, stream derivation, and publish order are bit-for-bit the frozen
/// reference's (reference_sim.cpp); only the per-node inner loop differs.
template <class Rule, typename TNode>
void chunk_sweep(const Rule& rule, const TNode* nodes, TNode* out, const AgentGraph& graph,
                 state_t k, const rng::StreamFactory& streams, round_t round,
                 GraphStepWorkspace& ws, const StepTuning& tuning) {
  const std::size_t n = graph.num_nodes();
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  count_t* partials = ws.partials.data();
  const bool complete = graph.is_complete();
  const bool implicit = graph.is_implicit();
  const std::uint64_t* offsets = (complete || implicit) ? nullptr : graph.offsets();
  const std::uint32_t* neighbors = (complete || implicit) ? nullptr : graph.neighbors();
  // Degree-uniform graphs (cycle, torus, random-regular) take the
  // specialized kernel: same results, no per-node offset loads.
  const bool regular =
      !complete && !implicit && graph.min_degree() == graph.max_degree();
  const std::uint64_t uniform_degree = regular ? graph.min_degree() : 0;
  const unsigned prefetch = tuning.prefetch_distance;

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static) if (rounds_take_team(n))
#endif
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    count_t* local = partials + static_cast<std::size_t>(chunk) * k;
    std::fill(local, local + k, count_t{0});
    if (lo < hi) {
      rng::Xoshiro256pp gen = streams.stream(round * kGraphChunks + chunk);
      if (complete) {
        kernels::run_chunk_complete(rule, nodes, out, local, lo, hi, n, k, gen, prefetch);
      } else if (implicit) {
        kernels::run_chunk_implicit(rule, nodes, out, local, lo, hi,
                                    graph.implicit_topology(), k, gen, prefetch);
      } else if (regular) {
        kernels::run_chunk_regular(rule, nodes, out, local, lo, hi, neighbors,
                                   uniform_degree, k, gen, prefetch);
      } else {
        kernels::run_chunk_csr(rule, nodes, out, local, lo, hi, offsets, neighbors, k,
                               gen, prefetch);
      }
    }
  }
}

/// Threads the chunk loop of an n-node round runs with: 1 below the
/// crossover (the regions' `if` clause) and inside a trial team, else the
/// whole team.
unsigned sweep_team_size(std::size_t n) {
  return rounds_take_team(n) ? available_threads() : 1;
}

/// The strict lane kernel of (Rule, graph) in `ops`, or nullptr: lane
/// kernels cover the majority, voter and undecided rules on the clique and
/// degree-uniform CSR graphs, with every sample bound below 2^32. The lane
/// path has only kGraphChunks / kStrictLanes work items per round, so a
/// larger sweep team keeps chunk_sweep's kGraphChunks.
template <class Rule>
auto lane_kernel_for(const simd::Ops* ops, const AgentGraph& graph)
    -> void (*)(const simd::LaneArgs&) {
  if (ops == nullptr || graph.is_implicit()) return nullptr;
  if (sweep_team_size(graph.num_nodes()) > kGraphChunks / simd::kStrictLanes) return nullptr;
  const bool complete = graph.is_complete();
  if (!complete && graph.min_degree() != graph.max_degree()) return nullptr;
  if ((complete ? graph.num_nodes() : graph.min_degree()) > 0xffffffffULL) return nullptr;
  if constexpr (std::is_same_v<Rule, kernels::MajorityRule>) {
    return complete ? ops->strict_complete_majority : ops->strict_regular_majority;
  } else if constexpr (std::is_same_v<Rule, kernels::VoterRule>) {
    return complete ? ops->strict_complete_voter : ops->strict_regular_voter;
  } else if constexpr (std::is_same_v<Rule, kernels::UndecidedRule>) {
    return complete ? ops->strict_complete_undecided : ops->strict_regular_undecided;
  } else {
    return nullptr;
  }
}

/// chunk_sweep on the byte states with simd::kStrictLanes chunk streams
/// per lane kernel call. Each group of lanes steps in lockstep for its
/// shortest chunk (whole kLaneBlocks); every lane's ragged tail then
/// finishes in the scalar chunk driver with that lane's generator. Each
/// chunk consumes its own stream in exactly chunk_sweep's order, so the
/// results are bitwise chunk_sweep's.
template <class Rule>
void lane_sweep(const Rule& rule, void (*kernel)(const simd::LaneArgs&),
                const simd::Ops& ops, const std::uint8_t* nodes, std::uint8_t* out,
                const AgentGraph& graph, state_t k, const rng::StreamFactory& streams,
                round_t round, GraphStepWorkspace& ws, const StepTuning& tuning) {
  const std::size_t n = graph.num_nodes();
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  constexpr unsigned lanes = simd::kStrictLanes;
  static_assert(kGraphChunks % lanes == 0);
  count_t* partials = ws.partials.data();
  const bool complete = graph.is_complete();
  const std::uint32_t* neighbors = complete ? nullptr : graph.neighbors();
  const std::uint64_t bound = complete ? n : graph.min_degree();
  const unsigned prefetch = tuning.prefetch_distance;

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static) if (rounds_take_team(n))
#endif
  for (unsigned group = 0; group < kGraphChunks / lanes; ++group) {
    const unsigned chunk0 = group * lanes;
    std::uint64_t state[4 * lanes] = {};
    std::size_t steps = chunk_size;
    for (unsigned l = 0; l < lanes; ++l) {
      const std::size_t lo = static_cast<std::size_t>(chunk0 + l) * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      steps = std::min(steps, hi > lo ? hi - lo : 0);
      if (lo >= hi) continue;
      const auto words = streams.stream(round * kGraphChunks + chunk0 + l).state();
      for (unsigned w = 0; w < 4; ++w) state[w * lanes + l] = words[w];
    }
    steps -= steps % simd::kLaneBlock;
    if (steps > 0) {
      kernel(simd::LaneArgs{state, chunk0 * chunk_size, chunk_size, steps, neighbors,
                            bound, nodes, out, k});
    }
    for (unsigned l = 0; l < lanes; ++l) {
      const unsigned chunk = chunk0 + l;
      const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      count_t* local = partials + static_cast<std::size_t>(chunk) * k;
      std::fill(local, local + k, count_t{0});
      if (lo >= hi) continue;
      if (ops.count_u8 != nullptr && k <= 16) {
        ops.count_u8(out, lo, lo + steps, k, local);
      } else {
        kernels_batched::count_tile(out, lo, steps, k, local);
      }
      if (lo + steps == hi) continue;
      rng::Xoshiro256pp gen({state[l], state[lanes + l], state[2 * lanes + l],
                             state[3 * lanes + l]});
      if (complete) {
        kernels::run_chunk_complete(rule, nodes, out, local, lo + steps, hi, n, k, gen,
                                    prefetch);
      } else {
        kernels::run_chunk_regular(rule, nodes, out, local, lo + steps, hi, neighbors,
                                   bound, k, gen, prefetch);
      }
    }
  }
}

template <class Rule>
void step_all_chunks(const Rule& rule, const AgentGraph& graph, Configuration& config,
                     const rng::StreamFactory& streams, round_t round,
                     GraphStepWorkspace& ws, const StepTuning& tuning) {
  const state_t k = config.k();
  // One state array, at the width byte_states(k) picks; only the byte
  // states have strict lane kernels.
  if (byte_states(k)) {
    const simd::Ops* ops = simd::active();
    if (const auto kernel = lane_kernel_for<Rule>(ops, graph)) {
      lane_sweep(rule, kernel, *ops, ws.nodes8.data(), ws.scratch8.data(), graph, k,
                 streams, round, ws, tuning);
    } else {
      chunk_sweep(rule, ws.nodes8.data(), ws.scratch8.data(), graph, k, streams, round, ws,
                  tuning);
    }
    ws.nodes8.swap(ws.scratch8);
  } else {
    chunk_sweep(rule, ws.nodes.data(), ws.scratch.data(), graph, k, streams, round, ws,
                tuning);
    ws.nodes.swap(ws.scratch);
  }
  std::fill(ws.counts.begin(), ws.counts.end(), count_t{0});
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const count_t* local = ws.partials.data() + static_cast<std::size_t>(chunk) * k;
    for (state_t j = 0; j < k; ++j) ws.counts[j] += local[j];
  }
  config.assign_counts(ws.counts);
}

}  // namespace

void step_graph(const Dynamics& dynamics, const AgentGraph& graph,
                Configuration& config, const rng::StreamFactory& streams,
                round_t round, GraphStepWorkspace& ws, EngineMode mode,
                const StepTuning& tuning) {
  const count_t n = graph.num_nodes();
  PLURALITY_REQUIRE(config.n() == n, "step_graph: configuration has "
                                         << config.n() << " nodes but graph has " << n);
  PLURALITY_REQUIRE(ws.state_size(config.k()) == n,
                    "step_graph: workspace holds " << ws.state_size(config.k())
                        << " node states for " << n << " nodes — call load_nodes first");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "step_graph: isolated vertices cannot sample");
  ws.prepare(n, config.k());

  // Batched pipeline for the fused dynamics; rule tables and other
  // unregistered dynamics keep the strict path (their virtual rule may
  // consume generator randomness mid-node, which the stage-split layout
  // cannot address).
  if (mode == EngineMode::Batched && batched_has_kernel(dynamics)) {
    step_graph_batched(dynamics, graph, config, streams, round, ws, tuning);
    return;
  }

  // One dynamic_cast chain per ROUND (not per node) selects the fused
  // kernel; everything inside the chunk loop is then fully inlined.
  if (const auto* d = dynamic_cast<const ThreeMajority*>(&dynamics)) {
    (void)d;
    step_all_chunks(kernels::MajorityRule{}, graph, config, streams, round, ws, tuning);
  } else if (const auto* v = dynamic_cast<const Voter*>(&dynamics)) {
    (void)v;
    step_all_chunks(kernels::VoterRule{}, graph, config, streams, round, ws, tuning);
  } else if (const auto* t = dynamic_cast<const TwoChoices*>(&dynamics)) {
    (void)t;
    step_all_chunks(kernels::TwoChoicesRule{}, graph, config, streams, round, ws,
                    tuning);
  } else if (const auto* u = dynamic_cast<const UndecidedState*>(&dynamics)) {
    (void)u;
    step_all_chunks(kernels::UndecidedRule{}, graph, config, streams, round, ws,
                    tuning);
  } else if (const auto* m = dynamic_cast<const MedianDynamics*>(&dynamics)) {
    (void)m;
    step_all_chunks(kernels::MedianRule{}, graph, config, streams, round, ws, tuning);
  } else if (const auto* m2 = dynamic_cast<const MedianOwnTwo*>(&dynamics)) {
    (void)m2;
    step_all_chunks(kernels::MedianOwnTwoRule{}, graph, config, streams, round, ws,
                    tuning);
  } else if (const auto* h = dynamic_cast<const HPlurality*>(&dynamics)) {
    PLURALITY_CHECK_MSG(h->sample_arity() <= 64,
                        "graph backend supports sample arity <= 64");
    step_all_chunks(kernels::HPluralityRule{h->sample_arity()}, graph, config, streams,
                    round, ws, tuning);
  } else {
    const unsigned arity = dynamics.sample_arity();
    PLURALITY_CHECK_MSG(arity <= 64, "graph backend supports sample arity <= 64");
    step_all_chunks(kernels::GenericRule{&dynamics, arity}, graph, config, streams,
                    round, ws, tuning);
  }
}

// ------------------------------------------------------- GraphSimulation ---

GraphSimulation::GraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                                 const Configuration& start, std::uint64_t seed,
                                 bool shuffle_layout, EngineMode mode)
    : dynamics_(dynamics), graph_(&graph), config_(start), streams_(seed), mode_(mode) {
  init(start, shuffle_layout);
}

GraphSimulation::GraphSimulation(const Dynamics& dynamics, AgentGraph&& graph,
                                 const Configuration& start, std::uint64_t seed,
                                 bool shuffle_layout, EngineMode mode)
    : dynamics_(dynamics),
      owned_graph_(std::move(graph)),
      graph_(&owned_graph_),
      config_(start),
      streams_(seed),
      mode_(mode) {
  init(start, shuffle_layout);
}

void GraphSimulation::init(const Configuration& start, bool shuffle_layout) {
  PLURALITY_REQUIRE(start.n() == graph_->num_nodes(),
                    "GraphSimulation: configuration has " << start.n()
                        << " nodes but topology has " << graph_->num_nodes());
  PLURALITY_REQUIRE(graph_->is_complete() || graph_->min_degree() >= 1,
                    "GraphSimulation: isolated vertices cannot sample");
  load_nodes(start, shuffle_layout, streams_, ws_);
}

void GraphSimulation::step() {
  step_graph(dynamics_, *graph_, config_, streams_, round_, ws_, mode_, tuning_);
  ++round_;
}

round_t GraphSimulation::run_to_consensus(round_t max_rounds) {
  const state_t num_colors = dynamics_.num_colors(config_.k());
  for (round_t r = 1; r <= max_rounds; ++r) {
    step();
    if (config_.color_consensus(num_colors)) return r;
  }
  return max_rounds;
}

}  // namespace plurality::graph
