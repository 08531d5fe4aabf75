#include "graph/agent_graph.hpp"

#include <algorithm>
#include <limits>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/kernels.hpp"
#include "graph/step_batched.hpp"
#include "graph/step_push.hpp"
#include "rng/distributions.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

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
  if (topo.family == ImplicitTopology::Family::Gossip) {
    // Gossip IS the implicit complete graph; tag the descriptor so the
    // scenario layer can report how the graph was built.
    AgentGraph g = complete(static_cast<count_t>(topo.n));
    g.implicit_ = topo;
    return g;
  }
  AgentGraph g;
  g.n_ = static_cast<count_t>(topo.n);
  g.complete_ = false;
  g.arcs_ = topo.n * topo.degree;  // same count the arena twin would store
  g.min_degree_ = static_cast<count_t>(topo.degree);
  g.max_degree_ = static_cast<count_t>(topo.degree);
  g.implicit_ = topo;
  return g;
}

AgentGraph AgentGraph::from_topology(const Topology& topology) {
  if (topology.kind() == Topology::Kind::CompleteImplicit) {
    return complete(topology.num_nodes());
  }
  const count_t n = topology.num_nodes();
  PLURALITY_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                    "AgentGraph: node ids must fit 32 bits (n=" << n << ")");
  AgentGraph g;
  g.n_ = n;
  g.complete_ = false;
  g.arcs_ = topology.num_arcs();
  // One arena: n+1 offset words, then the neighbor ids packed two per word.
  const std::size_t words =
      static_cast<std::size_t>(n) + 1 + (static_cast<std::size_t>(g.arcs_) + 1) / 2;
  g.arena_.assign(words, 0);
  std::uint64_t* offsets = g.arena_.data();
  auto* neighbors = reinterpret_cast<std::uint32_t*>(g.arena_.data() + n + 1);
  offsets[0] = 0;
  g.min_degree_ = n > 0 ? topology.degree(0) : 0;
  g.max_degree_ = g.min_degree_;
  std::size_t cursor = 0;
  for (count_t v = 0; v < n; ++v) {
    const auto neigh = topology.neighbors(v);
    for (const count_t u : neigh) neighbors[cursor++] = static_cast<std::uint32_t>(u);
    offsets[v + 1] = cursor;
    const auto deg = static_cast<count_t>(neigh.size());
    g.min_degree_ = std::min(g.min_degree_, deg);
    g.max_degree_ = std::max(g.max_degree_, deg);
  }
  PLURALITY_CHECK(cursor == g.arcs_);
  return g;
}

AgentGraph AgentGraph::from_edges(count_t n,
                                  std::span<const std::pair<count_t, count_t>> edges) {
  return from_topology(Topology::from_edges(n, edges));
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

void load_nodes(const Configuration& start, bool shuffle_layout,
                const rng::StreamFactory& streams, GraphStepWorkspace& ws) {
  if (ws.bytes_only) {
    // The byte array IS the state. rng::shuffle's swap sequence depends
    // only on the element count, so shuffling bytes here yields the same
    // node->state assignment as the u32 path — bitwise-identical runs.
    PLURALITY_REQUIRE(start.k() <= 256,
                      "load_nodes: bytes-only mode needs k <= 256");
    const std::size_t n = start.n();
    ws.nodes8.resize(n + 4);
    ws.scratch8.resize(n + 4);
    std::uint8_t* nodes = ws.nodes8.data();
    std::size_t pos = 0;
    for (state_t j = 0; j < start.k(); ++j) {
      const count_t c = start.at(j);
      std::fill_n(nodes + pos, c, static_cast<std::uint8_t>(j));
      pos += c;
    }
    if (shuffle_layout) {
      rng::Xoshiro256pp gen = streams.stream(kLayoutStream);
      rng::shuffle(gen, nodes, n);
    }
    std::fill_n(ws.nodes8.begin() + static_cast<std::ptrdiff_t>(n), 4,
                std::uint8_t{0});  // SIMD tail slack
    ws.mirror_fresh = true;  // nodes8 is authoritative by definition
    return;
  }
  ws.nodes.resize(start.n());
  ws.scratch.resize(start.n());
  state_t* nodes = ws.nodes.data();
  std::size_t pos = 0;
  for (state_t j = 0; j < start.k(); ++j) {
    const count_t c = start.at(j);
    std::fill_n(nodes + pos, c, j);
    pos += c;
  }
  if (shuffle_layout) {
    rng::Xoshiro256pp gen = streams.stream(kLayoutStream);
    rng::shuffle(gen, nodes, ws.nodes.size());
  }
  ws.mirror_fresh = false;  // nodes rewritten; the byte mirror is stale
}

namespace {

/// Shared chunked-step body, instantiated once per fused rule. The chunk
/// grid, stream derivation, and publish order are bit-for-bit the frozen
/// reference's (reference_sim.cpp); only the per-node inner loop differs.
template <class Rule, typename TNode>
void chunk_sweep(const Rule& rule, const TNode* nodes, TNode* mirror_out,
                 const AgentGraph& graph, state_t k, const rng::StreamFactory& streams,
                 round_t round, GraphStepWorkspace& ws, const StepTuning& tuning) {
  const std::size_t n = graph.num_nodes();
  const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
  // Bytes-only mode: no u32 array exists; publish() skips the wide write.
  state_t* out = ws.bytes_only ? nullptr : ws.scratch.data();
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
#pragma omp parallel for schedule(static)
#endif
  for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
    const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    count_t* local = partials + static_cast<std::size_t>(chunk) * k;
    std::fill(local, local + k, count_t{0});
    if (lo < hi) {
      rng::Xoshiro256pp gen = streams.stream(round * kGraphChunks + chunk);
      if (complete) {
        kernels::run_chunk_complete(rule, nodes, out, mirror_out, local, lo, hi, n, k,
                                    gen, prefetch);
      } else if (implicit) {
        kernels::run_chunk_implicit(rule, nodes, out, mirror_out, local, lo, hi,
                                    graph.implicit_topology(), k, gen, prefetch);
      } else if (regular) {
        kernels::run_chunk_regular(rule, nodes, out, mirror_out, local, lo, hi,
                                   neighbors, uniform_degree, k, gen, prefetch);
      } else {
        kernels::run_chunk_csr(rule, nodes, out, mirror_out, local, lo, hi, offsets,
                               neighbors, k, gen, prefetch);
      }
    }
  }
}

template <class Rule>
void step_all_chunks(const Rule& rule, const AgentGraph& graph, Configuration& config,
                     const rng::StreamFactory& streams, round_t round,
                     GraphStepWorkspace& ws, const StepTuning& tuning) {
  const std::size_t n = graph.num_nodes();
  const state_t k = config.k();

  if (k <= 256) {
    // Sample from the byte-wide mirror of the node states: the random
    // sample loads then touch a 4x denser array (L1/L2-resident at bench
    // scale). Values are identical, so results are bitwise unaffected. The
    // sweep emits the next round's mirror as it goes (publish() in
    // kernels.hpp); the explicit refresh below only runs when somebody
    // rewrote ws.nodes since the last sweep (trial start, adversary).
    std::uint8_t* mirror = ws.nodes8.data();
    // Bytes-only mode has no u32 array to refresh from; load_nodes writes
    // nodes8 directly and nothing else can stale it (corrupt_nodes rejects
    // the mode).
    if (!ws.bytes_only && !ws.mirror_fresh) {
      const state_t* nodes = ws.nodes.data();
#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
      for (unsigned chunk = 0; chunk < kGraphChunks; ++chunk) {
        const std::size_t chunk_size = (n + kGraphChunks - 1) / kGraphChunks;
        const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
        const std::size_t hi = std::min(n, lo + chunk_size);
        for (std::size_t i = lo; i < hi; ++i) {
          mirror[i] = static_cast<std::uint8_t>(nodes[i]);
        }
      }
    }
    chunk_sweep(rule, mirror, ws.scratch8.data(), graph, k, streams, round, ws, tuning);
    ws.nodes8.swap(ws.scratch8);
    ws.mirror_fresh = true;
  } else {
    state_t* no_mirror = nullptr;
    chunk_sweep(rule, ws.nodes.data(), no_mirror, graph, k, streams, round, ws, tuning);
  }

  ws.nodes.swap(ws.scratch);  // no-op (both empty) in bytes-only mode
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
  PLURALITY_REQUIRE(ws.state_size() == n,
                    "step_graph: workspace holds " << ws.state_size()
                        << " node states for " << n << " nodes — call load_nodes first");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "step_graph: isolated vertices cannot sample");
  ws.prepare(n, config.k());

  // Push pipeline (scatter formulation of the batched law) for arity-1
  // dynamics; bitwise-equal to Batched, so the fallback chain Push ->
  // Batched -> Strict only ever widens the kernel coverage, never changes
  // a covered result.
  if (mode == EngineMode::Push && push_has_kernel(dynamics) &&
      n <= 0xffffffffULL) {
    step_graph_push(dynamics, graph, config, streams, round, ws, tuning);
    return;
  }

  // Batched pipeline for the fused dynamics; rule tables and other
  // unregistered dynamics keep the strict path (their virtual rule may
  // consume generator randomness mid-node, which the stage-split layout
  // cannot address).
  if ((mode == EngineMode::Batched || mode == EngineMode::Push) &&
      batched_has_kernel(dynamics)) {
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

GraphSimulation::GraphSimulation(const Dynamics& dynamics, const Topology& topology,
                                 const Configuration& start, std::uint64_t seed,
                                 bool shuffle_layout, EngineMode mode)
    : dynamics_(dynamics),
      owned_graph_(AgentGraph::from_topology(topology)),
      graph_(&owned_graph_),
      config_(start),
      streams_(seed),
      mode_(mode) {
  init(start, shuffle_layout);
}

GraphSimulation::GraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                                 const Configuration& start, std::uint64_t seed,
                                 bool shuffle_layout, EngineMode mode)
    : dynamics_(dynamics), graph_(&graph), config_(start), streams_(seed), mode_(mode) {
  init(start, shuffle_layout);
}

void GraphSimulation::init(const Configuration& start, bool shuffle_layout) {
  PLURALITY_REQUIRE(start.n() == graph_->num_nodes(),
                    "GraphSimulation: configuration has " << start.n()
                        << " nodes but topology has " << graph_->num_nodes());
  PLURALITY_REQUIRE(graph_->is_complete() || graph_->min_degree() >= 1,
                    "GraphSimulation: isolated vertices cannot sample");
  ws_.prepare(start.n(), start.k());
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
