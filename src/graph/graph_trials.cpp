#include "graph/graph_trials.hpp"

#include <algorithm>
#include <atomic>

#include "core/observer.hpp"
#include "rng/distributions.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {

namespace {
std::atomic<int> g_bytes_only_override{-1};
}  // namespace

bool graph_bytes_only_auto(count_t n, state_t k, bool has_adversary) {
  const bool eligible = k <= 256 && !has_adversary;
  const int mode = g_bytes_only_override.load(std::memory_order_relaxed);
  if (mode == 0) return false;
  if (mode == 1) return eligible;
  return eligible && n >= kBytesOnlyAutoThreshold;
}

void set_graph_bytes_only_override(int mode) {
  g_bytes_only_override.store(mode, std::memory_order_relaxed);
}

void corrupt_nodes(const Adversary& adversary, Configuration& config,
                   state_t num_colors, round_t round, rng::Xoshiro256pp& gen,
                   GraphStepWorkspace& ws) {
  const state_t k = config.k();
  PLURALITY_REQUIRE(!ws.bytes_only,
                    "corrupt_nodes: adversaries edit the u32 node array; the "
                    "bytes-only memory mode never auto-enables with one wired in");
  PLURALITY_REQUIRE(ws.nodes.size() == config.n(),
                    "corrupt_nodes: workspace/config node count mismatch");
  ws.prepare_adversary(k);
  std::copy(config.counts().begin(), config.counts().end(), ws.adv_before.begin());

  // The strategy plays its count-level move first; everything below makes
  // the node array agree with it.
  adversary.corrupt(config, num_colors, round, gen);

  std::uint64_t total_victims = 0;
  ws.adv_offset[0] = 0;
  for (state_t j = 0; j < k; ++j) {
    const count_t now = config.at(j);
    const count_t before = ws.adv_before[j];
    ws.adv_take[j] = before > now ? before - now : 0;
    total_victims += ws.adv_take[j];
    ws.adv_offset[j + 1] = total_victims;
  }
  if (total_victims == 0) return;
  ws.adv_victims.resize(total_victims);
  std::fill(ws.adv_seen.begin(), ws.adv_seen.end(), count_t{0});

  // One-pass per-color reservoir sampling: after the scan, each demoted
  // color's victim block holds a uniform random subset of its nodes.
  const std::size_t n = ws.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const state_t c = ws.nodes[i];
    const count_t take = ws.adv_take[c];
    if (take == 0) continue;
    const count_t seen = ws.adv_seen[c]++;
    if (seen < take) {
      ws.adv_victims[ws.adv_offset[c] + seen] = i;
    } else {
      const std::uint64_t r = rng::uniform_below(gen, seen + 1);
      if (r < take) ws.adv_victims[ws.adv_offset[c] + r] = i;
    }
  }

  ws.mirror_fresh = false;  // node states change below; the byte mirror is stale

  // Hand the victims (in demoted-color block order) their new states.
  std::size_t cursor = 0;
  for (state_t j = 0; j < k; ++j) {
    const count_t now = config.at(j);
    const count_t before = ws.adv_before[j];
    if (now <= before) continue;
    for (count_t g = 0; g < now - before; ++g) {
      ws.nodes[ws.adv_victims[cursor++]] = j;
    }
  }
  PLURALITY_CHECK(cursor == total_victims);
}

TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const ConfigFactory& factory,
                              const CommonTrialOptions& options) {
  PLURALITY_REQUIRE(options.trials > 0, "run_graph_trials: need at least one trial");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "run_graph_trials: isolated vertices cannot sample");
  PLURALITY_REQUIRE(options.backend == Backend::CountBased && !options.stop_predicate,
                    "run_graph_trials: backend/stop_predicate are count-path options; "
                    "leave them defaulted for graph trials");

  const rng::StreamFactory streams(options.seed);
  TrialOutcomes outcomes(options.trials, options.exact_round_samples);
  const StepTuning tuning{options.tile_nodes, options.prefetch_distance};

  const auto body = [&](std::uint64_t trial, GraphStepWorkspace& ws) {
    // Trial stream family: `gen` feeds the start factory and the adversary;
    // the child factory feeds layout + stepping (so wiring an adversary in
    // never perturbs the protocol's own randomness).
    rng::Xoshiro256pp gen = streams.stream(trial);
    const rng::StreamFactory trial_streams = streams.child(trial);

    Configuration config = factory(trial, gen);
    PLURALITY_REQUIRE(config.n() == graph.num_nodes(),
                      "run_graph_trials: factory configuration has "
                          << config.n() << " nodes but graph has "
                          << graph.num_nodes());
    const state_t num_colors = dynamics.num_colors(config.k());
    const state_t initial_plurality = config.plurality(num_colors);

    ws.bytes_only = graph_bytes_only_auto(config.n(), config.k(),
                                          options.adversary != nullptr);
    ws.prepare(config.n(), config.k());
    load_nodes(config, options.shuffle_layout, trial_streams, ws);

    RoundObserver* const observer = options.observer;
    if (observer != nullptr) observer->begin_trial(trial, config, num_colors);

    StopReason reason = StopReason::RoundLimit;
    round_t rounds = 0;
    bool won = false;
    if (config.color_consensus(num_colors)) {
      reason = StopReason::ColorConsensus;
      won = initial_plurality == config.plurality(num_colors);
    } else {
      for (round_t r = 1; r <= options.max_rounds; ++r) {
        if (options.cancel != nullptr && options.cancel->stop_requested()) {
          // Cooperative between-rounds stop; the driver throws after the
          // parallel region joins, so this trial's record is discarded.
          reason = StopReason::Cancelled;
          rounds = r - 1;
          break;
        }
        step_graph(dynamics, graph, config, trial_streams, r - 1, ws, options.mode,
                   tuning);
        if (options.adversary != nullptr) {
          corrupt_nodes(*options.adversary, config, num_colors, r, gen, ws);
        }
        if (observer != nullptr) observer->observe_round(trial, r, config, num_colors);
        if (config.color_consensus(num_colors)) {
          reason = StopReason::ColorConsensus;
          rounds = r;
          won = config.plurality(num_colors) == initial_plurality;
          break;
        }
        if (config.monochromatic()) {
          // All mass in one non-color state (e.g. all-undecided).
          reason = StopReason::NonColorAbsorbed;
          rounds = r;
          break;
        }
      }
    }
    if (observer != nullptr) {
      observer->end_trial(trial, reason,
                          reason == StopReason::RoundLimit ? options.max_rounds : rounds,
                          config, num_colors);
    }
    outcomes.record(trial, reason, won, rounds);
  };

#if defined(PLURALITY_HAVE_OPENMP)
  if (options.parallel) {
#pragma omp parallel
    {
      GraphStepWorkspace ws;
#pragma omp for schedule(dynamic)
      for (std::uint64_t trial = 0; trial < options.trials; ++trial) body(trial, ws);
    }
  } else {
    GraphStepWorkspace ws;
    for (std::uint64_t trial = 0; trial < options.trials; ++trial) body(trial, ws);
  }
#else
  GraphStepWorkspace ws;
  for (std::uint64_t trial = 0; trial < options.trials; ++trial) body(trial, ws);
#endif

  // Outside the OpenMP region, where throwing is safe: a fired token means
  // at least one trial stopped mid-run, so the whole summary is invalid.
  if (options.cancel != nullptr && options.cancel->stop_requested()) {
    throw CancelledError(options.cancel->reason());
  }

  return outcomes.summarize();
}

TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const Configuration& start,
                              const CommonTrialOptions& options) {
  return run_graph_trials(
      dynamics, graph,
      [&start](std::uint64_t, rng::Xoshiro256pp&) { return start; }, options);
}

}  // namespace plurality::graph
