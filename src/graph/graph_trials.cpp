#include "graph/graph_trials.hpp"

#include <algorithm>
#include <utility>

#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

namespace {

/// corrupt_nodes' node-level half on one storage width: a per-color
/// reservoir picks ws.adv_take[c] uniform victims among the nodes of each
/// demoted color c, which then take the promoted colors in block order.
template <typename TNode>
void recolor_victims(TNode* nodes, std::size_t n, const Configuration& config,
                     std::uint64_t total_victims, rng::Xoshiro256pp& gen,
                     GraphStepWorkspace& ws) {
  ws.adv_victims.resize(total_victims);
  std::fill(ws.adv_seen.begin(), ws.adv_seen.end(), count_t{0});

  // One-pass per-color reservoir sampling: after the scan, each demoted
  // color's victim block holds a uniform random subset of its nodes.
  for (std::size_t i = 0; i < n; ++i) {
    const state_t c = nodes[i];
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

  // Hand the victims (in demoted-color block order) their new states.
  std::size_t cursor = 0;
  for (state_t j = 0; j < config.k(); ++j) {
    const count_t now = config.at(j);
    const count_t before = ws.adv_before[j];
    if (now <= before) continue;
    for (count_t g = 0; g < now - before; ++g) {
      nodes[ws.adv_victims[cursor++]] = static_cast<TNode>(j);
    }
  }
  PLURALITY_CHECK(cursor == total_victims);
}

}  // namespace

void corrupt_nodes(const Adversary& adversary, Configuration& config,
                   state_t num_colors, round_t round, rng::Xoshiro256pp& gen,
                   GraphStepWorkspace& ws) {
  const state_t k = config.k();
  PLURALITY_REQUIRE(ws.state_size(k) == config.n(),
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
  if (byte_states(k)) {
    recolor_victims(ws.nodes8.data(), config.n(), config, total_victims, gen, ws);
  } else {
    recolor_victims(ws.nodes.data(), config.n(), config, total_victims, gen, ws);
  }
}

TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const ConfigFactory& factory,
                              const CommonTrialOptions& options) {
  PLURALITY_REQUIRE(options.trials > 0, "run_graph_trials: need at least one trial");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "run_graph_trials: isolated vertices cannot sample");

  const rng::StreamFactory streams(options.seed);
  // Fewer trials than threads: trials run one after another and each
  // round's chunk loop takes the team (agent_graph.cpp).
  return run_trial_team<GraphStepWorkspace>(
      options, plan_trials(options, graph.num_nodes(), /*team_rounds=*/true),
      [&](std::uint64_t trial, const RunOptions& run_options, GraphStepWorkspace& ws) {
        // Trial stream family: `gen` feeds the start factory and the
        // adversary; the child factory feeds layout + stepping (so wiring an
        // adversary in never perturbs the protocol's own randomness).
        rng::Xoshiro256pp gen = streams.stream(trial);
        const rng::StreamFactory trial_streams = streams.child(trial);

        Configuration config = factory(trial, gen);
        PLURALITY_REQUIRE(config.n() == graph.num_nodes(),
                          "run_graph_trials: factory configuration has "
                              << config.n() << " nodes but graph has "
                              << graph.num_nodes());
        const state_t num_colors = dynamics.num_colors(config.k());
        load_nodes(config, options.shuffle_layout, trial_streams, ws);
        return run_rounds(std::move(config), num_colors, run_options, trial,
                          [&](Configuration& state, round_t round) {
                            step_graph(dynamics, graph, state, trial_streams, round - 1, ws,
                                       options.mode);
                            if (options.adversary != nullptr) {
                              corrupt_nodes(*options.adversary, state, num_colors, round,
                                            gen, ws);
                            }
                          });
      });
}

TrialSummary run_graph_trials(const Dynamics& dynamics, const AgentGraph& graph,
                              const Configuration& start,
                              const CommonTrialOptions& options) {
  return run_graph_trials(
      dynamics, graph,
      [&start](std::uint64_t, rng::Xoshiro256pp&) { return start; }, options);
}

}  // namespace plurality::graph
