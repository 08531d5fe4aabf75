#include "scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "core/adversary.hpp"
#include "core/registry.hpp"
#include "core/workloads.hpp"
#include "graph/implicit_topology.hpp"
#include "graph/step_push.hpp"
#include "graph/topology_registry.hpp"
#include "support/check.hpp"
#include "support/specs.hpp"

namespace plurality::scenario {

namespace {

std::uint64_t parse_spec_uint(const std::string& key, const std::string& text) {
  // Accept plain integers and integral scientific notation ("1e6"), the
  // same convention the CLI layer uses for --n.
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && ptr == text.data() + text.size()) return value;
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    PLURALITY_REQUIRE(pos == text.size() && v >= 0.0 && v == std::floor(v) && v <= 0x1p63,
                      "scenario: '" << key << "' must be a non-negative integer, got '"
                                    << text << "'");
    return static_cast<std::uint64_t>(v);
  } catch (const CheckError&) {
    throw;
  } catch (const std::exception&) {
    PLURALITY_REQUIRE(false, "scenario: '" << key << "' must be a non-negative integer, got '"
                                           << text << "'");
    return 0;  // unreachable
  }
}

bool parse_spec_bool(const std::string& key, const std::string& text) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  PLURALITY_REQUIRE(false, "scenario: '" << key << "' must be true/false, got '" << text << "'");
  return false;  // unreachable
}

/// Applies one key=value assignment to `spec` (shared by the string and
/// JSON faces so both accept exactly the same field names).
void assign_field(ScenarioSpec& spec, const std::string& key, const io::JsonValue& value) {
  if (key == "dynamics") {
    spec.dynamics = value.as_string();
  } else if (key == "workload") {
    spec.workload = value.as_string();
  } else if (key == "topology") {
    spec.topology = value.as_string();
  } else if (key == "adversary") {
    spec.adversary = value.as_string();
  } else if (key == "backend") {
    spec.backend = value.as_string();
  } else if (key == "engine") {
    spec.engine = value.as_string();
  } else if (key == "stop") {
    spec.stop = value.as_string();
  } else if (key == "topology_backend") {
    spec.topology_backend = value.as_string();
  } else if (key == "graph_layout") {
    // Removed field: "identity" names what every run does and is dropped.
    PLURALITY_REQUIRE(value.is_string() && value.as_string() == "identity",
                      "scenario: field 'graph_layout' was removed; graphs step in "
                      "builder order (only 'identity', which names that, is still "
                      "accepted) — drop the field");
  } else if (key == "tile_nodes") {
    const std::uint64_t tile = value.as_uint();
    PLURALITY_REQUIRE(tile <= 0xFFFFFFFFULL,
                      "scenario: tile_nodes = " << tile << " exceeds 32 bits");
    spec.tile_nodes = static_cast<std::uint32_t>(tile);
  } else if (key == "prefetch_distance") {
    const std::uint64_t distance = value.as_uint();
    PLURALITY_REQUIRE(distance <= 0xFFFFFFFFULL,
                      "scenario: prefetch_distance = " << distance << " exceeds 32 bits");
    spec.prefetch_distance = static_cast<std::uint32_t>(distance);
  } else if (key == "n") {
    spec.n = value.as_uint();
  } else if (key == "k") {
    const std::uint64_t k = value.as_uint();
    PLURALITY_REQUIRE(k <= 0xFFFFFFFFULL, "scenario: k = " << k << " exceeds the state width");
    spec.k = static_cast<state_t>(k);
  } else if (key == "trials") {
    spec.trials = value.as_uint();
  } else if (key == "seed") {
    spec.seed = value.as_uint();
  } else if (key == "max_rounds") {
    spec.max_rounds = value.as_uint();
  } else if (key == "parallel") {
    spec.parallel = value.as_bool();
  } else if (key == "shuffle_layout") {
    spec.shuffle_layout = value.as_bool();
  } else {
    PLURALITY_REQUIRE(false,
                      "scenario: unknown field '"
                          << key << "'; known: dynamics, workload, topology, adversary, "
                          << "backend, engine, stop, topology_backend, "
                          << "n, k, trials, seed, max_rounds, parallel, shuffle_layout, "
                          << "tile_nodes, prefetch_distance");
  }
}

/// The backend `spec.backend == "auto"` denotes for an already-constructed
/// dynamics (shared by validate() and resolved_backend() so the constraints
/// below always apply to what will actually run).
std::string resolve_backend_impl(const ScenarioSpec& spec, const Dynamics& dyn) {
  if (spec.backend != "auto") return spec.backend;
  // Push is a graph-engine pipeline (the implicit clique included), so
  // "auto" never routes it to the count/agent drivers.
  if (spec.engine == "push") return "graph";
  if (!graph::topology_is_clique(spec.topology)) return "graph";
  if (dyn.has_exact_law(dyn.num_states(spec.k))) return "count";
  // No exact law on the clique: a per-agent backend. The core agent
  // backend has no batched pipeline; the graph engine's implicit clique
  // does.
  return spec.engine == "batched" ? "graph" : "agent";
}

/// The topology backend "auto" denotes (shared by validate() and
/// Scenario::compile() so both always agree on what gets built).
std::string resolve_topology_backend_impl(const ScenarioSpec& spec) {
  if (spec.topology_backend != "auto") return spec.topology_backend;
  if (!graph::topology_is_implicit_capable(spec.topology)) return "arena";
  const std::string kind = split_spec(spec.topology).kind;
  // Clique/gossip store nothing either way; report them as implicit.
  if (kind == "clique" || kind == "gossip") return "implicit";
  return spec.n >= graph::kImplicitAutoThreshold ? "implicit" : "arena";
}

}  // namespace

StopCondition parse_stop_condition(const std::string& stop) {
  if (stop == "consensus") return {};
  const auto [kind, arg] = split_spec(stop);
  const bool known = kind == "m-plurality" || kind == "any-reaches";
  PLURALITY_REQUIRE(known, "scenario: unknown stop condition '"
                               << kind << "'; known: consensus, m-plurality:<M>, "
                               << "any-reaches:<T>");
  PLURALITY_REQUIRE(!arg.empty(),
                    "scenario: stop '" << kind << "' needs a threshold, e.g. '" << kind
                                       << ":100'");
  StopCondition parsed;
  parsed.kind =
      kind == "m-plurality" ? StopCondition::Kind::MPlurality : StopCondition::Kind::AnyReaches;
  parsed.value = parse_spec_uint("stop", arg);
  return parsed;
}

void ScenarioSpec::set_field(const std::string& key, const std::string& value) {
  // Route strings through the JSON assignment path. Numeric and boolean
  // fields get their own parse so "n=1e6" works in the string form.
  if (key == "n" || key == "k" || key == "trials" || key == "seed" ||
      key == "max_rounds" || key == "tile_nodes" || key == "prefetch_distance") {
    assign_field(*this, key, io::JsonValue(parse_spec_uint(key, value)));
  } else if (key == "parallel" || key == "shuffle_layout") {
    assign_field(*this, key, io::JsonValue(parse_spec_bool(key, value)));
  } else {
    assign_field(*this, key, io::JsonValue(value));
  }
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream tokens(text);
  std::string token;
  std::set<std::string> seen;
  bool any = false;
  while (tokens >> token) {
    any = true;
    const auto eq = token.find('=');
    PLURALITY_REQUIRE(eq != std::string::npos && eq > 0,
                      "scenario: expected 'key=value', got '" << token << "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    PLURALITY_REQUIRE(seen.insert(key).second,
                      "scenario: duplicate field '" << key << "'");
    spec.set_field(key, value);
  }
  PLURALITY_REQUIRE(any, "scenario: empty spec string");
  return spec;
}

ScenarioSpec ScenarioSpec::from_json(const io::JsonValue& doc) {
  PLURALITY_REQUIRE(doc.is_object(), "scenario: spec document must be a JSON object");
  ScenarioSpec spec;
  for (const auto& key : doc.keys()) {
    assign_field(spec, key, doc.at(key));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::from_json_file(const std::string& path) {
  return from_json(io::read_json_file(path));
}

io::JsonValue ScenarioSpec::to_json() const {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("dynamics", dynamics);
  doc.set("workload", workload);
  doc.set("topology", topology);
  doc.set("adversary", adversary);
  doc.set("backend", backend);
  doc.set("engine", engine);
  doc.set("stop", stop);
  doc.set("topology_backend", topology_backend);
  doc.set("n", std::uint64_t{n});
  doc.set("k", std::uint64_t{k});
  doc.set("trials", trials);
  doc.set("seed", seed);
  doc.set("max_rounds", std::uint64_t{max_rounds});
  doc.set("parallel", parallel);
  doc.set("shuffle_layout", shuffle_layout);
  doc.set("tile_nodes", std::uint64_t{tile_nodes});
  doc.set("prefetch_distance", std::uint64_t{prefetch_distance});
  return doc;
}

std::string ScenarioSpec::to_spec_string() const {
  std::ostringstream os;
  os << "dynamics=" << dynamics << " workload=" << workload << " topology=" << topology
     << " adversary=" << adversary << " backend=" << backend << " engine=" << engine
     << " stop=" << stop << " topology_backend=" << topology_backend << " n=" << n
     << " k=" << k << " trials=" << trials
     << " seed=" << seed << " max_rounds=" << max_rounds
     << " parallel=" << (parallel ? "true" : "false")
     << " shuffle_layout=" << (shuffle_layout ? "true" : "false")
     << " tile_nodes=" << tile_nodes << " prefetch_distance=" << prefetch_distance;
  return os.str();
}

std::string ScenarioSpec::resolved_backend() const {
  validate();
  return resolve_backend_impl(*this, *make_dynamics(dynamics));
}

std::string ScenarioSpec::resolved_topology_backend() const {
  validate();
  return resolve_topology_backend_impl(*this);
}

void ScenarioSpec::validate() const {
  // Scalar ranges first so later messages can assume sane sizes.
  PLURALITY_REQUIRE(n >= 1, "scenario: n must be >= 1, got " << n);
  PLURALITY_REQUIRE(k >= 2, "scenario: k must be >= 2 (plurality needs at least two "
                            "colors), got " << k);
  PLURALITY_REQUIRE(k <= n, "scenario: k = " << k << " colors cannot exceed n = " << n
                                             << " nodes");
  PLURALITY_REQUIRE(trials >= 1, "scenario: trials must be >= 1");
  PLURALITY_REQUIRE(max_rounds >= 1, "scenario: max_rounds must be >= 1");

  // Every name must resolve through its registry (each throws its own
  // actionable message naming the known grammar).
  const auto dyn = make_dynamics(dynamics);
  (void)make_adversary(adversary);
  graph::validate_topology_spec(topology, n);
  const Configuration start = workloads::parse_workload(workload, n, k);
  PLURALITY_REQUIRE(start.k() == k,
                    "scenario: workload '" << workload << "' forces k = " << start.k()
                                           << " but the spec says k = " << k
                                           << "; set k accordingly");

  PLURALITY_REQUIRE(engine == "strict" || engine == "batched" || engine == "push",
                    "scenario: engine must be 'strict', 'batched', or 'push', got '"
                        << engine << "'");
  PLURALITY_REQUIRE(backend == "auto" || backend == "count" || backend == "agent" ||
                        backend == "graph",
                    "scenario: backend must be auto/count/agent/graph, got '" << backend
                                                                              << "'");
  PLURALITY_REQUIRE(topology_backend == "auto" || topology_backend == "arena" ||
                        topology_backend == "implicit",
                    "scenario: topology_backend must be auto/arena/implicit, got '"
                        << topology_backend << "'");
  if (topology_backend == "implicit") {
    PLURALITY_REQUIRE(graph::topology_is_implicit_capable(topology),
                      "scenario: topology '" << topology << "' has no implicit form; "
                      "implicit-capable: clique, gossip, ring, torus[:<r>x<c>], "
                      "lattice:<d>; use topology_backend 'arena' (or 'auto')");
  }
  PLURALITY_REQUIRE(tile_nodes <= 8192,
                    "scenario: tile_nodes caps at 8192 (the batched engine's per-tile "
                    "word budget), got " << tile_nodes << "; 0 derives the tile "
                    "automatically");
  PLURALITY_REQUIRE(prefetch_distance <= 1024,
                    "scenario: prefetch_distance caps at 1024 (beyond L2's pending-miss "
                    "capacity it only pollutes), got " << prefetch_distance
                        << "; 0 disables software prefetch");
  if (topology_backend == "arena") {
    const std::string topo_kind = split_spec(topology).kind;
    PLURALITY_REQUIRE(topo_kind != "clique" && topo_kind != "gossip",
                      "scenario: topology '" << topology << "' is implicit by "
                      "construction (there is no CSR arena to build); use "
                      "topology_backend 'implicit' or 'auto'");
    PLURALITY_REQUIRE(n <= 4294967295ULL,
                      "scenario: topology_backend 'arena' packs node ids as u32, "
                      "capping n at 4294967295 (got " << n << "); use "
                      "topology_backend 'implicit' (ring, torus, lattice:<d>) or "
                      "topology 'gossip'");
  }

  const bool clique = graph::topology_is_clique(topology);
  const state_t states = dyn->num_states(k);
  if (backend == "count") {
    PLURALITY_REQUIRE(clique, "scenario: backend 'count' models the clique exactly; "
                              "topology '" << topology << "' needs backend 'graph' (or "
                              "'auto')");
    PLURALITY_REQUIRE(dyn->has_exact_law(states),
                      "scenario: dynamics '" << dynamics << "' has no exact adoption law "
                      "at k = " << k << "; use backend 'agent' or 'graph' (or 'auto')");
  }
  if (backend == "agent") {
    PLURALITY_REQUIRE(clique, "scenario: backend 'agent' is the clique sampler; topology '"
                                  << topology << "' needs backend 'graph' (or 'auto')");
  }
  // Constraints that depend on WHICH backend runs apply to the resolved
  // backend, so backend=auto specs can never compile into a driver that
  // rejects them at run time (inside a parallel trial loop, where a throw
  // is fatal).
  const std::string resolved = resolve_backend_impl(*this, *dyn);
  if (engine == "push") {
    PLURALITY_REQUIRE(resolved == "graph",
                      "scenario: engine 'push' is a graph-engine pipeline, but this "
                      "spec resolves to backend '" << resolved << "'; set backend "
                      "'graph' (or 'auto')");
    PLURALITY_REQUIRE(graph::push_has_kernel(*dyn),
                      "scenario: engine 'push' covers the arity-1 dynamics (voter, "
                      "undecided); dynamics '" << dynamics << "' samples more than one "
                      "neighbor per round — use engine 'batched' or 'strict'");
    PLURALITY_REQUIRE(n <= 4294967295ULL,
                      "scenario: engine 'push' packs (source, dest) node-id pairs into "
                      "64 bits, capping n at 4294967295 (got " << n << "); use engine "
                      "'batched'");
  }
  if (resolved == "agent") {
    PLURALITY_REQUIRE(engine == "strict",
                      "scenario: the agent backend has no batched pipeline; use backend "
                      "'graph' (the implicit clique batches) or engine 'strict'");
    PLURALITY_REQUIRE(adversary == "none",
                      "scenario: adversaries need count-level or node-level state, which "
                      "the agent backend does not expose; use backend 'count' (clique) "
                      "or 'graph'");
  }

  const StopCondition stop_spec = parse_stop_condition(stop);
  if (stop_spec.kind != StopCondition::Kind::Consensus) {
    // The graph driver stops on consensus/absorption only; predicates are
    // a count-path feature (where the configuration is the full state).
    PLURALITY_REQUIRE(resolved != "graph", "scenario: stop '" << stop
                                      << "' is count-path only; graph trials stop on "
                                         "consensus (use stop 'consensus')");
    PLURALITY_REQUIRE(stop_spec.kind != StopCondition::Kind::AnyReaches || stop_spec.value <= n,
                      "scenario: any-reaches threshold " << stop_spec.value
                                                         << " exceeds n = " << n);
  }
}

}  // namespace plurality::scenario
