#include "scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "core/adversary.hpp"
#include "core/registry.hpp"
#include "core/workloads.hpp"
#include "graph/implicit_topology.hpp"
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

/// The string form's spellings of a boolean, or nullopt.
std::optional<bool> bool_text(const std::string& text) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return std::nullopt;
}

bool parse_spec_bool(const std::string& key, const std::string& text) {
  const std::optional<bool> value = bool_text(text);
  PLURALITY_REQUIRE(value, "scenario: '" << key << "' must be true/false, got '" << text << "'");
  return *value;
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
    // Removed field: compile picks the topology store from the topology and
    // n, and no store ever changed results, so the old values are dropped
    // (result echoes still name the store that ran and must re-parse).
    const bool legacy = value.is_string() && (value.as_string() == "auto" ||
                                              value.as_string() == "arena" ||
                                              value.as_string() == "implicit");
    PLURALITY_REQUIRE(legacy, "scenario: field 'topology_backend' was removed; the "
                              "topology store is picked from the topology and n "
                              "(only the old values auto, arena and implicit are still "
                              "accepted) — drop the field");
  } else if (key == "graph_layout") {
    // Removed field: "identity" names what every run does and is dropped.
    PLURALITY_REQUIRE(value.is_string() && value.as_string() == "identity",
                      "scenario: field 'graph_layout' was removed; graphs step in "
                      "builder order (only 'identity', which names that, is still "
                      "accepted) — drop the field");
  } else if (key == "parallel") {
    // Removed field: the thread plan decides whether trials share a team,
    // and results never depended on it, so both old values are dropped.
    const bool legacy = value.is_bool() || (value.is_string() && bool_text(value.as_string()));
    PLURALITY_REQUIRE(legacy, "scenario: field 'parallel' was removed; the thread plan "
                              "picks how trials share the threads (only the old values "
                              "true and false are still accepted) — drop the field");
  } else if (key == "tile_nodes" || key == "prefetch_distance") {
    // Removed fields: results never depended on them, so their defaults
    // (tile_nodes 0, prefetch_distance 16) are dropped like
    // graph_layout=identity, and old result echoes still re-parse.
    const std::uint64_t kept = key == "tile_nodes" ? 0 : 16;
    PLURALITY_REQUIRE(value.as_uint() == kept,
                      "scenario: field '" << key << "' was removed; it never changed "
                      "results (only its default " << kept << " is still accepted) — "
                      "drop the field");
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
  } else if (key == "shuffle_layout") {
    spec.shuffle_layout = value.as_bool();
  } else {
    PLURALITY_REQUIRE(false,
                      "scenario: unknown field '"
                          << key << "'; known: dynamics, workload, topology, adversary, "
                          << "backend, engine, stop, n, k, trials, seed, max_rounds, "
                          << "shuffle_layout");
  }
}

/// The backend `spec.backend == "auto"` denotes for an already-constructed
/// dynamics (shared by validate() and resolved_backend() so the constraints
/// below always apply to what will actually run).
std::string resolve_backend_impl(const ScenarioSpec& spec, const Dynamics& dyn) {
  if (spec.backend != "auto") return spec.backend;
  const bool count =
      graph::topology_is_clique(spec.topology) && dyn.has_exact_law(dyn.num_states(spec.k));
  return count ? "count" : "graph";
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
  } else if (key == "shuffle_layout") {
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
  doc.set("n", std::uint64_t{n});
  doc.set("k", std::uint64_t{k});
  doc.set("trials", trials);
  doc.set("seed", seed);
  doc.set("max_rounds", std::uint64_t{max_rounds});
  doc.set("shuffle_layout", shuffle_layout);
  return doc;
}

std::string ScenarioSpec::to_spec_string() const {
  std::ostringstream os;
  os << "dynamics=" << dynamics << " workload=" << workload << " topology=" << topology
     << " adversary=" << adversary << " backend=" << backend << " engine=" << engine
     << " stop=" << stop << " n=" << n << " k=" << k << " trials=" << trials
     << " seed=" << seed << " max_rounds=" << max_rounds
     << " shuffle_layout=" << (shuffle_layout ? "true" : "false");
  return os.str();
}

std::string ScenarioSpec::resolved_backend() const {
  validate();
  return resolve_backend_impl(*this, *make_dynamics(dynamics));
}

std::string ScenarioSpec::resolved_topology_backend() const {
  validate();
  if (!graph::topology_is_implicit_capable(topology)) return "arena";
  const std::string kind = split_spec(topology).kind;
  // Clique/gossip store nothing either way; report them as implicit.
  if (kind == "clique" || kind == "gossip") return "implicit";
  return n >= graph::kImplicitAutoThreshold ? "implicit" : "arena";
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

  PLURALITY_REQUIRE(engine != "push",
                    "scenario: engine 'push' was removed; engine 'batched' reproduces "
                    "push runs bitwise and 'strict' steps fastest");
  PLURALITY_REQUIRE(engine == "strict" || engine == "batched",
                    "scenario: engine must be strict/batched, got '" << engine << "'");
  PLURALITY_REQUIRE(backend == "auto" || backend == "count" || backend == "graph",
                    "scenario: backend must be auto/count/graph, got '"
                        << backend
                        << "' (backend 'agent' was removed; backend 'graph' (or "
                           "'auto') runs the same per-node clique process)");
  const bool clique = graph::topology_is_clique(topology);
  const state_t states = dyn->num_states(k);
  if (backend == "count") {
    PLURALITY_REQUIRE(clique, "scenario: backend 'count' models the clique exactly; "
                              "topology '" << topology << "' needs backend 'graph' (or "
                              "'auto')");
    PLURALITY_REQUIRE(dyn->has_exact_law(states),
                      "scenario: dynamics '" << dynamics << "' has no exact adoption law "
                      "at k = " << k << "; use backend 'graph' (or 'auto')");
  }

  const StopCondition stop_spec = parse_stop_condition(stop);
  PLURALITY_REQUIRE(stop_spec.kind != StopCondition::Kind::AnyReaches || stop_spec.value <= n,
                    "scenario: any-reaches threshold " << stop_spec.value
                                                       << " exceeds n = " << n);
}

}  // namespace plurality::scenario
