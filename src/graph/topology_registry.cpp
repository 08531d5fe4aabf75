#include "graph/topology_registry.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "graph/builders.hpp"
#include "graph/implicit_topology.hpp"
#include "support/check.hpp"
#include "support/specs.hpp"

namespace plurality::graph {

namespace {

/// The CSR arena packs neighbor ids as u32, and the batched clique/gossip
/// sampler's index conversion (scale_word) needs its bound < 2^32 — both
/// cap n at this value on their respective paths.
constexpr count_t kU32Max = 4294967295ULL;

/// Arena-backed topologies stop here; the named escape hatches do not.
void require_arena_ids(const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(n <= kU32Max,
                    "topology '" << spec << "': node ids are 32-bit in the CSR "
                    "arena, so n is capped at 4294967295 (got " << n << "); for "
                    "larger populations use an implicit topology — 'ring', "
                    "'torus', 'lattice:<d>' (with topology_backend=implicit or "
                    "auto) have no id cap");
}

std::uint64_t parse_uint_field(const std::string& text, const std::string& spec,
                               const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  PLURALITY_REQUIRE(ec == std::errc() && ptr == text.data() + text.size(),
                    "topology '" << spec << "': " << what
                                 << " must be an unsigned integer, got '" << text << "'");
  return value;
}

double parse_double_field(const std::string& text, const std::string& spec,
                          const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    PLURALITY_REQUIRE(pos == text.size(), "topology '" << spec << "': trailing garbage in "
                                                       << what << " '" << text << "'");
    return v;
  } catch (const CheckError&) {
    throw;
  } catch (const std::exception&) {
    PLURALITY_REQUIRE(false, "topology '" << spec << "': " << what
                                          << " must be a number, got '" << text << "'");
    return 0.0;  // unreachable
  }
}

/// rows x cols for "torus" (square) and "torus:<r>x<c>".
std::pair<count_t, count_t> torus_shape(const std::string& arg, const std::string& spec,
                                        count_t n) {
  count_t rows = 0, cols = 0;
  if (arg.empty()) {
    const auto side = static_cast<count_t>(std::llround(std::sqrt(static_cast<double>(n))));
    PLURALITY_REQUIRE(side * side == n,
                      "topology 'torus': n = " << n << " is not a perfect square; "
                      << "use 'torus:<r>x<c>' with r*c == n");
    rows = cols = side;
  } else {
    const auto x = arg.find('x');
    PLURALITY_REQUIRE(x != std::string::npos,
                      "topology '" << spec << "': expected 'torus:<r>x<c>'");
    rows = parse_uint_field(arg.substr(0, x), spec, "rows");
    cols = parse_uint_field(arg.substr(x + 1), spec, "cols");
    // 128-bit product: r*c must not silently wrap u64 before the comparison.
    const auto product = static_cast<__uint128_t>(rows) * cols;
    PLURALITY_REQUIRE(product == n, "topology '" << spec << "': " << rows << "x" << cols
                                                 << " does not match n = " << n);
  }
  PLURALITY_REQUIRE(rows >= 3 && cols >= 3,
                    "topology '" << spec << "': torus sides must be >= 3 (got " << rows
                                 << "x" << cols << ")");
  return {rows, cols};
}

count_t lattice_degree(const std::string& arg, const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(!arg.empty(),
                    "topology 'lattice': needs an even degree, e.g. 'lattice:8'");
  const count_t d = parse_uint_field(arg, spec, "degree");
  PLURALITY_REQUIRE(d >= 2 && d % 2 == 0,
                    "topology '" << spec << "': degree must be even and >= 2, got " << d);
  PLURALITY_REQUIRE(n >= d + 2, "topology '" << spec << "': degree " << d
                                             << " needs n >= " << d + 2 << ", got " << n);
  return d;
}

count_t regular_degree(const std::string& arg, const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(!arg.empty(), "topology 'regular': needs a degree, e.g. 'regular:8'");
  const count_t d = parse_uint_field(arg, spec, "degree");
  PLURALITY_REQUIRE(d >= 1, "topology '" << spec << "': degree must be >= 1");
  PLURALITY_REQUIRE(d < n, "topology '" << spec << "': degree " << d
                                        << " needs more than " << n << " nodes");
  PLURALITY_REQUIRE((d * n) % 2 == 0,
                    "topology '" << spec << "': the configuration model needs d*n even "
                    << "(d = " << d << ", n = " << n << ")");
  return d;
}

std::uint64_t er_edges(const std::string& arg, const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(!arg.empty(), "topology 'er': needs an edge probability, e.g. 'er:0.001'");
  const double p = parse_double_field(arg, spec, "edge probability");
  PLURALITY_REQUIRE(p > 0.0 && p <= 1.0,
                    "topology '" << spec << "': edge probability must be in (0, 1], got " << p);
  PLURALITY_REQUIRE(n >= 2, "topology '" << spec << "': needs n >= 2");
  const double pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  const auto m = static_cast<std::uint64_t>(std::llround(p * pairs));
  PLURALITY_REQUIRE(m >= 1, "topology '" << spec << "': p = " << p << " rounds to zero edges"
                                         << " at n = " << n << "; raise p");
  return m;
}

std::vector<std::pair<count_t, count_t>> read_edge_list(const std::string& path,
                                                        count_t n) {
  std::ifstream in(path);
  PLURALITY_REQUIRE(in.good(), "topology 'edges': cannot open '" << path << "'");
  std::vector<std::pair<count_t, count_t>> edges;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    count_t u = 0, v = 0;
    PLURALITY_REQUIRE(static_cast<bool>(fields >> u >> v),
                      "topology 'edges': '" << path << "' line " << line_no
                                            << ": expected 'u v', got '" << line << "'");
    std::string rest;
    PLURALITY_REQUIRE(!(fields >> rest), "topology 'edges': '" << path << "' line "
                                                               << line_no
                                                               << ": trailing garbage");
    PLURALITY_REQUIRE(u < n && v < n, "topology 'edges': '" << path << "' line " << line_no
                                                            << ": node id out of range "
                                                            << "(n = " << n << ")");
    edges.emplace_back(u, v);
  }
  PLURALITY_REQUIRE(!edges.empty(), "topology 'edges': '" << path << "' has no edges");
  return edges;
}

std::uint64_t gnm_edges(const std::string& arg, const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(!arg.empty(), "topology 'gnm': needs an edge count, e.g. 'gnm:4000000'");
  const std::uint64_t m = parse_uint_field(arg, spec, "edge count");
  PLURALITY_REQUIRE(m >= 1, "topology '" << spec << "': edge count must be >= 1");
  PLURALITY_REQUIRE(n >= 2, "topology '" << spec << "': needs n >= 2");
  const double pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  PLURALITY_REQUIRE(static_cast<double>(m) <= pairs,
                    "topology '" << spec << "': " << m << " distinct edges do not fit "
                                 << "n = " << n << " nodes");
  return m;
}

constexpr const char* kUnknownMessage =
    "; known: clique, gossip, ring, torus[:<r>x<c>], lattice:<d>, regular:<d>, "
    "er:<p>, gnm:<m>, edges:<path>";

}  // namespace

bool topology_is_clique(const std::string& spec) { return spec == "clique"; }

bool topology_is_implicit_capable(const std::string& spec) {
  const auto [kind, arg] = split_spec(spec);
  (void)arg;
  return kind == "clique" || kind == "gossip" || kind == "ring" || kind == "torus" ||
         kind == "lattice";
}

void validate_topology_spec(const std::string& spec, count_t n) {
  PLURALITY_REQUIRE(n >= 1, "topology '" << spec << "': n must be >= 1");
  const auto [kind, arg] = split_spec(spec);
  if (kind == "clique") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'clique' takes no argument");
    PLURALITY_REQUIRE(n <= kU32Max,
                      "topology 'clique': the batched engine's sample bound is n "
                      "itself and must fit 32 bits (got " << n << ")");
    return;
  }
  if (kind == "gossip") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'gossip' takes no argument");
    PLURALITY_REQUIRE(n <= kU32Max,
                      "topology 'gossip': the batched engine's sample bound is n "
                      "itself and must fit 32 bits (got " << n << ")");
    return;
  }
  if (kind == "ring") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'ring' takes no argument");
    PLURALITY_REQUIRE(n >= 3, "topology 'ring': needs n >= 3, got " << n);
    return;
  }
  if (kind == "torus") {
    (void)torus_shape(arg, spec, n);
    return;
  }
  if (kind == "lattice") {
    (void)lattice_degree(arg, spec, n);
    return;
  }
  if (kind == "regular") {
    require_arena_ids(spec, n);
    (void)regular_degree(arg, spec, n);
    return;
  }
  if (kind == "er") {
    require_arena_ids(spec, n);
    (void)er_edges(arg, spec, n);
    return;
  }
  if (kind == "gnm") {
    require_arena_ids(spec, n);
    (void)gnm_edges(arg, spec, n);
    return;
  }
  if (kind == "edges") {
    require_arena_ids(spec, n);
    PLURALITY_REQUIRE(!arg.empty(), "topology 'edges': needs a file path, e.g. "
                                    "'edges:graph.txt'");
    const std::ifstream probe(arg);
    PLURALITY_REQUIRE(probe.good(), "topology 'edges': cannot open '" << arg << "'");
    return;
  }
  PLURALITY_REQUIRE(false, "unknown topology '" << kind << "'" << kUnknownMessage);
}

AgentGraph make_topology(const std::string& spec, count_t n, rng::Xoshiro256pp& gen) {
  const auto [kind, arg] = split_spec(spec);
  if (kind == "clique") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'clique' takes no argument");
    return AgentGraph::complete(n);
  }
  if (kind == "gossip") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'gossip' takes no argument");
    PLURALITY_REQUIRE(n <= kU32Max,
                      "topology 'gossip': the batched engine's sample bound is n "
                      "itself and must fit 32 bits (got " << n << ")");
    return AgentGraph::implicit(ImplicitTopology::gossip(n));
  }
  if (kind == "ring") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'ring' takes no argument");
    require_arena_ids(spec, n);
    return AgentGraph::from_topology(cycle(n));
  }
  if (kind == "torus") {
    const auto [rows, cols] = torus_shape(arg, spec, n);
    require_arena_ids(spec, n);
    return AgentGraph::from_topology(torus(rows, cols));
  }
  if (kind == "lattice") {
    const count_t d = lattice_degree(arg, spec, n);
    require_arena_ids(spec, n);
    return AgentGraph::from_topology(circulant_lattice(n, d));
  }
  if (kind == "regular") {
    require_arena_ids(spec, n);
    const count_t d = regular_degree(arg, spec, n);
    return AgentGraph::from_topology(random_regular(n, d, gen));
  }
  if (kind == "er") {
    require_arena_ids(spec, n);
    const std::uint64_t m = er_edges(arg, spec, n);
    return AgentGraph::from_topology(erdos_renyi(n, m, gen, /*patch_isolated=*/true));
  }
  if (kind == "gnm") {
    require_arena_ids(spec, n);
    const std::uint64_t m = gnm_edges(arg, spec, n);
    return AgentGraph::from_topology(erdos_renyi(n, m, gen, /*patch_isolated=*/true));
  }
  if (kind == "edges") {
    require_arena_ids(spec, n);
    PLURALITY_REQUIRE(!arg.empty(), "topology 'edges': needs a file path, e.g. "
                                    "'edges:graph.txt'");
    return AgentGraph::from_edges(n, read_edge_list(arg, n));
  }
  PLURALITY_REQUIRE(false, "unknown topology '" << kind << "'" << kUnknownMessage);
  return AgentGraph();  // unreachable
}

AgentGraph make_topology_implicit(const std::string& spec, count_t n) {
  const auto [kind, arg] = split_spec(spec);
  if (kind == "clique") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'clique' takes no argument");
    return AgentGraph::complete(n);
  }
  if (kind == "gossip") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'gossip' takes no argument");
    PLURALITY_REQUIRE(n <= kU32Max,
                      "topology 'gossip': the batched engine's sample bound is n "
                      "itself and must fit 32 bits (got " << n << ")");
    return AgentGraph::implicit(ImplicitTopology::gossip(n));
  }
  if (kind == "ring") {
    PLURALITY_REQUIRE(arg.empty(), "topology 'ring' takes no argument");
    return AgentGraph::implicit(ImplicitTopology::ring(n));
  }
  if (kind == "torus") {
    const auto [rows, cols] = torus_shape(arg, spec, n);
    return AgentGraph::implicit(ImplicitTopology::torus(rows, cols));
  }
  if (kind == "lattice") {
    const count_t d = lattice_degree(arg, spec, n);
    return AgentGraph::implicit(ImplicitTopology::lattice(n, d));
  }
  PLURALITY_REQUIRE(false, "topology '" << spec << "' has no implicit form; "
                    "implicit-capable: clique, gossip, ring, torus[:<r>x<c>], "
                    "lattice:<d>");
  return AgentGraph();  // unreachable
}

std::vector<std::string> topology_names() {
  return {"clique", "gossip", "ring", "torus", "torus:<r>x<c>", "lattice:<d>",
          "regular:<d>", "er:<p>", "gnm:<m>", "edges:<path>"};
}

}  // namespace plurality::graph
