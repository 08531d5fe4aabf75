#include "sweep/sweep_spec.hpp"

#include <cstdio>
#include <set>
#include <sstream>

#include "support/check.hpp"

namespace plurality::sweep {

namespace {

/// Canonical string for an axis element (JSON axes may carry numbers and
/// booleans; set_field consumes strings).
std::string value_to_string(const std::string& field, const io::JsonValue& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "true" : "false";
  if (value.is_number()) return std::to_string(value.as_uint());
  PLURALITY_REQUIRE(false, "sweep: axis '" << field
                                           << "' elements must be strings, numbers, or "
                                              "booleans");
  return {};  // unreachable
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

ObserveSpec observe_from_json(const io::JsonValue& doc) {
  PLURALITY_REQUIRE(doc.is_object(), "sweep: 'observe' must be a JSON object");
  ObserveSpec observe;
  for (const auto& key : doc.keys()) {
    if (key == "m_plurality") {
      observe.m_plurality = true;
      observe.m = doc.at(key).as_uint();
    } else if (key == "trajectory") {
      observe.trajectory = doc.at(key).as_uint();
    } else if (key == "trajectory_stride") {
      observe.trajectory_stride = doc.at(key).as_uint();
      PLURALITY_REQUIRE(observe.trajectory_stride >= 1,
                        "sweep: observe.trajectory_stride must be >= 1");
    } else {
      PLURALITY_REQUIRE(false, "sweep: unknown observe field '"
                                   << key << "'; known: m_plurality, trajectory, "
                                   << "trajectory_stride");
    }
  }
  return observe;
}

/// Applies each axis value to a scratch copy of `base`, so a typo'd field
/// or value fails before expansion multiplies it. Values that land on the
/// same spec (`n=1e6,1000000`, or old values of a removed field that are
/// dropped on parse) fail too: they would rerun one cell under new seeds.
void probe_axis(const scenario::ScenarioSpec& base, const SweepAxis& axis) {
  std::set<std::string> cells;
  for (const std::string& v : axis.values) {
    scenario::ScenarioSpec probe = base;
    probe.set_field(axis.field, v);
    PLURALITY_REQUIRE(cells.insert(probe.to_spec_string()).second,
                      "sweep: axis '" << axis.field << "' value '" << v
                                      << "' gives the same cell as an earlier value; "
                                         "drop the duplicate");
  }
}

}  // namespace

std::string cell_id(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell_%05zu", index);
  return buf;
}

SweepSpec SweepSpec::parse(const std::string& text) {
  SweepSpec sweep;
  std::istringstream tokens(text);
  std::string token;
  std::set<std::string> seen;
  bool any = false;
  while (tokens >> token) {
    any = true;
    const auto eq = token.find('=');
    PLURALITY_REQUIRE(eq != std::string::npos && eq > 0,
                      "sweep: expected 'key=value[,value...]', got '" << token << "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    PLURALITY_REQUIRE(seen.insert(key).second, "sweep: duplicate field '" << key << "'");
    if (value.find(',') == std::string::npos) {
      sweep.base.set_field(key, value);
      continue;
    }
    SweepAxis axis{key, split_commas(value)};
    for (const std::string& v : axis.values) {
      PLURALITY_REQUIRE(!v.empty(), "sweep: axis '" << key << "' has an empty value "
                                                       "(trailing or doubled comma?)");
    }
    probe_axis(sweep.base, axis);
    sweep.axes.push_back(std::move(axis));
  }
  PLURALITY_REQUIRE(any, "sweep: empty sweep string");
  return sweep;
}

SweepSpec SweepSpec::from_json(const io::JsonValue& doc) {
  PLURALITY_REQUIRE(doc.is_object(), "sweep: spec document must be a JSON object");
  SweepSpec sweep;
  for (const auto& key : doc.keys()) {
    if (key == "base") {
      sweep.base = scenario::ScenarioSpec::from_json(doc.at(key));
    } else if (key == "axes") {
      const io::JsonValue& axes = doc.at(key);
      PLURALITY_REQUIRE(axes.is_object(), "sweep: 'axes' must be a JSON object");
      for (const auto& field : axes.keys()) {
        const io::JsonValue& list = axes.at(field);
        PLURALITY_REQUIRE(list.is_array() && list.size() >= 1,
                          "sweep: axis '" << field << "' must be a non-empty array");
        SweepAxis axis{field, {}};
        axis.values.reserve(list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
          axis.values.push_back(value_to_string(field, list.item(i)));
        }
        sweep.axes.push_back(std::move(axis));
      }
    } else if (key == "observe") {
      sweep.observe = observe_from_json(doc.at(key));
    } else if (key == "per_cell_seeds") {
      sweep.per_cell_seeds = doc.at(key).as_bool();
    } else {
      PLURALITY_REQUIRE(false, "sweep: unknown field '"
                                   << key
                                   << "'; known: base, axes, observe, per_cell_seeds");
    }
  }
  for (const SweepAxis& axis : sweep.axes) probe_axis(sweep.base, axis);
  return sweep;
}

SweepSpec SweepSpec::from_json_file(const std::string& path) {
  return from_json(io::read_json_file(path));
}

io::JsonValue SweepSpec::to_json() const {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("base", base.to_json());
  io::JsonValue& axis_doc = doc.set("axes", io::JsonValue::object());
  for (const SweepAxis& axis : axes) {
    io::JsonValue& list = axis_doc.set(axis.field, io::JsonValue::array());
    for (const std::string& v : axis.values) list.push(v);
  }
  io::JsonValue& obs = doc.set("observe", io::JsonValue::object());
  if (observe.m_plurality) obs.set("m_plurality", std::uint64_t{observe.m});
  if (observe.trajectory > 0) {
    obs.set("trajectory", std::uint64_t{observe.trajectory});
    obs.set("trajectory_stride", std::uint64_t{observe.trajectory_stride});
  }
  doc.set("per_cell_seeds", per_cell_seeds);
  return doc;
}

std::size_t SweepSpec::cell_count() const {
  std::size_t count = 1;
  for (const SweepAxis& axis : axes) count *= axis.values.size();
  return count;
}

std::vector<scenario::ScenarioSpec> SweepSpec::expand() const {
  for (const SweepAxis& axis : axes) {
    PLURALITY_REQUIRE(!axis.values.empty(), "sweep: axis '" << axis.field << "' is empty");
  }
  const std::size_t cells = cell_count();
  PLURALITY_REQUIRE(cells <= 100'000,
                    "sweep: grid has " << cells << " cells (cap: 100000); split the sweep");

  bool seed_is_axis = false;
  for (const SweepAxis& axis : axes) seed_is_axis |= axis.field == "seed";

  std::vector<scenario::ScenarioSpec> expanded;
  expanded.reserve(cells);
  for (std::size_t index = 0; index < cells; ++index) {
    scenario::ScenarioSpec spec = base;
    // Row-major decode: last axis varies fastest.
    std::size_t remainder = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      const SweepAxis& axis = axes[a];
      const std::size_t v = remainder % axis.values.size();
      remainder /= axis.values.size();
      try {
        spec.set_field(axis.field, axis.values[v]);
      } catch (const CheckError& e) {
        PLURALITY_REQUIRE(false, "sweep: cell " << index << " (" << axis.field << "="
                                                << axis.values[v] << "): " << e.what());
      }
    }
    if (per_cell_seeds && !seed_is_axis) {
      // Statistically independent replicas: StreamFactory avalanches the
      // seed, so consecutive integers give unrelated stream families. The
      // derived seed lands in the expanded spec — each cell file remains a
      // complete, standalone-reproducible scenario.
      spec.seed = base.seed + index;
    }
    try {
      spec.validate();
    } catch (const CheckError& e) {
      PLURALITY_REQUIRE(false, "sweep: cell " << index << " of " << cells
                                              << " fails validation: " << e.what()
                                              << "\n  cell spec: " << spec.to_spec_string());
    }
    expanded.push_back(std::move(spec));
  }
  return expanded;
}

}  // namespace plurality::sweep
