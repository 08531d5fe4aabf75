// The topology store (CSR arena or implicit neighborhoods) a graph-backend
// scenario compiles to, and the u32 node-id ceiling the implicit store
// lifts.
//
// The store is not a spec field: compile picks it from the topology and n
// (ScenarioSpec::resolved_topology_backend), results echo it as
// `spec.topology_backend`, and the removed field's old values still parse
// (and are dropped) so old specs and result echoes keep working. Before
// the implicit engine, n > 2^32 - 1 either crashed deep in the CSR packer
// or silently truncated ids; now the boundary is validated with an
// actionable error naming the implicit families. These tests pin the
// resolution rule around kImplicitAutoThreshold, the echo, the legacy
// values, and the u32 boundary itself.
#include <gtest/gtest.h>

#include "graph/implicit_topology.hpp"
#include "io/json.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "support/check.hpp"

namespace plurality::scenario {
namespace {

TEST(TopologyBackend, ResolvesByThresholdAndFamily) {
  const count_t at = graph::kImplicitAutoThreshold;
  // Structured families: arena below the threshold, implicit at/above.
  EXPECT_EQ(ScenarioSpec::parse("topology=ring n=4096").resolved_topology_backend(),
            "arena");
  ScenarioSpec ring = ScenarioSpec::parse("topology=ring");
  ring.n = at;
  EXPECT_EQ(ring.resolved_topology_backend(), "implicit");
  ring.n = at - 1;
  EXPECT_EQ(ring.resolved_topology_backend(), "arena");
  // Clique/gossip are implicit at any n (they never had an arena).
  EXPECT_EQ(ScenarioSpec::parse("topology=gossip n=100").resolved_topology_backend(),
            "implicit");
  EXPECT_EQ(ScenarioSpec::parse("topology=clique n=100").resolved_topology_backend(),
            "implicit");
  // Arena-only families always resolve to arena.
  EXPECT_EQ(ScenarioSpec::parse("topology=regular:8 n=1e7").resolved_topology_backend(),
            "arena");
}

TEST(TopologyBackend, CompilePicksTheStoreAtTheThreshold) {
  // Compile only (no trial runs): one node below the threshold the ring is
  // a CSR arena, at the threshold it is arithmetic.
  const count_t at = graph::kImplicitAutoThreshold;
  ScenarioSpec spec = ScenarioSpec::parse("topology=ring trials=1");
  spec.n = at - 1;
  EXPECT_FALSE(Scenario::compile(spec).graph().is_implicit());
  spec.n = at;
  const Scenario implicit = Scenario::compile(spec);
  EXPECT_TRUE(implicit.graph().is_implicit());
  EXPECT_EQ(implicit.graph().max_degree(), 2u);
}

TEST(TopologyBackend, U32NodeIdBoundaryIsValidatedWithEscapeHatch) {
  constexpr count_t kU32Max = 4294967295ULL;
  // regular:8 at exactly the cap validates (validation is cheap — no graph
  // is built); one past the cap throws, and the message names the escape
  // hatch instead of just refusing.
  ScenarioSpec spec = ScenarioSpec::parse("topology=regular:8");
  spec.n = kU32Max;
  EXPECT_NO_THROW(spec.validate());
  spec.n = kU32Max + 1;
  try {
    spec.validate();
    FAIL() << "n = 2^32 must be rejected on an arena topology";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("implicit"), std::string::npos) << what;
    EXPECT_NE(what.find("'ring', 'torus' and 'lattice:<d>'"), std::string::npos) << what;
    EXPECT_EQ(what.find("topology_backend"), std::string::npos) << what;
  }
  // The implicit path sails past it (validate-only: no 4-billion node
  // graph is built here).
  ScenarioSpec implicit_ring = ScenarioSpec::parse("topology=ring");
  implicit_ring.n = kU32Max + 1;
  EXPECT_NO_THROW(implicit_ring.validate());
  EXPECT_EQ(implicit_ring.resolved_topology_backend(), "implicit");
  // Clique/gossip keep the 32-bit cap: the batched sampler's bound is n.
  for (const char* topology : {"clique", "gossip"}) {
    ScenarioSpec complete = ScenarioSpec::parse(std::string("topology=") + topology);
    complete.n = kU32Max + 1;
    EXPECT_THROW(complete.validate(), CheckError) << topology;
  }
}

TEST(TopologyBackend, ResultsEchoTheStoreThatRan) {
  const auto result_of = [](const std::string& text) {
    return scenario_result_to_json(run_scenario(ScenarioSpec::parse(text)));
  };
  const std::string text =
      "dynamics=voter k=2 topology=regular:8 n=2000 trials=3 max_rounds=40000";
  const io::JsonValue regular = result_of(text);
  EXPECT_EQ(regular.at("spec").at("backend").as_string(), "graph");
  EXPECT_EQ(regular.at("spec").at("topology_backend").as_string(), "arena");
  EXPECT_EQ(result_of("topology=gossip n=1000 trials=1")
                .at("spec").at("topology_backend").as_string(),
            "implicit");
  // The count backend builds no topology, so there is nothing to echo.
  EXPECT_FALSE(
      result_of("topology=clique n=1000 trials=1").at("spec").contains("topology_backend"));
  // The echo re-parses: from_json drops the store again.
  EXPECT_EQ(ScenarioSpec::from_json(regular.at("spec")).to_spec_string(),
            ScenarioSpec::parse(text + " backend=graph").to_spec_string());
}

TEST(TopologyBackend, CommittedResultEchoesReparseAndValidate) {
  // The spec block of scenarios/big/results/gossip_1e9.json, verbatim.
  const ScenarioSpec spec = ScenarioSpec::from_json(io::parse_json(R"({
      "dynamics": "3-majority", "workload": "share:0.6", "topology": "gossip",
      "adversary": "none", "backend": "graph", "engine": "batched",
      "stop": "consensus", "topology_backend": "implicit", "n": 1000000000,
      "k": 2, "trials": 1, "seed": 7, "max_rounds": 100, "parallel": true,
      "shuffle_layout": true})"));
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_topology_backend(), "implicit");
}

TEST(TopologyBackend, FieldWasRemoved) {
  // The old values never changed results: they are accepted and dropped.
  for (const char* value : {"auto", "arena", "implicit"}) {
    const ScenarioSpec legacy =
        ScenarioSpec::parse(std::string("topology=torus n=10000 topology_backend=") + value);
    EXPECT_EQ(legacy.to_spec_string(),
              ScenarioSpec::parse("topology=torus n=10000").to_spec_string())
        << value;
  }
  // Anything else fails at parse, naming the removal.
  for (const char* text : {"topology_backend=csr", "topology=ring topology_backend=Arena"}) {
    try {
      (void)ScenarioSpec::parse(text);
      FAIL() << "expected '" << text << "' to be rejected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"topology_backend": 1})")),
               CheckError);
  // The spec itself never names it.
  const ScenarioSpec spec = ScenarioSpec::parse("topology=ring n=1e7");
  EXPECT_EQ(spec.to_spec_string().find("topology_backend"), std::string::npos);
  EXPECT_FALSE(spec.to_json().contains("topology_backend"));
}

}  // namespace
}  // namespace plurality::scenario
