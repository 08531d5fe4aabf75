// The topology_backend axis of ScenarioSpec (spec.hpp) and the u32
// node-id ceiling it unlocks.
//
// Before the implicit engine, n > 2^32 - 1 either crashed deep in the CSR
// packer or silently truncated ids. Now the boundary is validated with an
// actionable error at the registry/spec layer, and the implicit families
// are the documented escape hatch. These tests pin: field round-trips
// (string + JSON), the auto-resolution rule around kImplicitAutoThreshold,
// the arena/implicit validation errors, the u32 boundary itself, and
// compile() echoing the resolved choice.
#include <gtest/gtest.h>

#include "graph/implicit_topology.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "support/check.hpp"

namespace plurality::scenario {
namespace {

TEST(TopologyBackend, RoundTripsThroughStringAndJson) {
  ScenarioSpec spec = ScenarioSpec::parse("topology=ring n=1e6 topology_backend=implicit");
  EXPECT_EQ(spec.topology_backend, "implicit");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_spec_string()).topology_backend, "implicit");
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json()).topology_backend, "implicit");
  // Default stays "auto" and survives the round trip too.
  ScenarioSpec def;
  EXPECT_EQ(def.topology_backend, "auto");
  EXPECT_EQ(ScenarioSpec::parse(def.to_spec_string()).topology_backend, "auto");
}

TEST(TopologyBackend, AutoResolvesByThresholdAndFamily) {
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
  // Explicit values are identities.
  EXPECT_EQ(ScenarioSpec::parse("topology=ring n=1e7 topology_backend=arena")
                .resolved_topology_backend(),
            "arena");
}

TEST(TopologyBackend, ValidationRejectsImpossibleCombinations) {
  // Unknown value.
  EXPECT_THROW(ScenarioSpec::parse("topology_backend=csr").validate(), CheckError);
  // Implicit has no form for the random families.
  EXPECT_THROW(ScenarioSpec::parse("topology=regular:8 topology_backend=implicit").validate(),
               CheckError);
  EXPECT_THROW(ScenarioSpec::parse("topology=er:0.01 topology_backend=implicit").validate(),
               CheckError);
  // Arena has no form for clique/gossip.
  EXPECT_THROW(ScenarioSpec::parse("topology=clique topology_backend=arena").validate(),
               CheckError);
  EXPECT_THROW(ScenarioSpec::parse("topology=gossip topology_backend=arena").validate(),
               CheckError);
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
  }
  // Forced-arena ring hits the same ceiling...
  ScenarioSpec ring = ScenarioSpec::parse("topology=ring topology_backend=arena");
  ring.n = kU32Max + 1;
  EXPECT_THROW(ring.validate(), CheckError);
  // ...while the implicit path sails past it (validate-only: no 4-billion
  // node graph is built here).
  ScenarioSpec implicit_ring = ScenarioSpec::parse("topology=ring");
  implicit_ring.n = kU32Max + 1;
  EXPECT_NO_THROW(implicit_ring.validate());
  EXPECT_EQ(implicit_ring.resolved_topology_backend(), "implicit");
  // Clique/gossip keep the 32-bit cap: the batched sampler's bound is n.
  ScenarioSpec gossip = ScenarioSpec::parse("topology=gossip");
  gossip.n = kU32Max + 1;
  EXPECT_THROW(gossip.validate(), CheckError);
}

TEST(TopologyBackend, CompileEchoesResolvedBackendAndBuildsImplicit) {
  // Above-threshold would be slow to step, so compile a forced-implicit
  // small ring and a small gossip instead; the resolved spec must echo the
  // concrete choice, and the graphs must carry no arena.
  const Scenario ring = Scenario::compile(
      ScenarioSpec::parse("topology=ring n=1000 topology_backend=implicit trials=1"));
  EXPECT_EQ(ring.spec().topology_backend, "implicit");
  EXPECT_TRUE(ring.graph().is_implicit());
  EXPECT_EQ(ring.graph().max_degree(), 2u);

  const Scenario gossip =
      Scenario::compile(ScenarioSpec::parse("topology=gossip n=1000 trials=1"));
  EXPECT_EQ(gossip.spec().topology_backend, "implicit");
  EXPECT_TRUE(gossip.graph().is_complete());

  const Scenario arena = Scenario::compile(ScenarioSpec::parse("topology=ring n=1000 trials=1"));
  EXPECT_EQ(arena.spec().topology_backend, "arena");
  EXPECT_FALSE(arena.graph().is_implicit());

  // A run's result echoes the arena an arena-only family resolved to.
  const ScenarioResult regular = run_scenario(ScenarioSpec::parse(
      "dynamics=voter k=2 topology=regular:8 n=2000 trials=3 max_rounds=40000"));
  EXPECT_EQ(regular.resolved.backend, "graph");
  EXPECT_EQ(regular.resolved.topology_backend, "arena");
  EXPECT_EQ(regular.summary.trials, 3u);
}

TEST(TopologyBackend, ImplicitAndArenaCompileToSameResults) {
  // End-to-end through the scenario layer: same spec, both backends, same
  // summary bit for bit (the engine-level pin lives in
  // tests/graph/test_implicit_topology.cpp; this covers the compile path).
  const std::string base = "topology=torus:20x30 n=600 k=3 workload=bias:50 trials=6 "
                           "seed=9 max_rounds=20000";
  for (const char* engine : {"strict", "batched"}) {
    const auto arena = run_scenario(
        ScenarioSpec::parse(base + " engine=" + engine + " topology_backend=arena"));
    const auto implicit = run_scenario(
        ScenarioSpec::parse(base + " engine=" + engine + " topology_backend=implicit"));
    EXPECT_EQ(implicit.summary.round_samples, arena.summary.round_samples) << engine;
    EXPECT_EQ(implicit.summary.consensus_count, arena.summary.consensus_count) << engine;
  }
}

}  // namespace
}  // namespace plurality::scenario
