// Spec-grammar golden tests: the string form, the JSON form, their round
// trips, validation errors (one actionable message per misuse), and
// backend auto-resolution.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "scenario/scenario.hpp"
#include "support/check.hpp"

namespace plurality::scenario {
namespace {

/// EXPECT_THROW plus a substring check on the message, so the "actionable
/// error" contract is itself pinned.
void expect_rejects(const std::string& spec_text, const std::string& needle) {
  try {
    ScenarioSpec::parse(spec_text).validate();
    FAIL() << "expected '" << spec_text << "' to be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message for '" << spec_text << "' lacks '" << needle << "': " << e.what();
  }
}

TEST(ScenarioSpec, DefaultsValidate) {
  const ScenarioSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_backend(), "count");
}

TEST(ScenarioSpec, ParseStringForm) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "dynamics=undecided topology=regular:8 workload=bias:2c n=1e6 k=5 "
      "engine=batched trials=32 seed=9 max_rounds=5000 parallel=false "
      "shuffle_layout=true adversary=random:100 backend=graph");
  EXPECT_EQ(spec.dynamics, "undecided");
  EXPECT_EQ(spec.topology, "regular:8");
  EXPECT_EQ(spec.workload, "bias:2c");
  EXPECT_EQ(spec.n, 1'000'000u);
  EXPECT_EQ(spec.k, 5u);
  EXPECT_EQ(spec.engine, "batched");
  EXPECT_EQ(spec.trials, 32u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.max_rounds, 5000u);
  EXPECT_FALSE(spec.parallel);
  EXPECT_TRUE(spec.shuffle_layout);
  EXPECT_EQ(spec.adversary, "random:100");
  EXPECT_EQ(spec.backend, "graph");
  EXPECT_NO_THROW(spec.validate());
  // Unmentioned fields keep their defaults.
  EXPECT_EQ(spec.stop, "consensus");
}

TEST(ScenarioSpec, StringFormRoundTrips) {
  ScenarioSpec spec;
  spec.dynamics = "7-plurality";
  spec.topology = "torus:25x40";
  spec.workload = "zipf:0.8";
  spec.n = 1000;
  spec.k = 7;
  spec.engine = "batched";
  spec.backend = "graph";
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_spec_string());
  EXPECT_EQ(reparsed.to_spec_string(), spec.to_spec_string());
}

TEST(ScenarioSpec, MalformedStringsThrow) {
  EXPECT_THROW(ScenarioSpec::parse(""), CheckError);
  EXPECT_THROW(ScenarioSpec::parse("nonsense"), CheckError);          // no '='
  EXPECT_THROW(ScenarioSpec::parse("=value"), CheckError);            // empty key
  EXPECT_THROW(ScenarioSpec::parse("bogus=1"), CheckError);           // unknown field
  EXPECT_THROW(ScenarioSpec::parse("n=12 n=13"), CheckError);         // duplicate
  EXPECT_THROW(ScenarioSpec::parse("n=abc"), CheckError);             // bad number
  EXPECT_THROW(ScenarioSpec::parse("n=1.5"), CheckError);             // non-integral
  EXPECT_THROW(ScenarioSpec::parse("parallel=maybe"), CheckError);    // bad bool
}

TEST(ScenarioSpec, JsonRoundTrips) {
  ScenarioSpec spec;
  spec.dynamics = "voter";
  spec.topology = "er:0.01";
  spec.workload = "share:0.4";
  spec.adversary = "boost-runner-up:50";
  spec.backend = "graph";
  spec.engine = "strict";
  spec.n = 2000;
  spec.k = 4;
  spec.trials = 3;
  spec.parallel = false;

  const io::JsonValue emitted = spec.to_json();
  const ScenarioSpec reparsed =
      ScenarioSpec::from_json(io::parse_json(emitted.to_string()));
  EXPECT_EQ(reparsed.to_json().to_string(), emitted.to_string());
  EXPECT_EQ(reparsed.to_spec_string(), spec.to_spec_string());
}

TEST(ScenarioSpec, JsonUnknownOrMistypedFieldsThrow) {
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"dynamic": "voter"})")),
               CheckError);  // typo'd key must not silently run defaults
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"n": "many"})")), CheckError);
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"parallel": 3.7})")), CheckError);
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"([1, 2])")), CheckError);
}

TEST(ScenarioSpec, JsonFileRoundTrip) {
  const std::string path = "test_scenario_spec.tmp.json";
  ScenarioSpec spec;
  spec.dynamics = "undecided";
  spec.n = 4096;
  spec.k = 8;
  io::write_json_file(path, spec.to_json());
  const ScenarioSpec loaded = ScenarioSpec::from_json_file(path);
  EXPECT_EQ(loaded.to_spec_string(), spec.to_spec_string());
  std::remove(path.c_str());
}

TEST(ScenarioSpec, ValidationCatchesEveryAxis) {
  const auto invalid = [](auto&& mutate) {
    ScenarioSpec spec;
    spec.n = 900;  // perfect square, so torus specs can pass when wanted
    spec.k = 3;
    mutate(spec);
    return spec;
  };
  // Scalars.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.n = 0; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.k = 1; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.k = 901; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.trials = 0; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.max_rounds = 0; }).validate(), CheckError);
  // Registry names.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.dynamics = "4-majority"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.workload = "flat"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "hypercube"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.adversary = "byzantine:3"; }).validate(),
               CheckError);
  // Topology/workload shape constraints.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "torus:10x10"; }).validate(),
               CheckError);  // 100 != 900
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.n = 901;  // odd * odd degree
                 s.topology = "regular:3";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "er:1.5"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.workload = "theorem3:10";
                 s.k = 4;  // theorem3 forces k = 3
               }).validate(),
               CheckError);
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) {
                    s.workload = "theorem3:10";
                    s.k = 3;
                  }).validate());
  // Backend/engine/adversary/stop combinations.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.backend = "gpu"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.engine = "turbo"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "count";
                 s.topology = "ring";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "agent";
                 s.engine = "batched";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "agent";
                 s.adversary = "random:5";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "sometime"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "graph";
                 s.topology = "ring";
                 s.stop = "m-plurality:50";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "any-reaches:1000000"; }).validate(),
               CheckError);  // threshold > n
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:50"; }).validate());
}

TEST(ScenarioSpec, AutoResolvedAgentConstraintsApply) {
  // backend=auto routing to the agent backend must enforce the same
  // constraints as an explicit backend=agent — otherwise the spec passes
  // validation and the driver's own check fires inside the parallel trial
  // loop, which aborts the process without a message.
  ScenarioSpec spec;
  spec.dynamics = "20-plurality";  // no exact law at k = 16 -> auto resolves to agent
  spec.k = 16;
  spec.n = 2000;
  spec.adversary = "random:10";
  EXPECT_THROW(spec.validate(), CheckError);
  spec.adversary = "none";
  EXPECT_NO_THROW(spec.validate());
  // Under the batched engine auto resolves to the graph clique instead,
  // which does host adversaries.
  spec.engine = "batched";
  spec.adversary = "random:10";
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_backend(), "graph");
}

TEST(ScenarioSpec, ResolvedBackend) {
  ScenarioSpec spec;
  spec.n = 2000;
  spec.k = 3;
  EXPECT_EQ(spec.resolved_backend(), "count");  // clique + exact law

  spec.topology = "regular:8";
  EXPECT_EQ(spec.resolved_backend(), "graph");  // sparse topology

  spec.topology = "clique";
  spec.dynamics = "20-plurality";  // C(35, 20) law terms at k = 16: no exact law
  spec.k = 16;
  EXPECT_EQ(spec.resolved_backend(), "agent");
  spec.engine = "batched";  // the agent backend cannot batch; the graph clique can
  EXPECT_EQ(spec.resolved_backend(), "graph");

  spec.engine = "strict";
  spec.backend = "graph";  // explicit backends pass through
  EXPECT_EQ(spec.resolved_backend(), "graph");
}

TEST(ScenarioSpec, StopConditionParses) {
  EXPECT_EQ(parse_stop_condition("consensus").kind, StopCondition::Kind::Consensus);
  const StopCondition m = parse_stop_condition("m-plurality:128");
  EXPECT_EQ(m.kind, StopCondition::Kind::MPlurality);
  EXPECT_EQ(m.value, 128u);
  const StopCondition t = parse_stop_condition("any-reaches:1e4");
  EXPECT_EQ(t.kind, StopCondition::Kind::AnyReaches);
  EXPECT_EQ(t.value, 10000u);
  EXPECT_THROW(parse_stop_condition("whenever"), CheckError);
  EXPECT_THROW(parse_stop_condition("any-reaches:soon"), CheckError);
}

TEST(ScenarioSpec, TuningKnobsRoundTripAndAreBounded) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("topology=regular:8 tile_nodes=512 prefetch_distance=32");
  EXPECT_EQ(spec.tile_nodes, 512u);
  EXPECT_EQ(spec.prefetch_distance, 32u);
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_spec_string());
  EXPECT_EQ(reparsed.tile_nodes, 512u);
  EXPECT_EQ(reparsed.prefetch_distance, 32u);
  const ScenarioSpec rejsoned = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(rejsoned.tile_nodes, 512u);
  EXPECT_EQ(rejsoned.prefetch_distance, 32u);
  // Defaults: derived tile, the measured prefetch sweet spot.
  const ScenarioSpec def;
  EXPECT_EQ(def.tile_nodes, 0u);
  EXPECT_EQ(def.prefetch_distance, 16u);
  ScenarioSpec::parse("tile_nodes=8192 prefetch_distance=1024").validate();
  expect_rejects("tile_nodes=8193", "tile_nodes");
  expect_rejects("prefetch_distance=1025", "prefetch_distance");
}

TEST(ScenarioSpec, GraphLayoutFieldWasRemoved) {
  // Every value but "identity" fails at parse, naming the removal.
  for (const char* text : {"topology=regular:8 graph_layout=rcm",
                           "topology=regular:8 graph_layout=auto",
                           "topology=torus n=10000 graph_layout=hilbert"}) {
    expect_rejects(text, "removed");
  }
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"graph_layout": "auto"})")),
               CheckError);
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"graph_layout": 1})")),
               CheckError);
  // "identity" names what every run does: accepted and dropped, so the
  // spec is the plain one and the field is never echoed.
  const ScenarioSpec identity =
      ScenarioSpec::parse("topology=regular:8 graph_layout=identity");
  EXPECT_NO_THROW(identity.validate());
  EXPECT_EQ(identity.to_spec_string(),
            ScenarioSpec::parse("topology=regular:8").to_spec_string());
  EXPECT_EQ(identity.to_spec_string().find("graph_layout"), std::string::npos);
  EXPECT_EQ(identity.to_json().to_string().find("graph_layout"), std::string::npos);
  const ScenarioSpec from_json =
      ScenarioSpec::from_json(io::parse_json(R"({"graph_layout": "identity"})"));
  EXPECT_EQ(from_json.to_spec_string(), ScenarioSpec().to_spec_string());
  // shuffle_layout=false no longer contradicts anything on sparse graphs.
  EXPECT_NO_THROW(ScenarioSpec::parse("topology=regular:8 shuffle_layout=false").validate());
}

TEST(ScenarioSpec, PushEngineGating) {
  // The happy path: arity-1 dynamics on the graph backend.
  ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=regular:8").validate();
  ScenarioSpec::parse("engine=push dynamics=undecided topology=torus n=10000").validate();
  // Push on the clique auto-routes to the graph engine (the implicit
  // complete graph), never to count/agent.
  EXPECT_EQ(ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=clique")
                .resolved_backend(),
            "graph");
  // Arity >= 2 rules have no scatter formulation.
  expect_rejects("engine=push dynamics=3-majority topology=regular:8", "arity-1");
  // Explicit non-graph backends cannot run it.
  expect_rejects("engine=push dynamics=voter k=2 topology=clique backend=count",
                 "backend");
  expect_rejects("engine=push dynamics=voter k=2 topology=clique backend=agent",
                 "backend");
  // The pair buffer packs two u32 ids per word.
  ScenarioSpec big = ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=gossip");
  big.n = 8589934592ULL;  // 2^33
  EXPECT_THROW(big.validate(), CheckError);
  // Unknown engine names still say what IS known.
  expect_rejects("engine=scatter", "push");
}

TEST(ScenarioSpec, PushWithTuningCompilesAndRuns) {
  const ScenarioResult result = run_scenario(ScenarioSpec::parse(
      "dynamics=voter k=2 topology=regular:8 n=2000 trials=3 engine=push "
      "tile_nodes=256 prefetch_distance=8 max_rounds=40000"));
  EXPECT_EQ(result.resolved.backend, "graph");
  EXPECT_EQ(result.resolved.topology_backend, "arena");
  EXPECT_EQ(result.summary.trials, 3u);
}

}  // namespace
}  // namespace plurality::scenario
