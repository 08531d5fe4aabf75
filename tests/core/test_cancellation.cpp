// Cooperative cancellation contract: tokens are checked between rounds on
// every driver, CancelledError is thrown only after parallel regions join,
// an unfired token is a bitwise no-op, and the reason taxonomy survives
// racing causes.
#include "support/cancellation.hpp"

#include <gtest/gtest.h>

#include "core/observer.hpp"
#include "core/trials.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace plurality {
namespace {

using scenario::ScenarioSpec;

ScenarioSpec slow_spec(const std::string& backend) {
  // boost-runner-up with a budget that forbids consensus: the run can ONLY
  // end via the round cap — or a cancellation, long before it.
  ScenarioSpec spec = ScenarioSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 k=3 trials=4 "
      "max_rounds=200000 seed=11 adversary=boost-runner-up:50");
  spec.backend = backend;
  if (backend == "graph") spec.topology = "regular:8";
  return spec;
}

/// Cancels the token once any trial reaches `fire_round` — a deterministic
/// stand-in for the watchdog (no wall clocks in unit tests).
class CancelAtRound : public RoundObserver {
 public:
  CancelAtRound(CancellationToken* token, round_t fire_round,
                CancellationToken::Reason reason)
      : token_(token), fire_round_(fire_round), reason_(reason) {}

  void begin_trial(std::uint64_t, const Configuration&, state_t) override {}
  void observe_round(std::uint64_t, round_t round, const Configuration&,
                     state_t) override {
    if (round >= fire_round_) token_->cancel(reason_);
  }
  void end_trial(std::uint64_t, StopReason, round_t, const Configuration&,
                 state_t) override {}

 private:
  CancellationToken* token_;
  round_t fire_round_;
  CancellationToken::Reason reason_;
};

TEST(CancellationToken, FirstReasonWins) {
  CancellationToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), CancellationToken::Reason::kNone);
  token.cancel(CancellationToken::Reason::kDeadline);
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), CancellationToken::Reason::kDeadline);
  // A later shutdown cannot overwrite the verdict (stable taxonomy).
  token.cancel(CancellationToken::Reason::kShutdown);
  EXPECT_EQ(token.reason(), CancellationToken::Reason::kDeadline);
  token.reset();
  EXPECT_FALSE(token.stop_requested());
  token.cancel(CancellationToken::Reason::kShutdown);
  EXPECT_EQ(token.reason(), CancellationToken::Reason::kShutdown);
}

TEST(Cancellation, PreCancelledTokenStopsEveryBackendImmediately) {
  for (const char* backend : {"count", "graph"}) {
    SCOPED_TRACE(backend);
    CancellationToken token;
    token.cancel(CancellationToken::Reason::kDeadline);
    try {
      (void)scenario::run_scenario(slow_spec(backend), nullptr, &token);
      FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancellationToken::Reason::kDeadline);
    }
  }
}

TEST(Cancellation, MidRunCancelThrowsAfterTheRegionJoins) {
  for (const char* backend : {"count", "graph"}) {
    SCOPED_TRACE(backend);
    CancellationToken token;
    CancelAtRound trigger(&token, 2, CancellationToken::Reason::kShutdown);
    try {
      (void)scenario::run_scenario(slow_spec(backend), &trigger, &token);
      FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancellationToken::Reason::kShutdown);
    }
  }
}

TEST(Cancellation, UnfiredTokenIsABitwiseNoOp) {
  // Threading a token that never fires must not change a single sample —
  // the cancellation check is a pure read on the hot path.
  for (const char* backend : {"count", "graph"}) {
    SCOPED_TRACE(backend);
    ScenarioSpec spec = ScenarioSpec::parse(
        "dynamics=3-majority workload=bias:2c n=2000 k=4 trials=6 max_rounds=5000 "
        "seed=7");
    spec.backend = backend;
    if (std::string(backend) == "graph") spec.topology = "regular:8";
    CancellationToken token;
    const scenario::ScenarioResult with = scenario::run_scenario(spec, nullptr, &token);
    const scenario::ScenarioResult without = scenario::run_scenario(spec);
    EXPECT_FALSE(token.stop_requested());
    EXPECT_EQ(with.summary.plurality_wins, without.summary.plurality_wins);
    EXPECT_EQ(with.summary.rounds.count(), without.summary.rounds.count());
    ASSERT_EQ(with.summary.round_samples.size(), without.summary.round_samples.size());
    for (std::size_t i = 0; i < without.summary.round_samples.size(); ++i) {
      EXPECT_EQ(with.summary.round_samples[i], without.summary.round_samples[i]);
    }
  }
}

TEST(Cancellation, CancelledRunsProduceNoSummary) {
  // A cancelled run's partial results are discarded by construction —
  // nothing reaches the caller except the exception.
  CancellationToken token;
  CancelAtRound trigger(&token, 3, CancellationToken::Reason::kDeadline);
  EXPECT_THROW((void)scenario::run_scenario(slow_spec("count"), &trigger, &token),
               CancelledError);
}

}  // namespace
}  // namespace plurality
