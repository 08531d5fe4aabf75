// Cooperative cancellation for long-running trial drivers.
//
// A sweep cell that hangs (pathological spec, injected fault, adversary
// that forbids consensus under a huge round cap) must not stall the whole
// grid forever. The contract is cooperative: every trial driver
// (run_dynamics on the count path, graph::run_graph_trials) loads
// one relaxed atomic between rounds — the cheapest possible check, no
// clock reads on the hot path — and an external watchdog (sweep/watchdog.hpp)
// owns the clock, firing tokens whose wall-clock deadline passed and
// propagating process-wide shutdown requests.
//
// Cancellation is deliberately NOT an exception inside the round loop:
// trial bodies execute inside OpenMP regions where an escaping exception
// is fatal. A cancelled run stops at the next round boundary with
// StopReason::Cancelled; the trial driver then throws CancelledError
// *after* joining its parallel region, where unwinding is safe. Results of
// a cancelled run are discarded by construction — a partial summary would
// not be reproducible, and reproducibility is this library's product.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace plurality {

class CancellationToken {
 public:
  /// Why the token fired. The FIRST cancel wins: a shutdown arriving after
  /// a deadline fired keeps the deadline verdict (and vice versa), so the
  /// failure taxonomy is stable under racing causes.
  enum class Reason : std::uint32_t {
    kNone = 0,
    kDeadline = 1,   // per-cell wall-clock budget exhausted (watchdog)
    kShutdown = 2,   // SIGINT/SIGTERM graceful-shutdown request
    kLeaseLost = 3,  // sweep service: the master reassigned this cell's
                     // lease (missed heartbeats); the result would be
                     // discarded, so stop burning cycles on it
  };

  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Safe from any thread; first reason sticks.
  void cancel(Reason reason) {
    std::uint32_t expected = 0;
    state_.compare_exchange_strong(expected, static_cast<std::uint32_t>(reason),
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  }

  /// The hot-path check — one relaxed atomic load.
  [[nodiscard]] bool stop_requested() const {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] Reason reason() const {
    return static_cast<Reason>(state_.load(std::memory_order_acquire));
  }

  /// Re-arms the token for another attempt (the retry loop reuses one
  /// token per cell). Only the owning cell runner may call this, and only
  /// while no driver is consuming the token.
  void reset() { state_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint32_t> state_{0};
};

/// Thrown by trial drivers (outside their parallel regions) when a token
/// fired mid-run. `reason()` feeds the sweep layer's failure taxonomy
/// (kDeadline -> failed_timeout; kShutdown -> interrupted, not a failure).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancellationToken::Reason reason)
      : std::runtime_error(reason == CancellationToken::Reason::kDeadline
                               ? "run cancelled: wall-clock deadline exceeded"
                           : reason == CancellationToken::Reason::kLeaseLost
                               ? "run cancelled: lease expired and was reassigned"
                               : "run cancelled: shutdown requested"),
        reason_(reason) {}

  [[nodiscard]] CancellationToken::Reason reason() const { return reason_; }

 private:
  CancellationToken::Reason reason_;
};

}  // namespace plurality
