// Cooperative time bounds and cancellation for solve sessions.
//
// A production service cannot let one solve run forever: a caller times out,
// or a request is abandoned. The solver has no preemption — kernels are plain
// loops — so bounding a solve means the executors *check* a shared control
// object at natural boundaries (step, wave, level-set group, row chunk) and
// unwind cooperatively, leaving partial results behind and a typed Status
// (kDeadlineExceeded / kCancelled) in front.
//
// Three layers:
//   * Deadline / CancelToken — what the caller hands in (SolveControls).
//   * ExecControl — the per-solve object the executors poll. check() is the
//     hot-path primitive: one relaxed atomic load when nothing is armed, a
//     steady_clock read only when a deadline is actually set, so an
//     unarmed solve pays (almost) nothing for the machinery.
//   * trip() — first failure wins; every thread of a parallel kernel sees
//     the tripped flag and bails, so one expired deadline stops the whole
//     fork-join wave.
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "common/status.hpp"

namespace blocktri {

/// Absolute point in time after which a solve should stop. Default
/// constructed = unlimited (no clock is ever read for it).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // unlimited

  static Deadline unlimited() { return Deadline(); }

  /// Deadline `ms` milliseconds from now. Non-positive and NaN budgets are
  /// already expired at arm (deterministically — no clock arithmetic, so a
  /// huge negative value cannot wrap into the far future), and budgets
  /// beyond the clock's representable range (including +inf) are pinned at
  /// time_point::max() — armed but effectively never expiring — instead of
  /// overflowing the integer duration_cast into the past.
  static Deadline after_ms(double ms) {
    Deadline d;
    d.armed_ = true;
    if (!(ms > 0.0)) {  // <= 0 or NaN: expired before the solve starts
      d.at_ = Clock::time_point::min();
      return d;
    }
    const auto now = Clock::now();
    const double headroom_ms =
        std::chrono::duration<double, std::milli>(Clock::time_point::max() -
                                                  now)
            .count();
    // Half the headroom (~146 years on a nanosecond steady_clock) keeps the
    // double → integer cast below clear of the 2^63 rounding boundary.
    if (!(ms < headroom_ms * 0.5)) {  // also catches +inf
      d.at_ = Clock::time_point::max();
      return d;
    }
    d.at_ = now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  static Deadline at(Clock::time_point tp) {
    Deadline d;
    d.armed_ = true;
    d.at_ = tp;
    return d;
  }

  bool unlimited_deadline() const { return !armed_; }
  bool expired() const { return armed_ && Clock::now() >= at_; }
  Clock::time_point time_point() const { return at_; }

 private:
  bool armed_ = false;
  Clock::time_point at_{};
};

/// Cross-thread cancellation flag: one thread calls cancel(), the solving
/// thread observes it at the next executor checkpoint. Reusable — reset()
/// re-arms the token for the next solve.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }
  void reset() { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Per-call controls a caller attaches to a solve. All fields optional; the
/// default is an unbounded, uncancellable solve — behaviourally identical to
/// the pre-session API.
struct SolveControls {
  Deadline deadline;
  const CancelToken* cancel = nullptr;
};

/// The object the executors poll. One per solve call, stack-allocated by the
/// solver; kernels receive `const ExecControl*` (nullptr = legacy direct
/// kernel call, nothing to check). Thread safe: parallel kernel bodies call
/// check()/tripped() concurrently and any of them may trip() first.
class ExecControl {
 public:
  ExecControl() : ExecControl(SolveControls{}) {}
  explicit ExecControl(const SolveControls& c)
      : deadline_(c.deadline), cancel_(c.cancel) {}

  /// True while the solve may continue. Trips (and returns false) when the
  /// cancel token fired or the deadline expired. The unarmed fast path is a
  /// single relaxed load.
  bool check() const {
    if (tripped_.load(std::memory_order_relaxed) != 0) return false;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      trip(StatusCode::kCancelled);
      return false;
    }
    if (deadline_.expired()) {
      trip(StatusCode::kDeadlineExceeded);
      return false;
    }
    return true;
  }

  /// True when a deadline or cancel token is attached — executors that would
  /// restructure a loop (e.g. chunk a flat kernel pass) to poll more often
  /// only do so when something is actually armed.
  bool armed() const {
    return cancel_ != nullptr || !deadline_.unlimited_deadline();
  }

  /// Records the first failure; later trips are ignored (first wins).
  void trip(StatusCode code) const {
    int expected = 0;
    tripped_.compare_exchange_strong(expected, static_cast<int>(code),
                                     std::memory_order_relaxed);
  }

  bool tripped() const {
    return tripped_.load(std::memory_order_relaxed) != 0;
  }

  StatusCode reason() const {
    return static_cast<StatusCode>(tripped_.load(std::memory_order_relaxed));
  }

  /// The armed deadline/cancel token, for machinery that must wait *before*
  /// the solve runs (e.g. a blocking workspace acquisition) and still honour
  /// the caller's controls.
  const Deadline& deadline() const { return deadline_; }
  const CancelToken* cancel() const { return cancel_; }

  /// The tripped reason as a Status (kInternal if nothing tripped —
  /// callers only build a status after observing tripped()).
  Status to_status(const std::string& context) const {
    const StatusCode code = reason();
    switch (code) {
      case StatusCode::kCancelled:
        return Status(code, "solve cancelled " + context);
      case StatusCode::kDeadlineExceeded:
        return Status(code, "deadline exceeded " + context);
      default:
        return Status(StatusCode::kInternal,
                      "ExecControl::to_status without a tripped reason " +
                          context);
    }
  }

 private:
  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  // 0 = running; otherwise the StatusCode of the first failure.
  mutable std::atomic<int> tripped_{0};
};

}  // namespace blocktri
