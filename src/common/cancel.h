#ifndef SPATE_COMMON_CANCEL_H_
#define SPATE_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <limits>

#include "common/status.h"

namespace spate {

/// Monotonic wall-clock seconds (steady clock). The serving tier's deadline
/// arithmetic, token buckets and circuit-breaker cooldowns all run on this
/// clock; the *data* timestamps (`Timestamp`, epoch seconds) are a separate
/// notion and never mix with it.
inline double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cooperative cancellation + deadline token, threaded from the serving
/// front-end down into the leaf decode loops of `Framework::Scan` (it
/// travels in the scan's `QueryContext`).
///
/// A token expires when either (a) `Cancel()` was called — the gather gave
/// up on this request, the client disconnected — or (b) its deadline on the
/// steady clock passed. Work in progress checks `Check()` at its natural
/// yield points (between leaf decodes, between retry attempts) and unwinds
/// with `kDeadlineExceeded`; nothing is interrupted mid-operation, so every
/// observed state stays consistent.
///
/// Thread-safety: fully thread-safe and lock-free — two atomics. Any number
/// of workers may poll while the front-end cancels. The token must outlive
/// every reader (the serving tier keeps it in the request's shared scatter
/// state, which the last finishing shard task releases).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms the deadline at `SteadySeconds() + seconds` from now.
  void SetDeadlineAfter(double seconds) {
    deadline_.store(SteadySeconds() + seconds, std::memory_order_relaxed);
  }

  /// Explicit cancellation (idempotent).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True once cancelled or past the deadline.
  bool Expired() const {
    if (cancelled()) return true;
    const double deadline = deadline_.load(std::memory_order_relaxed);
    return deadline > 0 && SteadySeconds() >= deadline;
  }

  /// OK while live; `kDeadlineExceeded` once expired (the message says
  /// whether cancellation or the clock killed it).
  Status Check() const {
    if (cancelled()) return Status::DeadlineExceeded("cancelled");
    const double deadline = deadline_.load(std::memory_order_relaxed);
    if (deadline > 0 && SteadySeconds() >= deadline) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

  /// Seconds until the deadline (+inf when none is armed, <= 0 when past
  /// it or cancelled). Retry loops consult this before sleeping a backoff.
  double RemainingSeconds() const {
    if (cancelled()) return 0;
    const double deadline = deadline_.load(std::memory_order_relaxed);
    if (deadline <= 0) return std::numeric_limits<double>::infinity();
    return deadline - SteadySeconds();
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock seconds; 0 = no deadline armed.
  std::atomic<double> deadline_{0};
};

}  // namespace spate

#endif  // SPATE_COMMON_CANCEL_H_
