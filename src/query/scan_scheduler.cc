#include "query/scan_scheduler.h"

#include "common/failpoint.h"

namespace spate {

namespace {

/// Polling slice while a cancel-holding caller parks: short enough to
/// notice a deadline promptly, long enough not to spin.
constexpr double kCancelPollSeconds = 0.02;
/// Floor on a timed wait (a non-positive WaitFor would busy-loop).
constexpr double kMinWaitSeconds = 0.001;

}  // namespace

Status ScanScheduler::AcquireQueryLeaseLocked(const CancelToken* cancel) {
  // Writer priority: a waiting exclusive section blocks *new* leases (so
  // ingest cannot starve behind a query stream) while existing holders
  // drain unimpeded.
  while (exclusive_ || writers_waiting_ > 0) {
    if (cancel != nullptr) {
      const Status s = cancel->Check();
      if (!s.ok()) return s;
    }
    ParkLocked(cancel);
  }
  ++active_queries_;
  return Status::OK();
}

void ScanScheduler::ParkLocked(const CancelToken* cancel) {
  if (cancel == nullptr) {
    cv_.Wait(&mu_);
    return;
  }
  double slice = kCancelPollSeconds;
  const double remaining = cancel->RemainingSeconds();
  if (remaining < slice) slice = remaining;
  if (slice < kMinWaitSeconds) slice = kMinWaitSeconds;
  cv_.WaitFor(&mu_, slice);
}

Result<QueryResult> ScanScheduler::Execute(const ExplorationQuery& query,
                                           QueryContext* ctx) {
  const CancelToken* const cancel = ctx->cancel;
  // A request that arrives already expired must not touch storage at all.
  if (cancel != nullptr) SPATE_RETURN_IF_ERROR(cancel->Check());
  {
    MutexLock lock(&mu_);
    SPATE_RETURN_IF_ERROR(AcquireQueryLeaseLocked(cancel));
  }
  // The lease fences mutators out, so the window's resolution holds for
  // the whole read: a decayed window answers from summaries, with no leaf
  // read behind the failpoint.
  const bool exact =
      query.window_begin < query.window_end &&
      framework_->index().WindowFullyResolved(query.window_begin,
                                              query.window_end);
  const ScanStats before = ctx->stats;
  Status injected;
  if (exact) SPATE_FAILPOINT_INJECT("query.scan_scheduler.read", injected);
  Result<QueryResult> result = injected.ok()
                                   ? framework_->Execute(query, ctx)
                                   : Result<QueryResult>(injected);
  const ScanStats& scan = ctx->stats;
  {
    MutexLock lock(&mu_);
    --active_queries_;
    if (exact) {
      ++stats_.passes_started;
    } else {
      ++stats_.summary_answers;
    }
    if (cancel != nullptr && !result.ok() &&
        result.status().IsDeadlineExceeded()) {
      ++stats_.waiters_detached;
    }
    stats_.leaves_folded += scan.leaves_scanned - before.leaves_scanned;
    stats_.bytes_decoded += scan.bytes_decoded - before.bytes_decoded;
    stats_.fragment_hits += scan.fragment_hits - before.fragment_hits;
    stats_.bytes_decoded_saved +=
        scan.bytes_decoded_saved - before.bytes_decoded_saved;
  }
  // A draining writer may be waiting for this lease.
  cv_.NotifyAll();
  return result;
}

Status ScanScheduler::RunExclusive(const std::function<Status()>& fn) {
  mu_.Lock();
  ++writers_waiting_;
  // Leases cover every in-flight query (exact reads and summary answers
  // alike), so draining them quiesces the framework. `writers_waiting_`
  // holds off new leases meanwhile — mutators cannot starve.
  while (exclusive_ || active_queries_ > 0) cv_.Wait(&mu_);
  --writers_waiting_;
  exclusive_ = true;
  ++stats_.exclusive_runs;
  mu_.Unlock();
  const Status status = fn();
  mu_.Lock();
  exclusive_ = false;
  mu_.Unlock();
  cv_.NotifyAll();
  return status;
}

ScanSchedulerStats ScanScheduler::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace spate
