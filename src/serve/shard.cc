#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "serve/retry_policy.h"

namespace spate {

Shard::Shard(size_t index, const SpateOptions& options,
             const std::vector<Record>& cell_rows, const ShardTuning& tuning)
    : index_(index),
      tuning_(tuning),
      framework_(std::make_unique<SpateFramework>(options, cell_rows)),
      scheduler_(framework_.get()),
      breaker_(tuning.breaker),
      jitter_(tuning.seed ^ (0x9e3779b97f4a7c15ull * (index + 1))),
      pool_(std::max(1, tuning.workers),
            ThreadPool::Options{tuning.queue_capacity}) {}

Status Shard::Ingest(const Snapshot& snapshot) {
  // The mirror summary is computed up front on the calling thread — pure
  // function of the sub-snapshot, no framework involved.
  NodeSummary summary;
  summary.AddSnapshot(snapshot);

  // Exclusive scheduler section: every in-flight query drains (writer
  // priority holds off new ones), then the framework is quiescent for the
  // ingest. Queued-but-unstarted queries simply run afterwards.
  Timestamp ingested_until = INT64_MIN;
  const Status status = scheduler_.RunExclusive([&] {
    const Status ingested = framework_->Ingest(snapshot);
    // Still inside the section, so no query can read a cached answer the
    // ingest's decay just invalidated, nor insert one computed before it.
    cache_.SetDecayedUntil(framework_->index().decayed_until());
    ingested_until = framework_->index().newest_epoch() + kEpochSeconds;
    return ingested;
  });
  if (status.ok()) {
    MutexLock lock(&mu_);
    mirror_[snapshot.epoch_start] = std::move(summary);
    ingested_until_ = ingested_until;
  }
  return status;
}

Status Shard::Dispatch(
    const ExplorationQuery& query, std::shared_ptr<CancelToken> cancel,
    std::function<void(Result<QueryResult>, int retries)> on_done) {
  MutexLock lock(&mu_);
  // Before the breaker reserves a probe slot: an injected dispatch failure
  // is a fast-fail the gather resolves on the dispatching thread, with no
  // breaker or queue state to roll back.
  SPATE_FAILPOINT("serve.shard.dispatch");
  if (!breaker_.Allow(SteadySeconds())) {
    ++short_circuits_;
    return Status::Unavailable("shard " + std::to_string(index_) +
                               ": circuit breaker open");
  }
  // TrySubmit under Shard.mu: the declared (and observed) Shard.mu ->
  // ThreadPool.mu edge. Rejection must roll back a half-open breaker's
  // probe reservation, or the probe slot would leak and wedge the breaker.
  const bool queued = pool_.TrySubmit(
      [this, query, cancel = std::move(cancel),
       on_done = std::move(on_done)]() mutable {
        RunQuery(query, std::move(cancel), std::move(on_done));
      });
  if (!queued) {
    ++queue_rejections_;
    breaker_.CancelProbe();
    return Status::ResourceExhausted("shard " + std::to_string(index_) +
                                     ": request queue full");
  }
  return Status::OK();
}

void Shard::RunQuery(
    const ExplorationQuery& query, std::shared_ptr<CancelToken> cancel,
    std::function<void(Result<QueryResult>, int retries)> on_done) {
  // Only an answer whose window ends by the newest ingested epoch may be
  // cached: later ingests add no rows to it. Read before the query runs —
  // an ingest racing with it can only leave this bound too low, never let
  // a window that is still growing in.
  Timestamp ingested_until;
  {
    MutexLock lock(&mu_);
    ingested_until = ingested_until_;
  }
  Status failure = Status::Internal("shard retry loop made no attempt");
  int retries = 0;
  for (int attempt = 0; attempt < std::max(1, tuning_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff, truncated to the remaining deadline
      // budget (sleeping past the deadline would only delay the verdict).
      double backoff = tuning_.backoff_base_seconds;
      for (int i = 1; i < attempt; ++i) backoff *= 2;
      backoff = std::min(backoff, tuning_.backoff_max_seconds);
      {
        MutexLock lock(&mu_);
        backoff *= 0.5 + 0.5 * jitter_.NextDouble();
      }
      backoff = std::min(backoff, cancel->RemainingSeconds());
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      ++retries;
      MutexLock lock(&mu_);
      ++retries_;
    }
    const Status live = cancel->Check();
    if (!live.ok()) {
      failure = live;
      break;
    }
    // Whole-result cache first (internally synchronized), then the shared
    // scan: overlapping concurrent queries on this shard ride one leaf
    // pass, and a waiter whose deadline expires detaches without
    // cancelling it. `pass_bytes_decoded` (the whole pass's decode cost,
    // an upper bound on this query's own) prices the cache insert.
    SharedExecInfo info;
    std::optional<QueryResult> cached =
        cache_.Lookup(query, framework_->cells());
    Result<QueryResult> result =
        cached.has_value() ? Result<QueryResult>(*std::move(cached))
                           : scheduler_.Execute(query, cancel.get(), &info);
    if (!cached.has_value() && result.ok() && result->exact &&
        query.window_end <= ingested_until) {
      cache_.Insert(query, *result, info.pass_bytes_decoded);
    }
    {
      MutexLock lock(&mu_);
      ++executed_;
    }
    if (result.ok()) {
      {
        MutexLock lock(&mu_);
        breaker_.RecordSuccess();
      }
      on_done(std::move(result), retries);
      return;
    }
    failure = result.status();
    if (BreakerCountsFailure(failure)) {
      // Per-shard timeout or unreachable storage: the breaker's food
      // (serve/retry_policy.h owns the classification).
      MutexLock lock(&mu_);
      breaker_.RecordFailure(SteadySeconds());
    }
    if (!RetryableFailure(failure)) break;
  }
  on_done(Result<QueryResult>(failure), retries);
}

QueryResult Shard::HighlightFallback(const ExplorationQuery& query,
                                     const CellDirectory& cells) const {
  NodeSummary merged;
  {
    MutexLock lock(&mu_);
    ++fallbacks_;
    // std::map iterates in key (timestamp) order — the float-stable merge
    // order every roll-up in the codebase uses.
    for (auto it = mirror_.lower_bound(TruncateToEpoch(query.window_begin));
         it != mirror_.end() && it->first < query.window_end; ++it) {
      merged.Merge(it->second);
    }
  }
  QueryResult result;
  result.exact = false;
  result.degraded = true;
  result.served_from = IndexLevel::kEpoch;
  result.summary = RestrictSummaryToBox(merged, query, cells);
  result.highlights =
      result.summary.ExtractHighlights(HighlightThreshold(result.served_from));
  return result;
}

ShardStats Shard::Stats() const {
  ShardStats stats;
  // The cache, scheduler and fragment cache are internally synchronized —
  // read them *outside* Shard.mu so those leaf mutexes never nest under it.
  stats.cache = cache_.stats();
  stats.scheduler = scheduler_.stats();
  if (framework_->fragment_cache() != nullptr) {
    stats.fragments = framework_->fragment_cache()->stats();
  }
  MutexLock lock(&mu_);
  stats.breaker_state = breaker_.state();
  stats.breaker_trips = breaker_.trips();
  stats.short_circuits = short_circuits_;
  stats.queue_rejections = queue_rejections_;
  stats.executed = executed_;
  stats.retries = retries_;
  stats.fallbacks = fallbacks_;
  return stats;
}

}  // namespace spate
