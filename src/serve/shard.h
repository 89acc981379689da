#ifndef SPATE_SERVE_SHARD_H_
#define SPATE_SERVE_SHARD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/spate_framework.h"
#include "query/result_cache.h"
#include "query/scan_scheduler.h"
#include "serve/breaker.h"

namespace spate {

/// Retry/backpressure tuning shared by every shard of a server.
struct ShardTuning {
  /// Bound of the shard's request queue: dispatches beyond it are refused
  /// with `kResourceExhausted` (backpressure surfaces instead of backlog).
  size_t queue_capacity = 8;
  /// Total attempts per request (1 = no retries).
  int max_attempts = 3;
  /// Jittered exponential backoff between attempts: the sleep before
  /// attempt k is `min(base * 2^(k-1), max) * U[0.5, 1)`.
  double backoff_base_seconds = 0.002;
  double backoff_max_seconds = 0.050;
  BreakerOptions breaker;
  /// Seed of the shard's backoff-jitter Rng (mixed with the shard index).
  uint64_t seed = 0x5ba7e;
  /// Worker threads per shard. 1 (the default) keeps today's behavior —
  /// one query at a time per shard. More workers run queries concurrently
  /// *through the shard's `ScanScheduler`*, which merges overlapping
  /// windows into shared leaf passes (the framework itself still sees one
  /// scan at a time).
  int workers = 1;
};

/// Counters the `serve-stats` CLI prints per shard.
struct ShardStats {
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  uint64_t breaker_trips = 0;
  /// Dispatches refused because the breaker was open.
  uint64_t short_circuits = 0;
  /// Dispatches refused because the bounded queue was full.
  uint64_t queue_rejections = 0;
  uint64_t executed = 0;
  uint64_t retries = 0;
  /// Highlight-only fallback answers served for this shard.
  uint64_t fallbacks = 0;
  ResultCache::CacheStats cache;
  /// Shared-scan scheduler counters (passes, joins, detaches, bytes).
  ScanSchedulerStats scheduler;
  /// Decoded-fragment cache counters (zero when the shard's
  /// `SpateOptions::fragment_cache_bytes` is 0).
  FragmentCacheStats fragments;
};

/// One shard of the serving tier: a `SpateFramework` owning the hash-slice
/// of cells assigned to it (its own DFS namespace, temporal index and
/// result cache), behind a bounded `ThreadPool` of `ShardTuning::workers`
/// threads.
///
/// The framework's surface is externally synchronized; the shard's
/// `ScanScheduler` *is* that synchronization: every query runs through
/// `scheduler_.Execute` (which merges concurrent overlapping windows into
/// one shared leaf pass — with one worker that degenerates to today's
/// serial behavior) and every ingest through `scheduler_.RunExclusive`.
/// The bounded queue is the shard's backpressure.
/// Around that core the shard keeps a thin thread-safe shell —
/// mutex rank "Shard.mu" — guarding only the circuit breaker, the counters
/// and a per-epoch highlight-summary mirror. The mirror is what makes
/// graceful degradation non-blocking: when the breaker is open or the
/// deadline is spent, `HighlightFallback` answers from it without touching
/// the (possibly wedged) worker at all. "Shard.mu" is never held across a
/// framework call.
class Shard {
 public:
  Shard(size_t index, const SpateOptions& options,
        const std::vector<Record>& cell_rows, const ShardTuning& tuning);

  size_t index() const { return index_; }

  /// Ingests one sub-snapshot (this shard's rows of an epoch) as an
  /// exclusive scheduler section on the calling thread: in-flight queries
  /// drain first (writer priority — new arrivals hold off), then the
  /// framework ingests quiescently and the result cache learns the new
  /// decay horizon. Also folds the sub-snapshot's summary into the
  /// highlight mirror.
  Status Ingest(const Snapshot& snapshot) EXCLUDES(mu_);

  /// Asynchronously evaluates `query` on the shard worker with retry +
  /// backoff, invoking `on_done(result, retries)` exactly once from the
  /// worker thread. Fails fast — without calling `on_done` — with
  /// `kUnavailable` when the circuit breaker refuses the shard, or
  /// `kResourceExhausted` when the bounded queue is full; the caller then
  /// degrades or sheds. `cancel` bounds the work: it is checked between
  /// attempts and threaded into the framework's leaf decode loops.
  Status Dispatch(
      const ExplorationQuery& query, std::shared_ptr<CancelToken> cancel,
      std::function<void(Result<QueryResult>, int retries)> on_done)
      EXCLUDES(mu_);

  /// Highlight-only answer for `query` from the mirror: the in-window
  /// epoch summaries merged in timestamp order, restricted to the query
  /// box, marked `degraded`. Never touches the worker or the framework —
  /// this is the degradation path for a tripped breaker or spent deadline.
  QueryResult HighlightFallback(const ExplorationQuery& query,
                                const CellDirectory& cells) const
      EXCLUDES(mu_);

  ShardStats Stats() const EXCLUDES(mu_);

  /// Direct framework access for tests and stats. The same external-
  /// synchronization contract applies: do not call into it while the shard
  /// worker may be running (quiesce dispatches first).
  SpateFramework& framework() { return *framework_; }

 private:
  /// The retry loop, run on the shard worker.
  void RunQuery(const ExplorationQuery& query,
                std::shared_ptr<CancelToken> cancel,
                std::function<void(Result<QueryResult>, int retries)> on_done)
      EXCLUDES(mu_);

  const size_t index_;
  const ShardTuning tuning_;
  std::unique_ptr<SpateFramework> framework_;
  /// Whole-result cache in front of the scheduler (internally
  /// synchronized; consulted/fed inline in `RunQuery`). It only ever holds
  /// exact answers whose rows cannot change: windows ending by the newest
  /// ingested epoch (`ingested_until_`), and starting at or after the
  /// decay horizon `Ingest` hands it.
  ResultCache cache_;
  /// Cooperative shared scans over `framework_` — also the framework's
  /// external synchronization (queries take read leases, ingest runs
  /// exclusive).
  ScanScheduler scheduler_;
  /// Rank "Shard.mu" (docs/LOCK_ORDER.md): guards the breaker, counters,
  /// mirror, ingest bound and jitter Rng only — held for short bookkeeping
  /// sections, including around `TrySubmit` (the observed Shard.mu ->
  /// ThreadPool.mu edge), never across framework work.
  mutable Mutex mu_ ACQUIRED_AFTER("AdmissionQueue.mu")
      ACQUIRED_BEFORE("ThreadPool.mu") {"Shard.mu"};
  CircuitBreaker breaker_ GUARDED_BY(mu_);
  /// Per-epoch highlight mirror: epoch start -> that sub-snapshot's
  /// summary. Built at ingest, read by `HighlightFallback`.
  std::map<Timestamp, NodeSummary> mirror_ GUARDED_BY(mu_);
  /// End of the newest ingested epoch (`newest_epoch + kEpochSeconds`).
  /// The index accepts only newer epochs, so the rows of a window ending
  /// by this bound never change again.
  Timestamp ingested_until_ GUARDED_BY(mu_) = INT64_MIN;
  Rng jitter_ GUARDED_BY(mu_);
  uint64_t short_circuits_ GUARDED_BY(mu_) = 0;
  uint64_t queue_rejections_ GUARDED_BY(mu_) = 0;
  uint64_t executed_ GUARDED_BY(mu_) = 0;
  uint64_t retries_ GUARDED_BY(mu_) = 0;
  mutable uint64_t fallbacks_ GUARDED_BY(mu_) = 0;
  /// Declared last so the worker is joined (and every queued task done)
  /// before any state it uses is destroyed.
  ThreadPool pool_;
};

}  // namespace spate

#endif  // SPATE_SERVE_SHARD_H_
