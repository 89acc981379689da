#ifndef SPATE_QUERY_SCAN_SCHEDULER_H_
#define SPATE_QUERY_SCAN_SCHEDULER_H_

#include <cstdint>
#include <functional>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/spate_framework.h"

namespace spate {

/// Counters of one `ScanScheduler` (surfaced by `spate_cli scan-stats` and
/// the serving tier's `ShardStats`).
struct ScanSchedulerStats {
  /// Exact reads run: queries over fully resolved windows, each one scan.
  uint64_t passes_started = 0;
  /// Always 0: readers share decodes through the fragment cache, not
  /// passes. Kept while perfbench's serve metrics still read it.
  uint64_t shared_pass_joins = 0;
  /// Always 0, for the same reason as `shared_pass_joins`.
  uint64_t mid_pass_attaches = 0;
  /// Reads that their `CancelToken` ended (`kDeadlineExceeded`).
  uint64_t waiters_detached = 0;
  /// Queries answered from covering summaries without any leaf read
  /// (window not fully resolved: decayed data).
  uint64_t summary_answers = 0;
  /// Mutator sections run through `RunExclusive`.
  uint64_t exclusive_runs = 0;
  /// Leaf snapshots the exact reads streamed.
  uint64_t leaves_folded = 0;
  /// `ScanStats` roll-up across every read.
  uint64_t bytes_decoded = 0;
  uint64_t fragment_hits = 0;
  uint64_t bytes_decoded_saved = 0;
};

/// Read/write lease over one `SpateFramework`. The framework's mutators
/// are externally synchronized; this class *is* that synchronization for
/// multi-threaded callers:
///   - `Execute` holds a read lease across one read. Readers run
///     concurrently, each through the framework's reentrant
///     `Execute(query, ctx)` with its caller's `QueryContext`; concurrent
///     readers of one leaf decode each fragment once through the fragment
///     cache's single-flight claims.
///   - `RunExclusive` (ingest/decay/recovery hooks) drains the readers with
///     writer priority and runs its closure alone.
///
/// Thread-safety: fully thread-safe. Rank "ScanScheduler.mu"
/// (docs/LOCK_ORDER.md) is a leaf lock over the lease state and counters;
/// every framework call runs with it released.
class ScanScheduler {
 public:
  /// The framework must outlive the scheduler. Callers must not touch the
  /// framework's mutating surface directly anymore (use `RunExclusive`).
  explicit ScanScheduler(SpateFramework* framework) : framework_(framework) {}

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Evaluates `query` under a read lease, bit-identical to a serial
  /// `framework->Execute(query)` (including degraded/skipped-epoch
  /// semantics). `ctx->cancel` (may be null) bounds both the wait for the
  /// lease and the read, which then fails with `kDeadlineExceeded`;
  /// `ctx->stats` receives the read's own stats.
  Result<QueryResult> Execute(const ExplorationQuery& query,
                              QueryContext* ctx);

  /// Runs `fn` (an `Ingest`/`RunDecay`/recovery section) alone: waits for
  /// every in-flight `Execute` to finish — blocking new arrivals with
  /// writer priority so mutators cannot starve — then calls `fn` with the
  /// framework quiescent.
  Status RunExclusive(const std::function<Status()>& fn);

  ScanSchedulerStats stats() const;

 private:
  /// Blocks until no exclusive section runs or waits, then takes a lease;
  /// polls `cancel` (when given) and gives up with its status instead.
  Status AcquireQueryLeaseLocked(const CancelToken* cancel) REQUIRES(mu_);

  /// Parks on `cv_`: indefinitely without a token, in short polling slices
  /// with one (so an expiry is noticed promptly even without a wakeup).
  void ParkLocked(const CancelToken* cancel) REQUIRES(mu_);

  SpateFramework* const framework_;

  /// Rank "ScanScheduler.mu" (docs/LOCK_ORDER.md): leaf lock over the
  /// lease state and counters below; never held across a framework call.
  mutable Mutex mu_{"ScanScheduler.mu"};
  CondVar cv_;
  /// Read leases held by in-flight `Execute` calls.
  int active_queries_ GUARDED_BY(mu_) = 0;
  /// An exclusive section is running / waiting (writer priority: new
  /// queries hold off while a writer waits).
  bool exclusive_ GUARDED_BY(mu_) = false;
  int writers_waiting_ GUARDED_BY(mu_) = 0;
  ScanSchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace spate

#endif  // SPATE_QUERY_SCAN_SCHEDULER_H_
