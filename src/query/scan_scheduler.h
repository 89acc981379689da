#ifndef SPATE_QUERY_SCAN_SCHEDULER_H_
#define SPATE_QUERY_SCAN_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/spate_framework.h"

namespace spate {

/// Counters of one `ScanScheduler` (surfaced by `spate_cli scan-stats` and
/// the serving tier's `ShardStats`).
struct ScanSchedulerStats {
  /// Shared leaf passes started (each serves >= 1 waiters).
  uint64_t passes_started = 0;
  /// Queries that rode a pass somebody else's arrival had already paid for:
  /// cluster members beyond the first at pass formation, plus every
  /// mid-pass attach. `passes_started + shared_pass_joins` = queries that
  /// went through the shared-pass machinery.
  uint64_t shared_pass_joins = 0;
  /// The subset of `shared_pass_joins` that attached to a pass already
  /// streaming leaves (as opposed to clustering at formation time).
  uint64_t mid_pass_attaches = 0;
  /// Waiters that gave up on a pass (deadline/cancel) without aborting it.
  uint64_t waiters_detached = 0;
  /// Queries answered from covering summaries without any leaf pass
  /// (window not fully resolved: decayed data).
  uint64_t summary_answers = 0;
  /// Mutator sections run through `RunExclusive`.
  uint64_t exclusive_runs = 0;
  /// Leaf snapshots folded into waiter results (one count per
  /// (leaf, waiter) fold).
  uint64_t leaves_folded = 0;
  /// `ScanStats` roll-up across every shared pass.
  uint64_t bytes_decoded = 0;
  uint64_t fragment_hits = 0;
  uint64_t bytes_decoded_saved = 0;
};

/// Per-call outcome detail of `ScanScheduler::Execute` (the serving tier
/// uses `pass_bytes_decoded` as the decoded-cost upper bound it prices
/// `ResultCache` insertions with).
struct SharedExecInfo {
  /// Decoded bytes of the pass that served this query — the *whole* pass,
  /// shared across its waiters, so an upper bound on this query's own cost.
  uint64_t pass_bytes_decoded = 0;
};

/// Cooperative shared scans over one `SpateFramework` (MonetDB-style): the
/// scheduler merges concurrent `Execute` calls that touch overlapping epoch
/// ranges into a single shared leaf pass. An arriving query registers its
/// window/projection and either *attaches* to an in-flight pass that covers
/// its leaves — waiting only for its own leaves to stream by, not for the
/// whole pass — or waits for the pass slot and starts a pass sized to the
/// union (window hull, OR'd table wants, attribute union, box hull) of
/// every compatible waiter then pending. Each decoded leaf snapshot is
/// folded into every registered waiter's result via `FilterSnapshotRows`
/// (each waiter's *own* query does the filtering/projection), and the
/// answer is finished by the framework's own `BuildAnswer`, which keeps
/// every answer bit-identical to a private `framework->Execute(query)`.
///
/// The framework's mutators are externally synchronized; this class *is*
/// that synchronization for multi-threaded callers. Internally it keeps a
/// read/write state machine under one mutex:
///   - `Execute` calls hold a read lease. One *pass* scans at a time, with
///     its own `QueryContext`; attached waiters block on a condvar, not on
///     the framework, and summary-only answers (decayed windows) run under
///     the lease alone off const index state.
///   - `RunExclusive` (ingest/decay/recovery hooks) drains leases with
///     writer priority and runs its closure alone.
///
/// Deadlines: a waiter whose `CancelToken` expires *detaches* with
/// `kDeadlineExceeded` and never cancels the shared pass — other waiters
/// still need it. The pass itself is aborted (via its own token) only when
/// every registered waiter is done or expired.
///
/// Thread-safety: fully thread-safe. Rank "ScanScheduler.mu"
/// (docs/LOCK_ORDER.md) is a leaf lock: the leader folds snapshots under it
/// (pure in-memory row filtering; no I/O, no other SPATE lock), and every
/// framework call happens with it released.
class ScanScheduler {
 public:
  /// The framework must outlive the scheduler. All framework calls the
  /// scheduler makes go through `this`; callers must not touch the
  /// framework's mutating surface directly anymore (use `RunExclusive`).
  explicit ScanScheduler(SpateFramework* framework) : framework_(framework) {}

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Evaluates `query`, sharing leaf decodes with every concurrent call
  /// whose window overlaps. Bit-identical to `framework->Execute(query)`
  /// run serially (including degraded/skipped-epoch semantics). `cancel`
  /// (optional) is polled while waiting and between leaves:
  /// `kDeadlineExceeded` detaches this waiter without disturbing the pass.
  /// `info` (optional) reports how the call was served.
  Result<QueryResult> Execute(const ExplorationQuery& query,
                              const CancelToken* cancel = nullptr,
                              SharedExecInfo* info = nullptr);

  /// Runs `fn` (an `Ingest`/`RunDecay`/recovery section) alone: waits for
  /// every in-flight `Execute` to finish — blocking new arrivals with
  /// writer priority so mutators cannot starve — then calls `fn` with the
  /// framework quiescent.
  Status RunExclusive(const std::function<Status()>& fn);

  ScanSchedulerStats stats() const;

  /// True while a shared pass is streaming leaves (test hook).
  bool pass_in_flight() const;

 private:
  struct Pass;

  /// One blocked `Execute` call. Lives on its caller's stack; registered in
  /// `pending_` / `Pass::waiters` only while that frame is parked under
  /// `mu_`, and removed before the frame exits on every path.
  struct Waiter {
    ExplorationQuery query;
    /// Epoch bounds of the window: a leaf at epoch e intersects the window
    /// iff `first_epoch <= e <= last_epoch`.
    Timestamp first_epoch = 0;
    Timestamp last_epoch = 0;
    const CancelToken* cancel = nullptr;
    /// Rows folded so far (leaf order, same as a private scan) and the
    /// in-window epochs the pass skipped (degraded reads): the `scan` input
    /// of `SpateFramework::BuildAnswer`.
    QueryResult result;
    /// Every leaf intersecting this waiter's window has been folded.
    bool rows_done = false;
    std::shared_ptr<Pass> pass;
  };

  /// One shared leaf pass over the union of its waiters' queries. Waiters
  /// hold the owning `shared_ptr`, so a pass outlives its last waiter even
  /// if the leader finishes first.
  struct Pass {
    ExplorationQuery union_query;
    /// Sorted attribute union backing O(log n) subset checks in
    /// `CanAttachLocked` (empty iff `union_query.attributes` is — meaning
    /// "all attributes").
    std::set<std::string> attr_set;
    /// Epochs <= this have been streamed (or skipped); late attachers must
    /// start strictly after it. INT64_MIN before the first leaf.
    Timestamp resolved_through = INT64_MIN;
    /// Registered waiters (includes the leader). Detached waiters are
    /// removed, never tombstoned.
    std::vector<Waiter*> waiters;
    /// Cancelled only when no live waiter needs the pass anymore.
    CancelToken pass_token;
    /// The pass's own scan context: `pass_token` cancels it, and only the
    /// leader thread touches its stats (the scan's fold and `RunPass`).
    QueryContext ctx{&pass_token, {}};
    bool done = false;
    Status status;
    /// Skip-list harvest cursor into `ctx.stats.skipped_epochs`.
    size_t skip_cursor = 0;
    /// `bytes_decoded` of the pass so far (monotone snapshot of `ctx`'s
    /// stats that waiters read under `mu_`, after the pass ends too).
    uint64_t bytes_so_far = 0;
  };

  /// Blocks until no exclusive section runs or waits, then takes a lease;
  /// polls `cancel` (when given) and gives up with its status instead.
  Status AcquireQueryLeaseLocked(const CancelToken* cancel) REQUIRES(mu_);
  void ReleaseQueryLeaseLocked() REQUIRES(mu_);

  /// Parks on `cv_`: indefinitely without a token, in short polling slices
  /// with one (so an expiry is noticed promptly even without a wakeup).
  void ParkLocked(const CancelToken* cancel) REQUIRES(mu_);

  /// True when `w` can ride `pass` mid-flight: the pass must still be
  /// streaming, must not have passed `w`'s first leaf, and its union query
  /// must subsume `w`'s (window, wanted tables, attributes, box) so the
  /// folded snapshots contain every row `w` needs.
  bool CanAttachLocked(const Pass& pass, const Waiter& w) const REQUIRES(mu_);

  /// Clusters `initiator` with every transitively window-overlapping (or
  /// touching) pending waiter, installs the union pass as `current_`, and
  /// returns it. The union window is exactly covered by member windows, so
  /// full resolution of each member implies full resolution of the union
  /// (no gap leaves are ever decoded).
  std::shared_ptr<Pass> BuildPassLocked(Waiter* initiator) REQUIRES(mu_);

  /// Leader body: runs the union projected scan (with the
  /// "query.scan_scheduler.pass" failpoint at its boundary), folding each
  /// streamed leaf into every registered waiter, then publishes completion.
  void RunPass(const std::shared_ptr<Pass>& pass) EXCLUDES(mu_);

  /// Per-leaf fold: harvests new skips, appends the snapshot's matching
  /// rows to every registered waiter whose window contains `epoch` (via
  /// `FilterSnapshotRows` with the *waiter's* query), advances
  /// `resolved_through`, releases early-finished waiters and aborts the
  /// pass when nobody live remains.
  void FoldLeafLocked(const std::shared_ptr<Pass>& pass, Timestamp epoch,
                      const Snapshot& snapshot) REQUIRES(mu_);

  /// Appends the pass's `skipped_epochs` entries past its cursor to every
  /// intersecting waiter's `result.skipped_epochs`.
  void HarvestSkipsLocked(const std::shared_ptr<Pass>& pass) REQUIRES(mu_);

  /// Cancels the pass's token iff no registered waiter still needs it
  /// (everyone released or expired) — the only way a pass aborts early.
  void MaybeAbandonPassLocked(const std::shared_ptr<Pass>& pass)
      REQUIRES(mu_);

  /// Unregisters `w` from the pending list / its pass.
  void RemoveWaiterLocked(Waiter* w) REQUIRES(mu_);

  SpateFramework* const framework_;

  /// Rank "ScanScheduler.mu" (docs/LOCK_ORDER.md): leaf lock over the
  /// waiter/pass state machine below. Folding runs under it (in-memory row
  /// filtering only); every framework scan/ingest call runs with it
  /// released.
  mutable Mutex mu_{"ScanScheduler.mu"};
  CondVar cv_;
  /// Read leases held by in-flight `Execute` calls.
  int active_queries_ GUARDED_BY(mu_) = 0;
  /// An exclusive section is running / waiting (writer priority: new
  /// queries hold off while a writer waits).
  bool exclusive_ GUARDED_BY(mu_) = false;
  int writers_waiting_ GUARDED_BY(mu_) = 0;
  /// The in-flight shared pass (null when the pass slot is free).
  std::shared_ptr<Pass> current_ GUARDED_BY(mu_);
  /// Arrived waiters not yet attached to a pass.
  std::vector<Waiter*> pending_ GUARDED_BY(mu_);
  ScanSchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace spate

#endif  // SPATE_QUERY_SCAN_SCHEDULER_H_
