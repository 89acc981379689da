#include "query/scan_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace spate {

namespace {

/// Polling slice while a cancel-holding waiter parks: short enough to
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

void ScanScheduler::ReleaseQueryLeaseLocked() { --active_queries_; }

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

bool ScanScheduler::CanAttachLocked(const Pass& pass, const Waiter& w) const {
  if (pass.done) return false;
  // The union snapshots can only contain every row `w` needs if the pass
  // subsumes `w` on all four query dimensions.
  if (w.query.window_begin < pass.union_query.window_begin ||
      w.query.window_end > pass.union_query.window_end) {
    return false;
  }
  // Leaves stream in epoch order and are never revisited: attaching is only
  // sound while the pass has not yet reached `w`'s first leaf.
  if (pass.resolved_through >= w.first_epoch) return false;
  if (w.query.want_cdr && !pass.union_query.want_cdr) return false;
  if (w.query.want_nms && !pass.union_query.want_nms) return false;
  // Attributes: an empty pass set decodes every column; otherwise `w` must
  // select a (nonempty) subset of the pass's columns.
  if (!pass.attr_set.empty()) {
    if (w.query.attributes.empty()) return false;
    for (const std::string& a : w.query.attributes) {
      if (pass.attr_set.find(a) == pass.attr_set.end()) return false;
    }
  }
  // Box: an unrestricted pass materializes every cell; a boxed pass only
  // covers waiters whose box it geometrically contains (`CellsInBox` is
  // monotone under containment, so the pass's cell restriction and spatial
  // leaf skipping never drop a row `w` wants).
  if (pass.union_query.has_box) {
    if (!w.query.has_box) return false;
    const BoundingBox& pb = pass.union_query.box;
    const BoundingBox& wb = w.query.box;
    if (wb.min_x < pb.min_x || wb.min_y < pb.min_y || wb.max_x > pb.max_x ||
        wb.max_y > pb.max_y) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<ScanScheduler::Pass> ScanScheduler::BuildPassLocked(
    Waiter* initiator) {
  auto pass = std::make_shared<Pass>();
  // Cluster the initiator with every pending waiter whose window
  // transitively overlaps or touches: the union window is then exactly the
  // union of member windows (one contiguous interval, no gap leaves), so
  // each member's full resolution — checked at arrival and stable under the
  // query leases — implies the union's.
  std::vector<Waiter*> cluster{initiator};
  pending_.erase(std::remove(pending_.begin(), pending_.end(), initiator),
                 pending_.end());
  Timestamp begin = initiator->query.window_begin;
  Timestamp end = initiator->query.window_end;
  bool grew = true;
  while (grew) {
    grew = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      Waiter* c = *it;
      if (c->query.window_begin <= end && c->query.window_end >= begin) {
        begin = std::min(begin, c->query.window_begin);
        end = std::max(end, c->query.window_end);
        cluster.push_back(c);
        it = pending_.erase(it);
        grew = true;
      } else {
        ++it;
      }
    }
  }

  // Union query: window hull, OR'd table wants, attribute union (empty —
  // i.e. all — as soon as one member selects all), box hull only when every
  // member is boxed (one unboxed member forces full materialization).
  ExplorationQuery u;
  u.window_begin = begin;
  u.window_end = end;
  u.want_cdr = false;
  u.want_nms = false;
  bool all_attrs = false;
  bool all_boxed = true;
  bool hull_init = false;
  BoundingBox hull;
  for (const Waiter* c : cluster) {
    u.want_cdr = u.want_cdr || c->query.want_cdr;
    u.want_nms = u.want_nms || c->query.want_nms;
    if (c->query.attributes.empty()) {
      all_attrs = true;
    } else {
      pass->attr_set.insert(c->query.attributes.begin(),
                            c->query.attributes.end());
    }
    if (!c->query.has_box) {
      all_boxed = false;
    } else if (!hull_init) {
      hull = c->query.box;
      hull_init = true;
    } else {
      hull.min_x = std::min(hull.min_x, c->query.box.min_x);
      hull.min_y = std::min(hull.min_y, c->query.box.min_y);
      hull.max_x = std::max(hull.max_x, c->query.box.max_x);
      hull.max_y = std::max(hull.max_y, c->query.box.max_y);
    }
  }
  if (all_attrs) {
    pass->attr_set.clear();
  } else {
    u.attributes.assign(pass->attr_set.begin(), pass->attr_set.end());
  }
  if (all_boxed && hull_init) {
    u.box = hull;
    u.has_box = true;
  }
  pass->union_query = std::move(u);

  for (Waiter* c : cluster) {
    c->pass = pass;
    pass->waiters.push_back(c);
  }
  current_ = pass;
  ++stats_.passes_started;
  stats_.shared_pass_joins += cluster.size() - 1;
  return pass;
}

void ScanScheduler::HarvestSkipsLocked(const std::shared_ptr<Pass>& pass) {
  // Skips are appended in strict epoch order *before* any later leaf's fold
  // (the scan folds serially on the leader thread), so harvesting here —
  // before rows fold — means a waiter can never be released with an
  // in-window skip still unseen.
  const std::vector<Timestamp>& skips = pass->ctx.stats.skipped_epochs;
  for (; pass->skip_cursor < skips.size(); ++pass->skip_cursor) {
    const Timestamp s = skips[pass->skip_cursor];
    for (Waiter* w : pass->waiters) {
      if (s < w->first_epoch || s > w->last_epoch) continue;
      w->result.skipped_epochs.push_back(s);
    }
    if (s > pass->resolved_through) pass->resolved_through = s;
  }
}

void ScanScheduler::FoldLeafLocked(const std::shared_ptr<Pass>& pass,
                                   Timestamp epoch, const Snapshot& snapshot) {
  HarvestSkipsLocked(pass);
  pass->bytes_so_far = pass->ctx.stats.bytes_decoded;
  for (Waiter* w : pass->waiters) {
    if (w->rows_done) continue;
    if (epoch < w->first_epoch || epoch > w->last_epoch) continue;
    // The waiter's *own* query does the filtering/projection, so its rows
    // are bit-identical to a private scan's (the union snapshot is a
    // superset restriction on every dimension).
    FilterSnapshotRows(snapshot, w->query, framework_->cells(),
                       &w->result.cdr_rows, &w->result.nms_rows);
    ++stats_.leaves_folded;
  }
  if (epoch > pass->resolved_through) pass->resolved_through = epoch;
  // Early release: a waiter whose last leaf just streamed is done — it does
  // not wait for the rest of the pass.
  for (Waiter* w : pass->waiters) {
    if (!w->rows_done && w->last_epoch <= pass->resolved_through) {
      w->rows_done = true;
    }
  }
  MaybeAbandonPassLocked(pass);
  cv_.NotifyAll();
}

void ScanScheduler::MaybeAbandonPassLocked(const std::shared_ptr<Pass>& pass) {
  if (pass->done) return;
  // The pass is only aborted when *no registered waiter still needs it*:
  // everyone is either released or expired. A single detaching waiter never
  // cancels the shared pass.
  for (const Waiter* w : pass->waiters) {
    if (!w->rows_done && (w->cancel == nullptr || !w->cancel->Expired())) {
      return;
    }
  }
  pass->pass_token.Cancel();
}

void ScanScheduler::RemoveWaiterLocked(Waiter* w) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), w),
                 pending_.end());
  if (w->pass != nullptr) {
    std::vector<Waiter*>& peers = w->pass->waiters;
    peers.erase(std::remove(peers.begin(), peers.end(), w), peers.end());
  }
}

void ScanScheduler::RunPass(const std::shared_ptr<Pass>& pass) {
  // Failpoint at the scheduler boundary: an injected failure fails the pass
  // *before* it touches the framework — waiters observe it exactly like a
  // scan error (wakeup and status propagation still run).
  Status pass_status;
  SPATE_FAILPOINT_INJECT("query.scan_scheduler.pass", pass_status);
  if (pass_status.ok()) {
    pass_status = framework_->Scan(
        pass->union_query, &pass->ctx, [&](const Snapshot& snapshot) {
          MutexLock lock(&mu_);
          FoldLeafLocked(pass, snapshot.epoch_start, snapshot);
        });
  }
  MutexLock lock(&mu_);
  // Trailing skips (epochs after the last streamed leaf) and the final byte
  // count; a pass that failed before scanning has empty stats.
  HarvestSkipsLocked(pass);
  const ScanStats& scan = pass->ctx.stats;
  pass->bytes_so_far = scan.bytes_decoded;
  stats_.bytes_decoded += scan.bytes_decoded;
  stats_.fragment_hits += scan.fragment_hits;
  stats_.bytes_decoded_saved += scan.bytes_decoded_saved;
  pass->status = pass_status;
  pass->done = true;
  if (pass_status.ok()) {
    // A complete pass resolved every member window (spatially-skipped
    // leaves included — they stream no snapshot but are exact).
    for (Waiter* w : pass->waiters) w->rows_done = true;
  }
  current_ = nullptr;
  cv_.NotifyAll();
}

Result<QueryResult> ScanScheduler::Execute(const ExplorationQuery& query,
                                           const CancelToken* cancel,
                                           SharedExecInfo* info) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  // A request that arrives already expired must not touch storage at all
  // (same contract as the framework's own pre-check).
  if (cancel != nullptr) {
    const Status s = cancel->Check();
    if (!s.ok()) return s;
  }

  Waiter w;
  w.query = query;
  w.first_epoch = TruncateToEpoch(query.window_begin);
  w.last_epoch = TruncateToEpoch(query.window_end - 1);
  w.cancel = cancel;

  mu_.Lock();
  {
    const Status lease = AcquireQueryLeaseLocked(cancel);
    if (!lease.ok()) {
      mu_.Unlock();
      return lease;
    }
  }

  // Decayed window: no leaf pass can add rows (and mutators are fenced out
  // by the lease, so resolution cannot change under us) — serve the
  // covering highlights off the const index without queuing for the scan
  // slot at all.
  if (!framework_->index().WindowFullyResolved(query.window_begin,
                                               query.window_end)) {
    ++stats_.summary_answers;
    mu_.Unlock();
    QueryResult result = framework_->BuildAnswer(query, std::nullopt);
    mu_.Lock();
    ReleaseQueryLeaseLocked();
    mu_.Unlock();
    cv_.NotifyAll();
    return result;
  }

  // Attach to the in-flight pass when it subsumes us and has not passed our
  // first leaf; otherwise queue, and either get clustered into the next
  // pass by its leader or become that leader ourselves.
  if (current_ != nullptr && CanAttachLocked(*current_, w)) {
    w.pass = current_;
    current_->waiters.push_back(&w);
    ++stats_.shared_pass_joins;
    ++stats_.mid_pass_attaches;
  } else {
    pending_.push_back(&w);
  }

  for (;;) {
    if (w.pass != nullptr) {
      if (w.rows_done || w.pass->done) break;
    } else {
      if (current_ == nullptr) {
        // The pass slot is free and we are still pending: lead a pass sized
        // to the union of every clusterable pending waiter.
        std::shared_ptr<Pass> pass = BuildPassLocked(&w);
        mu_.Unlock();
        RunPass(pass);
        mu_.Lock();
        break;
      }
      if (current_ != nullptr && CanAttachLocked(*current_, w)) {
        // A pass someone else formed (from a disjoint cluster) turned out
        // to cover us after all.
        pending_.erase(std::remove(pending_.begin(), pending_.end(), &w),
                       pending_.end());
        w.pass = current_;
        current_->waiters.push_back(&w);
        ++stats_.shared_pass_joins;
        ++stats_.mid_pass_attaches;
        continue;
      }
    }
    if (cancel != nullptr) {
      const Status s = cancel->Check();
      if (!s.ok()) {
        // Deadline detach: leave the pass running for the other waiters.
        const std::shared_ptr<Pass> pass = w.pass;
        RemoveWaiterLocked(&w);
        ++stats_.waiters_detached;
        if (pass != nullptr) MaybeAbandonPassLocked(pass);
        ReleaseQueryLeaseLocked();
        mu_.Unlock();
        cv_.NotifyAll();
        return s;
      }
    }
    ParkLocked(cancel);
  }

  // Settled: either our rows are complete (`rows_done`, possibly with
  // skips) or the pass ended without resolving us (it failed).
  const Status pass_status = w.pass->status;
  const uint64_t pass_bytes = w.pass->bytes_so_far;
  const std::shared_ptr<Pass> pass = w.pass;
  RemoveWaiterLocked(&w);
  // An early-released waiter leaving may have been the last one who still
  // needed the (ongoing) pass.
  if (!pass->done) MaybeAbandonPassLocked(pass);
  mu_.Unlock();
  // Unregistered, so `w` is ours alone again. A waiter whose leaves all
  // resolved before the pass ended (or failed) succeeds regardless of what
  // happened to the rest of the pass — a private scan of its window would
  // never have seen that failure. The framework's own answer builder then
  // finishes it, under the query lease (const index reads only).
  Result<QueryResult> result =
      !w.rows_done && !pass_status.ok()
          ? Result<QueryResult>(pass_status)
          : Result<QueryResult>(
                framework_->BuildAnswer(query, std::move(w.result)));
  mu_.Lock();
  ReleaseQueryLeaseLocked();
  mu_.Unlock();
  cv_.NotifyAll();
  if (info != nullptr) info->pass_bytes_decoded = pass_bytes;
  return result;
}

Status ScanScheduler::RunExclusive(const std::function<Status()>& fn) {
  mu_.Lock();
  ++writers_waiting_;
  // Leases cover every in-flight query (passes and summary answers alike),
  // so draining them quiesces the framework. `writers_waiting_` holds off
  // new leases meanwhile — mutators cannot starve.
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

bool ScanScheduler::pass_in_flight() const {
  MutexLock lock(&mu_);
  return current_ != nullptr;
}

}  // namespace spate
