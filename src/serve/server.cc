#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "common/latch.h"
#include "sql/parser.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// Platform-stable 64-bit FNV-1a (std::hash is not pinned across
/// implementations, and shard placement must be): a given cell id maps to
/// the same shard on every build, so stores and tests are portable.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One shard's slot in a scatter: written by the shard worker (or by the
/// dispatching thread on fast-fail), read by the gather. `done` is the
/// release/acquire hand-off for the non-atomic fields next to it.
struct Slot {
  std::atomic<bool> done{false};
  Status status = Status::Internal("shard never reported");
  QueryResult result;
  int retries = 0;
};

/// Shared scatter state. Held by `shared_ptr` from every dispatched task,
/// so slots and latch stay alive even when the gather abandons a slow
/// shard at the deadline — the late worker writes into memory the last
/// owner frees, never into a dead stack frame.
struct ScatterState {
  explicit ScatterState(size_t n, std::shared_ptr<CancelToken> cancel)
      : slots(n), latch(n), token(std::move(cancel)) {}
  std::vector<Slot> slots;
  CountdownLatch latch;
  std::shared_ptr<CancelToken> token;
};

}  // namespace

QueryServer::QueryServer(const ServeOptions& options,
                         const std::vector<Record>& cell_rows)
    : options_(options),
      cells_(cell_rows),
      cell_rows_(cell_rows),
      admission_(options.quota) {
  const size_t n = std::max<size_t>(1, options_.num_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(i, options_.shard, cell_rows, options_.tuning));
  }
}

size_t QueryServer::ShardOf(const std::string& cell_id) const {
  return Fnv1a(cell_id) % shards_.size();
}

Status QueryServer::Ingest(const Snapshot& snapshot) {
  // Split by owning shard. Every shard ingests every epoch — possibly an
  // empty slice — so each shard's temporal index stays window-aligned and
  // "window fully resolved" means the same thing everywhere.
  std::vector<Snapshot> parts(shards_.size());
  for (Snapshot& part : parts) part.epoch_start = snapshot.epoch_start;
  for (const Record& row : snapshot.cdr) {
    parts[ShardOf(FieldAsString(row, kCdrCellId))].cdr.push_back(row);
  }
  for (const Record& row : snapshot.nms) {
    parts[ShardOf(FieldAsString(row, kNmsCellId))].nms.push_back(row);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    SPATE_RETURN_IF_ERROR(shards_[i]->Ingest(parts[i]));
  }
  return Status::OK();
}

ServeResponse QueryServer::Query(const ServeRequest& request) {
  ServeResponse response;
  const double now = SteadySeconds();
  const Status admitted = admission_.Admit(request.tenant, now);
  if (!admitted.ok()) {
    response.outcome = ServeOutcome::kShed;
    response.status = admitted;
    return response;
  }

  const double deadline = request.deadline_seconds > 0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  auto token = std::make_shared<CancelToken>();
  token->SetDeadlineAfter(deadline);

  // Resolve the scatter set: a box query only visits the shards owning its
  // cells; a boxless query visits all of them.
  std::vector<size_t> targets;
  if (request.query.has_box) {
    std::unordered_set<size_t> owners;
    for (const std::string& cell_id : cells_.CellsInBox(request.query.box)) {
      owners.insert(ShardOf(cell_id));
    }
    targets.assign(owners.begin(), owners.end());
    std::sort(targets.begin(), targets.end());
  } else {
    targets.resize(shards_.size());
    for (size_t i = 0; i < targets.size(); ++i) targets[i] = i;
  }
  response.shards_asked = targets.size();
  if (targets.empty()) {
    // The box selects no cells: the exact answer is empty, no shard needed.
    response.outcome = ServeOutcome::kOk;
    response.result.exact = true;
    admission_.Finish(request.tenant, response.outcome);
    return response;
  }

  // Scatter.
  auto state = std::make_shared<ScatterState>(targets.size(), token);
  for (size_t i = 0; i < targets.size(); ++i) {
    const Status dispatched = shards_[targets[i]]->Dispatch(
        request.query, token,
        [state, i](Result<QueryResult> result, int retries) {
          Slot& slot = state->slots[i];
          slot.retries = retries;
          slot.status = result.status();
          if (result.ok()) slot.result = std::move(result).value();
          slot.done.store(true, std::memory_order_release);
          state->latch.CountDown();
        });
    if (!dispatched.ok()) {
      // Fast-fail (breaker open / shard queue full): the slot resolves on
      // this thread; the worker was never involved.
      Slot& slot = state->slots[i];
      slot.status = dispatched;
      slot.done.store(true, std::memory_order_release);
      state->latch.CountDown();
    }
  }

  // Deadline-bounded gather: wait for the slowest shard or the deadline,
  // whichever comes first, then cancel whatever is still running — workers
  // observe the token between leaf decodes and unwind.
  if (!state->latch.WaitFor(token->RemainingSeconds())) token->Cancel();

  // Merge in shard-index order (targets are sorted), so row order and the
  // float-sensitive summary merge are deterministic for a fixed shard map.
  QueryResult merged;
  merged.exact = true;
  NodeSummary summary;
  Status failure;
  for (size_t i = 0; i < targets.size(); ++i) {
    Slot& slot = state->slots[i];
    const bool done = slot.done.load(std::memory_order_acquire);
    if (done) response.retries += slot.retries;
    if (done && slot.status.ok()) {
      ++response.shards_answered;
      QueryResult& r = slot.result;
      merged.exact = merged.exact && r.exact;
      merged.degraded = merged.degraded || r.degraded;
      merged.served_from = std::max(merged.served_from, r.served_from);
      std::move(r.cdr_rows.begin(), r.cdr_rows.end(),
                std::back_inserter(merged.cdr_rows));
      std::move(r.nms_rows.begin(), r.nms_rows.end(),
                std::back_inserter(merged.nms_rows));
      merged.skipped_epochs.insert(merged.skipped_epochs.end(),
                                   r.skipped_epochs.begin(),
                                   r.skipped_epochs.end());
      summary.Merge(r.summary);
      continue;
    }
    // This shard has no full-fidelity answer: deadline still running out
    // (!done), breaker open, queue full, or a hard failure.
    const Status miss =
        done ? slot.status
             : Status::DeadlineExceeded("shard " +
                                        std::to_string(targets[i]) +
                                        " missed the gather deadline");
    if (!request.allow_degraded) {
      if (failure.ok()) failure = miss;
      continue;
    }
    ++response.shards_fallback;
    merged.exact = false;
    merged.degraded = true;
    const QueryResult fallback =
        shards_[targets[i]]->HighlightFallback(request.query, cells_);
    summary.Merge(fallback.summary);
  }

  if (!request.allow_degraded && !failure.ok()) {
    response.status = failure;
    response.outcome = failure.IsDeadlineExceeded()
                           ? ServeOutcome::kDeadlineExceeded
                           : (failure.IsResourceExhausted()
                                  ? ServeOutcome::kShed
                                  : ServeOutcome::kError);
    admission_.Finish(request.tenant, response.outcome);
    return response;
  }

  merged.summary = RestrictSummaryToBox(summary, request.query, cells_);
  merged.highlights =
      merged.summary.ExtractHighlights(HighlightThreshold(IndexLevel::kDay));
  std::sort(merged.skipped_epochs.begin(), merged.skipped_epochs.end());
  merged.skipped_epochs.erase(std::unique(merged.skipped_epochs.begin(),
                                          merged.skipped_epochs.end()),
                              merged.skipped_epochs.end());
  response.result = std::move(merged);
  response.outcome = (response.result.degraded || response.shards_fallback > 0)
                         ? ServeOutcome::kDegraded
                         : ServeOutcome::kOk;
  admission_.Finish(request.tenant, response.outcome);
  return response;
}

Status QueryServer::PrepareSql(const std::string& name,
                               std::string_view sql) {
  SPATE_ASSIGN_OR_RETURN(PreparedStatement prepared, PrepareStatement(sql));
  MutexLock lock(&prepared_mu_);
  prepared_[name] = std::move(prepared);
  return Status::OK();
}

SqlServeResponse QueryServer::QuerySql(const SqlServeRequest& request) {
  SqlServeResponse response;

  // Resolve the statement: bind a registered prepared statement, or parse
  // the raw text. Both fail as kError before any admission cost.
  SelectStatement statement;
  if (!request.prepared.empty()) {
    PreparedStatement prepared;
    {
      MutexLock lock(&prepared_mu_);
      const auto it = prepared_.find(request.prepared);
      if (it == prepared_.end()) {
        response.status = Status::NotFound("sql: no prepared statement named " +
                                           request.prepared);
        return response;
      }
      prepared = it->second;
    }
    Result<SelectStatement> bound = BindParams(prepared, request.params);
    if (!bound.ok()) {
      response.status = bound.status();
      return response;
    }
    statement = std::move(bound).value();
  } else {
    Result<SelectStatement> parsed = ParseSql(request.sql);
    if (!parsed.ok()) {
      response.status = parsed.status();
      return response;
    }
    statement = std::move(parsed).value();
  }

  Result<SqlEvaluation> prepared_eval =
      SqlEvaluation::Prepare(statement, cell_rows_);
  if (!prepared_eval.ok()) {
    response.status = prepared_eval.status();
    return response;
  }
  SqlEvaluation eval = std::move(prepared_eval).value();

  // Statements that touch no shard (CELL inventory, contradictory window)
  // are answered locally — still through admission, so tenants cannot
  // bypass their quota with cheap statements.
  if (eval.from_cell() || eval.window_begin() >= eval.window_end()) {
    const Status admitted = admission_.Admit(request.tenant, SteadySeconds());
    if (!admitted.ok()) {
      response.outcome = ServeOutcome::kShed;
      response.status = admitted;
      return response;
    }
    if (eval.from_cell()) {
      for (const Record& row : cell_rows_) eval.ConsumeRow(row);
    }
    Result<SqlResult> finished = eval.Finish();
    if (finished.ok()) {
      response.result = std::move(finished).value();
      response.outcome = ServeOutcome::kOk;
    } else {
      response.status = finished.status();
      response.outcome = ServeOutcome::kError;
    }
    admission_.Finish(request.tenant, response.outcome);
    return response;
  }

  // Lower to the restricted exploration query (the planner's pushdown:
  // referenced columns, fact-table mask, optional pinned cell) and ride
  // the ordinary scatter/gather path, admission and deadline included.
  ServeRequest serve;
  serve.tenant = request.tenant;
  serve.query = LowerToExploration(eval, cells_);
  serve.deadline_seconds = request.deadline_seconds;
  serve.allow_degraded = request.allow_degraded;
  ServeResponse scatter = Query(serve);
  response.status = scatter.status;
  response.shards_asked = scatter.shards_asked;
  response.shards_answered = scatter.shards_answered;
  response.shards_fallback = scatter.shards_fallback;
  response.retries = scatter.retries;
  if (scatter.outcome != ServeOutcome::kOk &&
      scatter.outcome != ServeOutcome::kDegraded) {
    response.outcome = scatter.outcome;
    return response;
  }

  if (scatter.outcome == ServeOutcome::kOk && scatter.result.exact) {
    // Full-fidelity rows: fold them through the evaluation. Shards merge
    // in shard-index order, so the row stream — and therefore any
    // non-aggregate result — is deterministic for a fixed shard map (only
    // a single-shard tier reproduces the single-node row *order*; integer
    // aggregates are order-independent and match at any shard count).
    const std::vector<Record>& rows =
        eval.is_cdr() ? scatter.result.cdr_rows : scatter.result.nms_rows;
    for (const Record& row : rows) eval.ConsumeRow(row);
    Result<SqlResult> finished = eval.Finish();
    if (finished.ok()) {
      response.result = std::move(finished).value();
      response.outcome = ServeOutcome::kOk;
    } else {
      response.status = finished.status();
      response.outcome = ServeOutcome::kError;
    }
    return response;
  }

  // Degraded gather: the exact rows are incomplete. Summary-shaped
  // aggregates still have a faithful answer in the merged (partly
  // highlight-mirror) summaries; any other shape degrades to an empty
  // result that says so.
  response.degraded = true;
  response.outcome = ServeOutcome::kDegraded;
  if (eval.summary_eligible()) {
    Result<SqlResult> summarized =
        eval.AnswerFromSummary(scatter.result.summary);
    if (summarized.ok()) {
      response.result = std::move(summarized).value();
      return response;
    }
  }
  Result<SqlResult> empty = eval.Finish();
  if (empty.ok()) response.result = std::move(empty).value();
  return response;
}

ServerStats QueryServer::Stats() const {
  ServerStats stats;
  stats.tenants = admission_.Stats();
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) stats.shards.push_back(shard->Stats());
  return stats;
}

}  // namespace spate
