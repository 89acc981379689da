#include "sql/planner.h"

#include <optional>
#include <unordered_set>
#include <utility>

#include "sql/parser.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// Plaintext bytes a columnar decode spends on one table's chunks under
/// `projection` (mirrors DecodeColumnarLeaf: skipped tables cost nothing,
/// selected chunks decode whole regardless of row restriction).
uint64_t ColumnarTableBytes(const std::vector<uint64_t>& column_bytes,
                            const TableProjection& projection) {
  uint64_t total = 0;
  for (size_t c = 0; c < column_bytes.size(); ++c) {
    if (projection.Keeps(static_cast<int>(c))) total += column_bytes[c];
  }
  return total;
}

/// Mirror of the scan's LeafIntersectsCells on the planner-visible summary
/// (planner leaves are never decayed — LeavesInWindow filters them out).
bool SummaryIntersectsCells(const NodeSummary& summary,
                            const std::unordered_set<std::string>& wanted) {
  for (const auto& [cell_id, stats] : summary.per_cell()) {
    if (wanted.count(cell_id) != 0) return true;
  }
  return false;
}

TableProjection SkipTable() {
  TableProjection projection;
  projection.all = false;
  projection.skip = true;
  return projection;
}

/// The unprojected full-window query a `kRowScan` caches its rows under
/// (and the planner's second cache-probe candidate).
ExplorationQuery RowQueryFor(const ExplorationQuery& lowered) {
  ExplorationQuery query;
  query.window_begin = lowered.window_begin;
  query.window_end = lowered.window_end;
  return query;
}

/// Appends the snapshot's in-window rows to `out` — the `QueryResult` a
/// direct `Execute(query)` of the lowered query would produce (the scan
/// already applied projection, mask and cell restriction; only the window
/// filter remains, since scans stream whole leaves).
void CollectRows(const Snapshot& snapshot, const ExplorationQuery& query,
                 QueryResult* out) {
  const auto in_window = [&query](const Record& row) {
    const Timestamp ts = ParseCompact(FieldAsString(row, 0));
    return ts >= query.window_begin && ts < query.window_end;
  };
  if (query.want_cdr) {
    for (const Record& row : snapshot.cdr) {
      if (in_window(row)) out->cdr_rows.push_back(row);
    }
  }
  if (query.want_nms) {
    for (const Record& row : snapshot.nms) {
      if (in_window(row)) out->nms_rows.push_back(row);
    }
  }
}

/// Runs the scan leg shared by `kProjectedScan`, `kRowScan` and the raced
/// `kCacheServe` fallback: streams rows into `eval`, reports actual decoded
/// bytes, and feeds the cache when the scan completed without skips.
Result<SqlResult> RunScan(Framework& framework, const ExplorationQuery& query,
                          SqlEvaluation& eval, ResultCache* cache,
                          uint64_t* actual_bytes_decoded, bool projected) {
  QueryResult collected;
  const bool collect = cache != nullptr;
  const auto consume = [&](const Snapshot& snapshot) {
    eval.ConsumeSnapshot(snapshot);
    if (collect) CollectRows(snapshot, query, &collected);
  };
  if (projected) {
    SPATE_RETURN_IF_ERROR(framework.ScanWindowProjected(query, consume));
  } else {
    SPATE_RETURN_IF_ERROR(
        framework.ScanWindow(query.window_begin, query.window_end, consume));
  }
  const ScanStats& stats = framework.last_scan_stats();
  if (actual_bytes_decoded != nullptr) {
    *actual_bytes_decoded = stats.bytes_decoded;
  }
  // Only complete scans are cacheable — an entry must stand for the whole
  // window, not for whichever replicas happened to be readable.
  if (collect && stats.complete()) {
    collected.exact = true;
    cache->Insert(query, collected, stats.bytes_decoded);
  }
  return eval.Finish();
}

}  // namespace

ExplorationQuery LowerToExploration(const SqlEvaluation& eval,
                                    const CellDirectory& cells,
                                    std::string* cell_restrict) {
  if (cell_restrict != nullptr) cell_restrict->clear();
  ExplorationQuery lowered;
  if (!eval.references_all_fact_columns()) {
    lowered.attributes = eval.fact_columns();
  }
  lowered.window_begin = eval.window_begin();
  lowered.window_end = eval.window_end();
  lowered.want_cdr = eval.is_cdr();
  lowered.want_nms = !eval.is_cdr();
  if (!eval.pushdown_cell().empty()) {
    const CellInfo* info = cells.Find(eval.pushdown_cell());
    if (info != nullptr) {
      lowered.box = BoundingBox{info->x, info->y, info->x, info->y};
      lowered.has_box = true;
      if (cell_restrict != nullptr) *cell_restrict = eval.pushdown_cell();
    }
  }
  return lowered;
}

const char* PlanScanKindName(PlanScanKind kind) {
  switch (kind) {
    case PlanScanKind::kCellScan:
      return "CellScan";
    case PlanScanKind::kEmptyScan:
      return "EmptyScan";
    case PlanScanKind::kSummaryAnswer:
      return "SummaryAnswer";
    case PlanScanKind::kCacheServe:
      return "CacheServe";
    case PlanScanKind::kProjectedScan:
      return "ProjectedScan";
    case PlanScanKind::kRowScan:
      return "RowScan";
  }
  return "RowScan";
}

Result<QueryPlan> PlanSelect(Framework& framework,
                             const SelectStatement& statement,
                             ResultCache* cache) {
  SPATE_ASSIGN_OR_RETURN(
      SqlEvaluation eval,
      SqlEvaluation::Prepare(statement, framework.cell_rows()));
  QueryPlan plan;
  plan.statement = statement;
  if (eval.from_cell()) {
    plan.scan = PlanScanKind::kCellScan;
    return plan;
  }
  if (eval.window_begin() >= eval.window_end()) {
    plan.scan = PlanScanKind::kEmptyScan;
    return plan;
  }

  const ExplorationQuery lowered =
      LowerToExploration(eval, framework.cells(), &plan.cell_restrict);
  plan.query = lowered;

  const PlannerStatistics stats = framework.CollectPlannerStatistics(
      eval.window_begin(), eval.window_end());
  plan.stats_available = stats.available;
  plan.window_fully_resolved = stats.window_fully_resolved;
  plan.summary_eligible = eval.summary_eligible();
  plan.leaves = stats.leaves.size();

  // Cheapest first: answer from summaries (zero decode), then from the
  // cache (zero decode), then pick the cheaper scan.
  if (eval.summary_eligible() && stats.available &&
      stats.window_fully_resolved) {
    plan.scan = PlanScanKind::kSummaryAnswer;
    return plan;
  }
  if (cache != nullptr) {
    if (cache->WouldServe(lowered)) {
      plan.scan = PlanScanKind::kCacheServe;
      return plan;
    }
    const ExplorationQuery row_query = RowQueryFor(lowered);
    if (cache->WouldServe(row_query)) {
      plan.scan = PlanScanKind::kCacheServe;
      plan.query = row_query;
      return plan;
    }
  }

  if (!stats.available) {
    // No statistics (baseline frameworks): push the restriction down
    // anyway — restricting never decodes more than scanning everything.
    plan.scan = PlanScanKind::kProjectedScan;
    return plan;
  }

  std::unordered_set<std::string> wanted;
  if (lowered.has_box) {
    const std::vector<std::string> in_box =
        framework.cells().CellsInBox(lowered.box);
    wanted.insert(in_box.begin(), in_box.end());
  }
  const bool can_skip = stats.spatial_leaf_skip && lowered.has_box;
  const TableSchema& fact = eval.is_cdr() ? CdrSchema() : NmsSchema();
  const TableProjection fact_projection = ScanProjection(
      fact, lowered.attributes, fact.IndexOf("ts"), fact.IndexOf("cell_id"));
  const TableProjection cdr_projection =
      lowered.want_cdr ? fact_projection : SkipTable();
  const TableProjection nms_projection =
      lowered.want_nms ? fact_projection : SkipTable();

  for (const PlannerLeafInfo& leaf : stats.leaves) {
    const LeafDecodeStats& ds = *leaf.stats;
    // Fragment-cache discount: decoded bytes of this leaf resident in the
    // framework's fragment cache will not be produced again, so a cached
    // fragment prices at ~0. Saturating — the resident bytes can exceed a
    // *projected* decode's cost (the cache may hold columns this query does
    // not read). Zero without a cache, so every cost below is byte-for-byte
    // the pre-cache prediction.
    const uint64_t cached = leaf.fragment_cached_bytes;
    auto discounted = [cached](uint64_t cost) {
      return cost > cached ? cost - cached : 0;
    };
    plan.cost_row += discounted(ds.FullDecodeBytes());
    if (can_skip && leaf.summary != nullptr &&
        !SummaryIntersectsCells(*leaf.summary, wanted)) {
      ++plan.leaves_skipped;
      continue;
    }
    if (!ds.columnar) {
      // Row leaf: a restricted decode still inflates the full text.
      plan.cost_projected += discounted(ds.raw_bytes);
      continue;
    }
    uint64_t leaf_cost = ds.meta_bytes;
    if (lowered.has_box) leaf_cost += ds.spidx_bytes;
    leaf_cost += ColumnarTableBytes(ds.cdr_column_bytes, cdr_projection);
    leaf_cost += ColumnarTableBytes(ds.nms_column_bytes, nms_projection);
    plan.cost_projected += discounted(leaf_cost);
  }

  // Ties go to the row scan: when restriction buys nothing, the plain path
  // avoids the projection machinery entirely.
  if (plan.cost_projected < plan.cost_row) {
    plan.scan = PlanScanKind::kProjectedScan;
    plan.predicted_bytes = plan.cost_projected;
  } else {
    plan.scan = PlanScanKind::kRowScan;
    plan.predicted_bytes = plan.cost_row;
  }
  return plan;
}

Result<SqlResult> ExecutePlan(Framework& framework, const QueryPlan& plan,
                              ResultCache* cache,
                              uint64_t* actual_bytes_decoded) {
  if (actual_bytes_decoded != nullptr) *actual_bytes_decoded = 0;
  SPATE_ASSIGN_OR_RETURN(
      SqlEvaluation eval,
      SqlEvaluation::Prepare(plan.statement, framework.cell_rows()));
  switch (plan.scan) {
    case PlanScanKind::kCellScan:
      for (const Record& row : framework.cell_rows()) eval.ConsumeRow(row);
      return eval.Finish();
    case PlanScanKind::kEmptyScan:
      return eval.Finish();
    case PlanScanKind::kSummaryAnswer: {
      SPATE_ASSIGN_OR_RETURN(
          NodeSummary summary,
          framework.AggregateWindow(eval.window_begin(), eval.window_end()));
      return eval.AnswerFromSummary(summary);
    }
    case PlanScanKind::kCacheServe: {
      if (cache != nullptr) {
        std::optional<QueryResult> hit =
            cache->Lookup(plan.query, framework.cells());
        if (hit.has_value()) {
          const std::vector<Record>& rows =
              eval.is_cdr() ? hit->cdr_rows : hit->nms_rows;
          for (const Record& row : rows) eval.ConsumeRow(row);
          return eval.Finish();
        }
      }
      // Raced out between planning and execution (eviction, Clear): run
      // the same lowered query as a scan — bit-identical, just slower.
      return RunScan(framework, plan.query, eval, cache, actual_bytes_decoded,
                     /*projected=*/true);
    }
    case PlanScanKind::kProjectedScan:
      return RunScan(framework, plan.query, eval, cache, actual_bytes_decoded,
                     /*projected=*/true);
    case PlanScanKind::kRowScan:
      return RunScan(framework, RowQueryFor(plan.query), eval, cache,
                     actual_bytes_decoded, /*projected=*/false);
  }
  return Status::Internal("sql: unreachable plan kind");
}

Result<SqlResult> ExecutePlannedSql(Framework& framework,
                                    std::string_view sql,
                                    ResultCache* cache) {
  SPATE_ASSIGN_OR_RETURN(SelectStatement statement, ParseSql(sql));
  SPATE_ASSIGN_OR_RETURN(QueryPlan plan,
                         PlanSelect(framework, statement, cache));
  return ExecutePlan(framework, plan, cache);
}

Result<PreparedStatement> PrepareStatement(std::string_view sql) {
  SPATE_ASSIGN_OR_RETURN(SelectStatement statement, ParseSql(sql));
  PreparedStatement prepared;
  prepared.num_params = statement.num_params;
  prepared.statement = std::move(statement);
  return prepared;
}

Result<SelectStatement> BindParams(const PreparedStatement& prepared,
                                   const std::vector<std::string>& params) {
  if (params.size() != static_cast<size_t>(prepared.num_params)) {
    return Status::InvalidArgument(
        "sql: statement takes " + std::to_string(prepared.num_params) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  SelectStatement statement = prepared.statement;
  for (Predicate& pred : statement.where) {
    if (pred.param >= 0) {
      pred.literal = params[static_cast<size_t>(pred.param)];
      pred.param = -1;
    }
  }
  statement.num_params = 0;
  return statement;
}

}  // namespace spate
