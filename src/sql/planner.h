#ifndef SPATE_SQL_PLANNER_H_
#define SPATE_SQL_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/result_cache.h"
#include "sql/ast.h"
#include "sql/executor.h"

namespace spate {

/// The access path a plan uses to reach the fact rows, cheapest first in
/// the planner's preference order. Whatever path is chosen, the rows (or
/// summary) feed the same `SqlEvaluation`, so every plan returns results
/// bit-identical to the naive `ExecuteSql` full scan — the planner may only
/// ever change *how much work* producing them takes.
enum class PlanScanKind {
  /// FROM CELL: answered from the in-memory inventory, no storage touched.
  kCellScan,
  /// The ts predicates are contradictory (empty window): nothing to read.
  kEmptyScan,
  /// Aggregate answered from materialized node summaries (highlight-only):
  /// zero decode, valid only for the whitelisted aggregate shapes over a
  /// fully-resolved epoch-aligned window.
  kSummaryAnswer,
  /// A `ResultCache` entry covers the lowered query: rows replayed from
  /// memory, zero decode (falls back to a scan if raced out by eviction).
  kCacheServe,
  /// `ScanWindowProjected` with the lowered attribute set, fact-table mask
  /// and optional cell box: decodes only the needed column chunks and
  /// spatially skips provably-disjoint leaves.
  kProjectedScan,
  /// Plain full-window `ScanWindow`: every in-window byte is decoded. The
  /// fallback when restriction would not beat it (e.g. `SELECT *` over
  /// row-layout leaves).
  kRowScan,
};

/// Canonical names of every node an EXPLAIN tree can contain: the scan
/// kinds above plus the shaping nodes layered over them. tools/lint.py's
/// docs-consistency gate cross-checks the plan-node table of docs/SQL.md
/// against this list — add a node here and the build reminds you to
/// document it.
inline constexpr const char* kPlanNodeNames[] = {
    "Result",        "Limit",    "Sort",          "Aggregate",
    "Filter",        "Join",     "ProjectedScan", "RowScan",
    "SummaryAnswer", "CacheServe", "CellScan",    "EmptyScan",
};

/// EXPLAIN name of a scan kind (an entry of `kPlanNodeNames`).
const char* PlanScanKindName(PlanScanKind kind);

/// A costed execution plan for one SELECT statement. Produced by
/// `PlanSelect`, consumed by `ExecutePlan` and `RenderPlan` (sql/explain.h).
struct QueryPlan {
  /// The planned statement (self-contained copy; evaluations made from the
  /// plan point into it).
  SelectStatement statement;
  PlanScanKind scan = PlanScanKind::kRowScan;
  /// The lowered exploration query of scan-backed plans: attribute
  /// selection (always including ts + cell_id so predicates stay
  /// evaluable), temporal window, optional degenerate cell box and the
  /// fact-table mask. `kRowScan` uses only its window; `kCacheServe` holds
  /// the exact query the cache hit was probed with.
  ExplorationQuery query;
  /// Predicted decompressed bytes of the chosen path (the number EXPLAIN
  /// prints against `ScanStats::bytes_decoded`); exact for SPATE stores.
  /// Zero for plans that decode nothing.
  uint64_t predicted_bytes = 0;
  /// Both sides of the scan decision (0 when statistics are unavailable).
  uint64_t cost_row = 0;
  uint64_t cost_projected = 0;
  /// In-window leaves, and how many of them the projected path would skip
  /// spatially.
  size_t leaves = 0;
  size_t leaves_skipped = 0;
  bool stats_available = false;
  bool window_fully_resolved = false;
  /// The statement's shape allows summary answering (the plan uses it only
  /// when the window statistics also permit).
  bool summary_eligible = false;
  /// The `cell_id = <literal>` restriction pushed down as a degenerate box
  /// (empty when none).
  std::string cell_restrict;
};

/// Lowers a prepared evaluation to the exploration query its scans run:
/// the referenced fact columns (plus ts + cell_id) as the attribute
/// selection, the ts-predicate window, the fact-table mask, and — when the
/// evaluation pins a single known cell — a degenerate box at that cell's
/// coordinates. Residual predicates are always re-applied row-side, so the
/// lowering only ever over-approximates. `cell_restrict` (optional)
/// receives the pushed-down cell id, empty when none. Shared by the
/// planner and the serving tier's SQL front door, so both scatter the same
/// restricted query.
ExplorationQuery LowerToExploration(const SqlEvaluation& eval,
                                    const CellDirectory& cells,
                                    std::string* cell_restrict = nullptr);

/// Plans `statement` against `framework`'s statistics
/// (`CollectPlannerStatistics`) and, optionally, a `ResultCache` to probe
/// for servable entries. Statement errors (unknown columns, unbound
/// parameters, ...) surface here with the executor's diagnostics.
Result<QueryPlan> PlanSelect(Framework& framework,
                             const SelectStatement& statement,
                             ResultCache* cache = nullptr);

/// Executes a plan. `cache` (optional) is consulted by `kCacheServe` plans
/// and fed by completed scans; `actual_bytes_decoded` (optional) receives
/// the scan's `ScanStats::bytes_decoded` (0 for plans that decode
/// nothing) — what EXPLAIN reports against `QueryPlan::predicted_bytes`.
Result<SqlResult> ExecutePlan(Framework& framework, const QueryPlan& plan,
                              ResultCache* cache = nullptr,
                              uint64_t* actual_bytes_decoded = nullptr);

/// Parses, plans and executes in one call — the planned counterpart of
/// `ExecuteSql(framework, sql)`, guaranteed bit-identical to it.
Result<SqlResult> ExecutePlannedSql(Framework& framework,
                                    std::string_view sql,
                                    ResultCache* cache = nullptr);

/// A parsed statement with `?` placeholders awaiting positional binding —
/// SPATE's prepared statements. Parsing and validation costs are paid once;
/// each execution binds fresh literals and replans (plans depend on the
/// literals: the window, the cell box and cache hits all do).
struct PreparedStatement {
  SelectStatement statement;
  int num_params = 0;
};

/// Parses `sql` into a prepared statement (zero `?` placeholders is fine —
/// the statement is then bindable with no parameters).
Result<PreparedStatement> PrepareStatement(std::string_view sql);

/// Binds positional parameters, yielding an executable statement. `params`
/// must have exactly `prepared.num_params` entries; each is substituted as
/// a literal (numbers and strings alike — predicates compare numerically
/// when both sides parse, textually otherwise).
Result<SelectStatement> BindParams(const PreparedStatement& prepared,
                                   const std::vector<std::string>& params);

}  // namespace spate

#endif  // SPATE_SQL_PLANNER_H_
