#ifndef SPATE_CORE_FRAMEWORK_H_
#define SPATE_CORE_FRAMEWORK_H_

#include <functional>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/status.h"
#include "dfs/dfs.h"
#include "index/highlights.h"
#include "index/spatial.h"
#include "index/temporal_index.h"
#include "telco/snapshot.h"

namespace spate {

class TableSchema;

/// A data exploration query Q(a, b, w): attribute selection `a`, spatial
/// bounding box `b` and temporal window `w` (Section VI-A).
struct ExplorationQuery {
  /// Selected attributes (`a`). Empty = all.
  std::vector<std::string> attributes;
  /// Spatial bounding box (`b`); ignored unless `has_box`.
  BoundingBox box;
  bool has_box = false;
  /// Temporal window [begin, end) (`w`).
  Timestamp window_begin = 0;
  Timestamp window_end = 0;
  /// Which fact tables the query reads. `Q(a, b, w)` reads both; the SQL
  /// planner lowers a single-table SELECT with the other table masked off,
  /// so projected scans skip its chunks entirely.
  bool want_cdr = true;
  bool want_nms = true;
};

/// Answer to an exploration query. When the window is still at full
/// resolution the result is exact (filtered raw rows); when parts of it have
/// decayed, the result degrades gracefully to the covering node's highlight
/// summary — SPATE's core trade (Section V-C). Storage faults degrade the
/// same way: a leaf whose every replica is unreadable is served like a
/// decayed leaf (`degraded` + `skipped_epochs` say so).
struct QueryResult {
  bool exact = false;
  /// The index level that served the query (epoch = raw leaves).
  IndexLevel served_from = IndexLevel::kEpoch;
  std::vector<Record> cdr_rows;
  std::vector<Record> nms_rows;
  /// Aggregate summary of the served period restricted to `b`'s cells.
  NodeSummary summary;
  std::vector<Highlight> highlights;
  /// True when storage faults (not decay) forced the summary fallback.
  bool degraded = false;
  /// Epoch starts of in-window leaves with no readable replica.
  std::vector<Timestamp> skipped_epochs;
};

/// Outcome of one scan on frameworks that support degraded reads: how many
/// leaves were streamed and which in-window epochs were skipped because no
/// replica of their data could be read.
struct ScanStats {
  size_t leaves_scanned = 0;
  std::vector<Timestamp> skipped_epochs;
  /// Leaves proven disjoint from the query box by their summary's cell-id
  /// set and skipped before any decompression (spatial pushdown; never
  /// counts toward `complete()` — skipping is exact, not degradation).
  size_t leaves_skipped_spatial = 0;
  /// Bytes actually produced by decompression during the scan (cache hits
  /// and skipped leaves contribute nothing). The projection-pushdown win of
  /// the columnar leaf layout shows up here: a narrow query decodes only
  /// the column chunks it needs.
  uint64_t bytes_decoded = 0;
  /// Fragment-cache wins during this scan (core/fragment_cache.h):
  /// fragments served already decoded, and the decompressed bytes those
  /// hits would otherwise have added to `bytes_decoded`. Zero on
  /// frameworks without a fragment cache.
  uint64_t fragment_hits = 0;
  uint64_t bytes_decoded_saved = 0;

  bool complete() const { return skipped_epochs.empty(); }
};

/// Per-call state of one read, owned by the caller and passed down the scan
/// path, so the framework keeps none: reads with distinct contexts share a
/// framework safely.
struct QueryContext {
  /// Polled between leaf decodes; an expired token unwinds the scan with
  /// `kDeadlineExceeded` (never mid-leaf). Not owned; null never cancels.
  const CancelToken* cancel = nullptr;
  /// What the scan did; `Scan` adds to it.
  ScanStats stats;
};

/// One in-window leaf as the SQL planner sees it: enough to predict the
/// decode cost of every access path without touching the DFS. The pointers
/// alias index-owned state and follow the scan-time lifetime contract
/// (valid while no ingest/decay runs — see TemporalIndex's header).
struct PlannerLeafInfo {
  Timestamp epoch_start = 0;
  const LeafDecodeStats* stats = nullptr;
  const NodeSummary* summary = nullptr;
  /// Decoded-fragment bytes of this leaf resident in the framework's
  /// fragment cache: the next scan will not pay to decode them, so the
  /// planner prices them at ~0. Zero without a cache.
  uint64_t fragment_cached_bytes = 0;
};

/// Per-leaf statistics for the cost-based SQL planner
/// (`Framework::CollectPlannerStatistics`). Frameworks without an index
/// return `available == false` and the planner falls back to the naive
/// full-scan path.
struct PlannerStatistics {
  bool available = false;
  /// Every in-window leaf is still at full resolution — exact row answers
  /// are possible and summary answering matches them.
  bool window_fully_resolved = false;
  /// The framework's projected scan skips leaves provably disjoint from the
  /// query box (`SpateOptions::spatial_leaf_skip`).
  bool spatial_leaf_skip = false;
  /// Non-decayed leaves intersecting the window, in time order.
  std::vector<PlannerLeafInfo> leaves;
};

/// Ingestion cost breakdown for one snapshot (Fig. 7/9's metric).
struct IngestStats {
  double compress_seconds = 0;  // serialization + compression CPU
  double store_seconds = 0;     // simulated DFS write time
  double index_seconds = 0;     // incremence + highlights CPU
  uint64_t stored_bytes = 0;    // bytes written for the snapshot

  double total_seconds() const {
    return compress_seconds + store_seconds + index_seconds;
  }
};

/// `ExplorationQuery::attributes` resolved against one table's schema: which
/// columns a projected read must materialize. Projection is
/// position-preserving — a projected row keeps its original width with
/// non-selected fields left empty — so the `kCdr*`/`kNms*` index constants
/// keep working on projected rows and results are byte-comparable across
/// row and columnar leaf layouts.
struct TableProjection {
  /// Materialize every column (`attributes` empty, or every name resolved).
  bool all = true;
  /// The attribute list names no column of this table: the table
  /// contributes no rows at all (a projected scan skips it wholesale).
  bool skip = false;
  /// Sorted, de-duplicated column indices to materialize (unused when
  /// `all` or `skip`).
  std::vector<int> columns;

  bool Keeps(int column) const;
};

/// Resolves `attributes` against `schema`. Unknown names are ignored; an
/// empty list selects every column; a list resolving to no column of this
/// table yields `skip`.
TableProjection ResolveProjection(const TableSchema& schema,
                                  const std::vector<std::string>& attributes);

/// Like `ResolveProjection`, but always force-includes `ts_column` and
/// `cell_column` — the scan-side materialization projection, so window and
/// box predicates can still be evaluated on the projected rows.
TableProjection ScanProjection(const TableSchema& schema,
                               const std::vector<std::string>& attributes,
                               int ts_column, int cell_column);

/// Applies `projection` to one row: the identity when `all`, otherwise a
/// same-width record with only the projected fields copied.
Record ProjectRecord(const Record& row, const TableProjection& projection);

/// Restricts a snapshot for a projected scan: drops rows of skipped tables
/// and (when `wanted_cells` is non-null) rows whose cell id is not in the
/// set, preserving row order; surviving rows are projected. This is the
/// reference semantics every `Framework::Scan` must match byte for byte —
/// the columnar leaf reader produces the same snapshot without ever
/// materializing the dropped columns.
Snapshot RestrictSnapshot(const Snapshot& snapshot,
                          const TableProjection& cdr,
                          const TableProjection& nms,
                          const std::unordered_set<std::string>* wanted_cells);

/// What a scan of one query materializes, derived once for every
/// framework: the per-table scan projections (ts and cell id always kept,
/// masked-off tables skipped) and, with a box, the cells inside it.
struct ScanRestriction {
  TableProjection cdr;
  TableProjection nms;
  bool has_box = false;
  std::unordered_set<std::string> cells;  // only meaningful with a box

  /// The cell filter of `RestrictSnapshot` (null without a box).
  const std::unordered_set<std::string>* wanted_cells() const {
    return has_box ? &cells : nullptr;
  }
  /// False when the scan streams every snapshot untouched.
  bool restricted() const { return !cdr.all || !nms.all || has_box; }
  /// `RestrictSnapshot` under this restriction.
  Snapshot Apply(const Snapshot& snapshot) const {
    return RestrictSnapshot(snapshot, cdr, nms, wanted_cells());
  }
};

/// `query`'s restriction; its box resolves to cells through `cells`.
ScanRestriction ResolveScanRestriction(const ExplorationQuery& query,
                                       const CellDirectory& cells);

/// Common surface of the three compared frameworks (RAW / SHAHED / SPATE),
/// so every task and benchmark runs unchanged against each.
class Framework {
 public:
  virtual ~Framework() = default;

  virtual std::string_view Name() const = 0;

  /// Ingests one arriving snapshot (storage + any indexing).
  virtual Status Ingest(const Snapshot& snapshot) = 0;

  /// Cost breakdown of the most recent `Ingest`.
  virtual const IngestStats& last_ingest_stats() const = 0;

  /// Evaluates a data exploration query; when it scans, the scan's stats
  /// are what `last_scan_stats()` reports next.
  virtual Result<QueryResult> Execute(const ExplorationQuery& query) = 0;

  /// The one scan: streams every stored snapshot intersecting the query
  /// window through `fn`, in time order (decompressing as needed),
  /// restricted to the query's attribute selection, fact tables and box
  /// (`ScanRestriction` / `RestrictSnapshot` semantics — same-width rows
  /// with non-selected fields empty, skipped tables contributing no rows;
  /// an unrestricted query streams snapshots untouched). The workhorse of
  /// the task suite (T1-T8), the SQL layer and `Execute`. Per-call state
  /// lives in `ctx` alone. SPATE polls `ctx->cancel`, skips unreadable
  /// leaves into `ctx->stats` (degraded reads), decodes only the needed
  /// column chunks of columnar leaves and skips leaves provably disjoint
  /// from the box (`fn` is then not called for them — restriction would
  /// have emptied them). The baselines restrict in memory, ignore the
  /// token and leave the stats empty — they fail or finish.
  virtual Status Scan(const ExplorationQuery& query, QueryContext* ctx,
                      const std::function<void(const Snapshot&)>& fn) = 0;

  /// `Scan` of [begin, end) with no restriction.
  Status ScanWindow(Timestamp begin, Timestamp end,
                    const std::function<void(const Snapshot&)>& fn);

  /// `Scan` with a fresh context whose stats `last_scan_stats()` then
  /// reports.
  Status ScanWindowProjected(const ExplorationQuery& query,
                             const std::function<void(const Snapshot&)>& fn);

  /// Stats of the most recent `ScanWindow`/`ScanWindowProjected`/`Execute`
  /// scan. Unlike `Scan`, those writers are externally synchronized.
  const ScanStats& last_scan_stats() const { return last_scan_; }

  /// Aggregate summary of [begin, end): index-backed frameworks merge
  /// materialized node summaries; RAW scans and re-aggregates.
  virtual Result<NodeSummary> AggregateWindow(Timestamp begin,
                                              Timestamp end) = 0;

  /// Plan-visible statistics of [begin, end) for the cost-based SQL
  /// planner: per-leaf layout, decode costs and spatial summaries. The
  /// default (baselines) reports `available == false`; SPATE overrides it
  /// from the temporal index. Safe alongside `Scan`s; the returned
  /// pointers are valid until the next mutator.
  virtual PlannerStatistics CollectPlannerStatistics(Timestamp begin,
                                                     Timestamp end) const {
    (void)begin;
    (void)end;
    return {};
  }

  /// Total logical bytes this framework occupies on its DFS (data + index):
  /// the S' = Sc + Si of the paper's Space metric.
  virtual uint64_t StorageBytes() const = 0;

  /// The framework's file system (for I/O accounting).
  virtual DistributedFileSystem& dfs() = 0;

  /// The static cell inventory shared by all frameworks.
  virtual const CellDirectory& cells() const = 0;

  /// The raw CELL table rows (for SQL over the CELL table).
  virtual const std::vector<Record>& cell_rows() const = 0;

 protected:
  /// For an `Execute` override that records the stats of the read it ran.
  void set_last_scan_stats(ScanStats stats) { last_scan_ = std::move(stats); }

 private:
  ScanStats last_scan_;
};

/// Filters `snapshot` rows to those inside the window and (optionally) the
/// box's cells, appending to the result vectors; when the query selects
/// attributes, surviving rows are projected (`ProjectRecord`) and tables
/// the selection does not touch contribute no rows. Shared by
/// implementations, so all three frameworks agree byte for byte.
void FilterSnapshotRows(const Snapshot& snapshot,
                        const ExplorationQuery& query,
                        const CellDirectory& cells,
                        std::vector<Record>* cdr_out,
                        std::vector<Record>* nms_out);

/// Restricts `summary` to the cells inside `query.box` (all cells if the
/// query has no box).
NodeSummary RestrictSummaryToBox(const NodeSummary& summary,
                                 const ExplorationQuery& query,
                                 const CellDirectory& cells);

}  // namespace spate

#endif  // SPATE_CORE_FRAMEWORK_H_
