#include "baseline/shahed_framework.h"

#include "common/stopwatch.h"

namespace spate {

ShahedFramework::ShahedFramework(DfsOptions dfs_options,
                                 const std::vector<Record>& cell_rows)
    : dfs_(dfs_options), cells_(cell_rows), cell_rows_(cell_rows) {
  // A constructor has no Status channel, and a freshly constructed DFS
  // (no killed datanodes, empty namespace) cannot refuse its first write;
  // the baseline is a measurement rig, not a durability surface.
  (void)dfs_.WriteFile("/shahed/meta/cells", SerializeCells(cell_rows));
}

Status ShahedFramework::Ingest(const Snapshot& snapshot) {
  last_ingest_ = IngestStats();
  Stopwatch timer;
  const std::string text = SerializeSnapshot(snapshot);
  last_ingest_.compress_seconds = timer.ElapsedSeconds();  // serialize only

  const double io_before = dfs_.stats().simulated_write_seconds;
  const std::string path =
      "/shahed/data/" + FormatCompact(snapshot.epoch_start);
  SPATE_RETURN_IF_ERROR(dfs_.WriteFile(path, text));
  last_ingest_.store_seconds =
      dfs_.stats().simulated_write_seconds - io_before;
  last_ingest_.stored_bytes = text.size();

  Stopwatch index_timer;
  LeafNode leaf;
  leaf.epoch_start = snapshot.epoch_start;
  leaf.dfs_path = path;
  leaf.stored_bytes = text.size();
  leaf.summary.AddSnapshot(snapshot);
  Status add = index_.AddLeaf(std::move(leaf));
  last_ingest_.index_seconds = index_timer.ElapsedSeconds();
  return add;
}

// Like RAW, SHAHED polls no token and has no degraded reads.
Status ShahedFramework::Scan(const ExplorationQuery& query,
                             QueryContext* /*ctx*/,
                             const std::function<void(const Snapshot&)>& fn) {
  const ScanRestriction restriction = ResolveScanRestriction(query, cells_);
  for (const LeafNode* leaf :
       index_.LeavesInWindow(query.window_begin, query.window_end)) {
    SPATE_ASSIGN_OR_RETURN(std::string text, dfs_.ReadFile(leaf->dfs_path));
    Snapshot snapshot;
    SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &snapshot));
    if (restriction.restricted()) {
      fn(restriction.Apply(snapshot));
    } else {
      fn(snapshot);
    }
  }
  return Status::OK();
}

Result<QueryResult> ShahedFramework::Execute(const ExplorationQuery& query) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  QueryResult result;
  result.exact = true;  // nothing decays: always full resolution
  result.served_from = IndexLevel::kEpoch;
  SPATE_RETURN_IF_ERROR(ScanWindow(
      query.window_begin, query.window_end, [&](const Snapshot& snapshot) {
        FilterSnapshotRows(snapshot, query, cells_, &result.cdr_rows,
                           &result.nms_rows);
      }));
  result.summary = RestrictSummaryToBox(
      index_.SummarizeWindow(query.window_begin, query.window_end), query,
      cells_);
  return result;
}

Result<NodeSummary> ShahedFramework::AggregateWindow(Timestamp begin,
                                                     Timestamp end) {
  return index_.SummarizeWindow(begin, end);
}

uint64_t ShahedFramework::StorageBytes() const {
  return dfs_.TotalLogicalBytes();
}

}  // namespace spate
