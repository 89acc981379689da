#include "baseline/raw_framework.h"

#include "common/stopwatch.h"

namespace spate {

RawFramework::RawFramework(DfsOptions dfs_options,
                           const std::vector<Record>& cell_rows)
    : dfs_(dfs_options), cells_(cell_rows), cell_rows_(cell_rows) {
  // A constructor has no Status channel, and a freshly constructed DFS
  // (no killed datanodes, empty namespace) cannot refuse its first write;
  // the baseline is a measurement rig, not a durability surface.
  (void)dfs_.WriteFile("/raw/meta/cells", SerializeCells(cell_rows));
}

Status RawFramework::Ingest(const Snapshot& snapshot) {
  last_ingest_ = IngestStats();
  Stopwatch timer;
  const std::string text = SerializeSnapshot(snapshot);
  last_ingest_.compress_seconds = timer.ElapsedSeconds();  // serialize only

  const double io_before = dfs_.stats().simulated_write_seconds;
  const std::string path =
      "/raw/data/" + FormatCompact(snapshot.epoch_start);
  SPATE_RETURN_IF_ERROR(dfs_.WriteFile(path, text));
  last_ingest_.store_seconds =
      dfs_.stats().simulated_write_seconds - io_before;
  last_ingest_.stored_bytes = text.size();
  return Status::OK();
}

// The context goes unused: RAW polls no token and has no degraded reads —
// it fails or finishes, which is itself a measured difference.
Status RawFramework::Scan(const ExplorationQuery& query,
                          QueryContext* /*ctx*/,
                          const std::function<void(const Snapshot&)>& fn) {
  const ScanRestriction restriction = ResolveScanRestriction(query, cells_);
  // No index: list the whole dataset and scan every file, filtering after
  // the parse (the "default solution" cost profile).
  for (const std::string& path : dfs_.ListFiles("/raw/data/")) {
    SPATE_ASSIGN_OR_RETURN(std::string text, dfs_.ReadFile(path));
    Snapshot snapshot;
    SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &snapshot));
    if (snapshot.epoch_start + kEpochSeconds <= query.window_begin ||
        snapshot.epoch_start >= query.window_end) {
      continue;
    }
    if (restriction.restricted()) {
      fn(restriction.Apply(snapshot));
    } else {
      fn(snapshot);
    }
  }
  return Status::OK();
}

Result<QueryResult> RawFramework::Execute(const ExplorationQuery& query) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  QueryResult result;
  result.exact = true;
  result.served_from = IndexLevel::kEpoch;
  SPATE_RETURN_IF_ERROR(ScanWindow(
      query.window_begin, query.window_end, [&](const Snapshot& snapshot) {
        FilterSnapshotRows(snapshot, query, cells_, &result.cdr_rows,
                           &result.nms_rows);
        result.summary.AddSnapshot(snapshot);
      }));
  result.summary = RestrictSummaryToBox(result.summary, query, cells_);
  return result;
}

Result<NodeSummary> RawFramework::AggregateWindow(Timestamp begin,
                                                  Timestamp end) {
  // No materialized aggregates: recompute from raw data.
  NodeSummary summary;
  SPATE_RETURN_IF_ERROR(ScanWindow(
      begin, end,
      [&](const Snapshot& snapshot) { summary.AddSnapshot(snapshot); }));
  return summary;
}

uint64_t RawFramework::StorageBytes() const {
  return dfs_.TotalLogicalBytes();
}

}  // namespace spate
