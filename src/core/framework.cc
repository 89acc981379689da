#include "core/framework.h"

#include <algorithm>

#include "telco/schema.h"

namespace spate {
namespace {

/// True if the record's cell is inside the query box (or there is no box).
bool CellInBox(const std::string& cell_id, const ExplorationQuery& query,
               const CellDirectory& cells) {
  if (!query.has_box) return true;
  const CellInfo* info = cells.Find(cell_id);
  return info != nullptr && query.box.Contains(info->x, info->y);
}

/// Restricts one table's rows (row-order preserving) for RestrictSnapshot.
void RestrictTable(const std::vector<Record>& rows,
                   const TableProjection& projection, int cell_column,
                   const std::unordered_set<std::string>* wanted_cells,
                   std::vector<Record>* out) {
  if (projection.skip) return;
  for (const Record& row : rows) {
    if (wanted_cells != nullptr &&
        wanted_cells->count(FieldAsString(row, cell_column)) == 0) {
      continue;
    }
    out->push_back(ProjectRecord(row, projection));
  }
}

}  // namespace

bool TableProjection::Keeps(int column) const {
  if (skip) return false;
  if (all) return true;
  return std::binary_search(columns.begin(), columns.end(), column);
}

TableProjection ResolveProjection(
    const TableSchema& schema, const std::vector<std::string>& attributes) {
  TableProjection projection;
  if (attributes.empty()) return projection;  // all
  for (const std::string& name : attributes) {
    const int column = schema.IndexOf(name);
    if (column >= 0) projection.columns.push_back(column);
  }
  std::sort(projection.columns.begin(), projection.columns.end());
  projection.columns.erase(
      std::unique(projection.columns.begin(), projection.columns.end()),
      projection.columns.end());
  if (projection.columns.empty()) {
    projection.all = false;
    projection.skip = true;
  } else if (projection.columns.size() == schema.num_attributes()) {
    projection.columns.clear();  // every column named: same as all
  } else {
    projection.all = false;
  }
  return projection;
}

TableProjection ScanProjection(const TableSchema& schema,
                               const std::vector<std::string>& attributes,
                               int ts_column, int cell_column) {
  TableProjection projection = ResolveProjection(schema, attributes);
  if (projection.all || projection.skip) return projection;
  for (int forced : {ts_column, cell_column}) {
    auto it = std::lower_bound(projection.columns.begin(),
                               projection.columns.end(), forced);
    if (it == projection.columns.end() || *it != forced) {
      projection.columns.insert(it, forced);
    }
  }
  if (projection.columns.size() == schema.num_attributes()) {
    projection.columns.clear();
    projection.all = true;
  }
  return projection;
}

Record ProjectRecord(const Record& row, const TableProjection& projection) {
  if (projection.all) return row;
  Record projected(row.size());
  if (projection.skip) return projected;
  for (int column : projection.columns) {
    const size_t i = static_cast<size_t>(column);
    if (i < row.size()) projected[i] = row[i];
  }
  return projected;
}

Snapshot RestrictSnapshot(
    const Snapshot& snapshot, const TableProjection& cdr,
    const TableProjection& nms,
    const std::unordered_set<std::string>* wanted_cells) {
  Snapshot restricted;
  restricted.epoch_start = snapshot.epoch_start;
  RestrictTable(snapshot.cdr, cdr, kCdrCellId, wanted_cells,
                &restricted.cdr);
  RestrictTable(snapshot.nms, nms, kNmsCellId, wanted_cells,
                &restricted.nms);
  return restricted;
}

ScanRestriction ResolveScanRestriction(const ExplorationQuery& query,
                                       const CellDirectory& cells) {
  const TableProjection kSkip{/*all=*/false, /*skip=*/true, {}};
  ScanRestriction r;
  r.cdr = query.want_cdr ? ScanProjection(CdrSchema(), query.attributes,
                                          kCdrTs, kCdrCellId)
                         : kSkip;
  r.nms = query.want_nms ? ScanProjection(NmsSchema(), query.attributes,
                                          kNmsTs, kNmsCellId)
                         : kSkip;
  r.has_box = query.has_box;
  if (query.has_box) {
    const std::vector<std::string> in_box = cells.CellsInBox(query.box);
    r.cells.insert(in_box.begin(), in_box.end());
  }
  return r;
}

Status Framework::ScanWindow(Timestamp begin, Timestamp end,
                             const std::function<void(const Snapshot&)>& fn) {
  ExplorationQuery everything;
  everything.window_begin = begin;
  everything.window_end = end;
  return ScanWindowProjected(everything, fn);
}

Status Framework::ScanWindowProjected(
    const ExplorationQuery& query,
    const std::function<void(const Snapshot&)>& fn) {
  QueryContext ctx;
  const Status status = Scan(query, &ctx, fn);
  last_scan_ = std::move(ctx.stats);
  return status;
}

void FilterSnapshotRows(const Snapshot& snapshot,
                        const ExplorationQuery& query,
                        const CellDirectory& cells,
                        std::vector<Record>* cdr_out,
                        std::vector<Record>* nms_out) {
  const TableProjection cdr_projection =
      ResolveProjection(CdrSchema(), query.attributes);
  const TableProjection nms_projection =
      ResolveProjection(NmsSchema(), query.attributes);
  if (query.want_cdr && !cdr_projection.skip) {
    for (const Record& row : snapshot.cdr) {
      const Timestamp ts = ParseCompact(FieldAsString(row, kCdrTs));
      if (ts < query.window_begin || ts >= query.window_end) continue;
      if (!CellInBox(FieldAsString(row, kCdrCellId), query, cells)) continue;
      cdr_out->push_back(ProjectRecord(row, cdr_projection));
    }
  }
  if (query.want_nms && !nms_projection.skip) {
    for (const Record& row : snapshot.nms) {
      const Timestamp ts = ParseCompact(FieldAsString(row, kNmsTs));
      if (ts < query.window_begin || ts >= query.window_end) continue;
      if (!CellInBox(FieldAsString(row, kNmsCellId), query, cells)) continue;
      nms_out->push_back(ProjectRecord(row, nms_projection));
    }
  }
}

NodeSummary RestrictSummaryToBox(const NodeSummary& summary,
                                 const ExplorationQuery& query,
                                 const CellDirectory& cells) {
  if (!query.has_box) return summary;
  return summary.FilterCells([&](const std::string& cell_id) {
    const CellInfo* info = cells.Find(cell_id);
    return info != nullptr && query.box.Contains(info->x, info->y);
  });
}

}  // namespace spate
