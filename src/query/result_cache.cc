#include "query/result_cache.h"

#include "common/clock.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// Re-filters cached rows to a narrower window/box.
void NarrowRows(const std::vector<Record>& rows, int ts_column,
                int cell_column, const ExplorationQuery& query,
                const CellDirectory& cells, std::vector<Record>* out) {
  for (const Record& row : rows) {
    const Timestamp ts = ParseCompact(FieldAsString(row, ts_column));
    if (ts < query.window_begin || ts >= query.window_end) continue;
    if (query.has_box) {
      const CellInfo* cell = cells.Find(FieldAsString(row, cell_column));
      if (cell == nullptr || !query.box.Contains(cell->x, cell->y)) continue;
    }
    out->push_back(row);
  }
}

/// Applies an attribute projection to served rows, in place.
void ProjectRows(const TableProjection& projection,
                 std::vector<Record>* rows) {
  if (projection.skip) {
    rows->clear();
    return;
  }
  if (projection.all) return;
  for (Record& row : *rows) row = ProjectRecord(row, projection);
}

}  // namespace

bool ResultCache::Covers(const ExplorationQuery& outer,
                         const ExplorationQuery& inner) {
  // The table mask is part of the entry's identity: rows of a masked-off
  // table were never collected, so an entry cannot serve a query wanting
  // them (nor vice versa — the narrowed summary would see extra rows).
  if (outer.want_cdr != inner.want_cdr || outer.want_nms != inner.want_nms) {
    return false;
  }
  if (!outer.attributes.empty()) {
    // A projected result lacks the predicate columns (ts/cell id unless
    // selected), so it cannot be re-filtered: serve identical queries only.
    return outer.attributes == inner.attributes &&
           outer.window_begin == inner.window_begin &&
           outer.window_end == inner.window_end &&
           outer.has_box == inner.has_box &&
           (!outer.has_box ||
            (outer.box.min_x == inner.box.min_x &&
             outer.box.min_y == inner.box.min_y &&
             outer.box.max_x == inner.box.max_x &&
             outer.box.max_y == inner.box.max_y));
  }
  if (outer.window_begin > inner.window_begin ||
      outer.window_end < inner.window_end) {
    return false;
  }
  if (!outer.has_box) return true;  // whole region cached
  if (!inner.has_box) return false;
  return outer.box.min_x <= inner.box.min_x &&
         outer.box.min_y <= inner.box.min_y &&
         outer.box.max_x >= inner.box.max_x &&
         outer.box.max_y >= inner.box.max_y;
}

bool ResultCache::WouldServe(const ExplorationQuery& query) const {
  MutexLock lock(&mu_);
  for (const Entry& entry : entries_) {
    if (entry.result.exact && Covers(entry.query, query)) return true;
  }
  return false;
}

std::optional<QueryResult> ResultCache::Lookup(const ExplorationQuery& query,
                                               const CellDirectory& cells) {
  MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (!it->result.exact || !Covers(it->query, query)) continue;
    ++hits_;
    // Move to front (most recently used).
    entries_.splice(entries_.begin(), entries_, it);
    const Entry& entry = entries_.front();
    bytes_decoded_saved_ += entry.bytes_decoded;

    if (!entry.query.attributes.empty()) {
      // Projected entry: Covers only matched an identical query, so the
      // stored result is the answer verbatim.
      return entry.result;
    }

    QueryResult narrowed;
    narrowed.exact = true;
    narrowed.served_from = entry.result.served_from;
    NarrowRows(entry.result.cdr_rows, kCdrTs, kCdrCellId, query, cells,
               &narrowed.cdr_rows);
    NarrowRows(entry.result.nms_rows, kNmsTs, kNmsCellId, query, cells,
               &narrowed.nms_rows);
    // Rebuild the aggregate view from the narrowed (still full-width,
    // unprojected) rows, then project for the caller if the incoming query
    // selects attributes — projection last, so the summary metrics see the
    // metric columns even when the selection drops them.
    Snapshot pseudo;
    pseudo.cdr = narrowed.cdr_rows;
    pseudo.nms = narrowed.nms_rows;
    narrowed.summary.AddSnapshot(pseudo);
    narrowed.highlights = narrowed.summary.ExtractHighlights(
        HighlightThreshold(narrowed.served_from));
    if (!query.attributes.empty()) {
      ProjectRows(ResolveProjection(CdrSchema(), query.attributes),
                  &narrowed.cdr_rows);
      ProjectRows(ResolveProjection(NmsSchema(), query.attributes),
                  &narrowed.nms_rows);
    }
    return narrowed;
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::Insert(const ExplorationQuery& query,
                         const QueryResult& result, uint64_t bytes_decoded) {
  if (capacity_ == 0) return;
  MutexLock lock(&mu_);
  if (query.window_begin < decayed_until_) return;
  entries_.push_front(Entry{query, result, bytes_decoded});
  while (entries_.size() > capacity_) entries_.pop_back();
}

void ResultCache::SetDecayedUntil(Timestamp decayed_until) {
  MutexLock lock(&mu_);
  if (decayed_until <= decayed_until_) return;
  decayed_until_ = decayed_until;
  entries_.remove_if([decayed_until](const Entry& entry) {
    return entry.query.window_begin < decayed_until;
  });
}

}  // namespace spate
