#ifndef SPATE_INDEX_TEMPORAL_INDEX_H_
#define SPATE_INDEX_TEMPORAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/highlights.h"

namespace spate {

/// Temporal resolution levels of the SPATE index (Fig. 5): 30-minute epoch
/// leaves under day, month and year nodes, with a root spanning everything.
enum class IndexLevel { kEpoch, kDay, kMonth, kYear, kRoot };

std::string_view IndexLevelName(IndexLevel level);

/// Highlight frequency threshold theta_i of a level (Section V-B: lower
/// thresholds for higher resolution levels): 0.05 for epoch leaves and
/// days, 0.02 for months, 0.01 for years and the root.
double HighlightThreshold(IndexLevel level);

/// Exact decode-cost statistics of one leaf, recorded at ingest (or
/// recomputed during recovery) for the SQL planner's cost model: how many
/// plaintext bytes each kind of read of this leaf produces. For a row leaf
/// only `raw_bytes` is meaningful (any read decompresses the full text);
/// for a columnar leaf the per-chunk sizes predict a projected read
/// exactly — "@meta" plus the selected column chunks, plus "@spidx" when a
/// bounding box restricts rows (`ScanStats::bytes_decoded` counts the
/// same quantities on the decode side).
struct LeafDecodeStats {
  /// The leaf is a 0xCD columnar container (per-chunk fields below apply).
  bool columnar = false;
  /// Row layout: serialized snapshot text size (the cost of any decode).
  uint64_t raw_bytes = 0;
  /// Columnar layout: plaintext size of the "@meta" / "@spidx" chunks.
  uint64_t meta_bytes = 0;
  uint64_t spidx_bytes = 0;
  /// Columnar layout: plaintext size of each per-column chunk, indexed by
  /// column position (CDR and NMS tables respectively).
  std::vector<uint64_t> cdr_column_bytes;
  std::vector<uint64_t> nms_column_bytes;

  /// Bytes of a full (unprojected, unrestricted) decode: the row text, or
  /// "@meta" plus every column chunk ("@spidx" is not decoded then).
  uint64_t FullDecodeBytes() const {
    if (!columnar) return raw_bytes;
    uint64_t total = meta_bytes;
    for (uint64_t b : cdr_column_bytes) total += b;
    for (uint64_t b : nms_column_bytes) total += b;
    return total;
  }
};

/// Leaf of the index: one ingested snapshot. The raw (compressed) bytes live
/// on the DFS at `dfs_path`; the leaf keeps only the materialized summary.
/// After decay the DFS file is gone (`decayed`), but the summary — and all
/// the roll-ups it fed — survive.
struct LeafNode {
  Timestamp epoch_start = 0;
  std::string dfs_path;
  uint64_t stored_bytes = 0;  // compressed size on the DFS (0 once decayed)
  NodeSummary summary;
  bool decayed = false;
  /// Plaintext sizes a decode of this leaf produces (SQL planner input).
  LeafDecodeStats decode_stats;
};

struct DayNode {
  Timestamp day_start = 0;
  std::vector<LeafNode> leaves;
  NodeSummary summary;
  /// Recovery: the day's raw leaves decayed before the restart; only the
  /// summary survives (windows touching it are not fully resolved).
  bool sealed = false;
};

struct MonthNode {
  Timestamp month_start = 0;
  std::vector<DayNode> days;
  NodeSummary summary;
};

struct YearNode {
  Timestamp year_start = 0;
  std::vector<MonthNode> months;
  NodeSummary summary;
};

/// The decaying policy ("data fungus"). SPATE's chosen fungus is "Evict
/// Oldest Individuals" (Section V-C): raw snapshot leaves older than the
/// full-resolution window are purged from replicated storage oldest-first,
/// while every aggregate summary is retained indefinitely.
struct DecayPolicy {
  /// How long raw leaves stay available for exact queries.
  int64_t full_resolution_seconds = 365ll * 86400;
  /// Second decay stage ("progressive loss of detail"): after this horizon
  /// even the day-level summaries decay — day nodes are pruned and the
  /// period is served at month resolution. Clamped to be no shorter than
  /// `full_resolution_seconds` plus one day.
  int64_t day_resolution_seconds = 2ll * 365 * 86400;
};

/// Result of looking up the smallest single node covering a time window.
struct CoveringNode {
  IndexLevel level = IndexLevel::kRoot;
  Timestamp start = 0;
  const NodeSummary* summary = nullptr;
};

/// Multi-resolution temporal index with incremental (rightmost-path)
/// insertion, bottom-up highlight roll-up and decay (the paper's Indexing
/// layer: incremence + highlights + decaying modules).
///
/// Thread-safety: not internally synchronized. Mutators (`Insert`, decay,
/// seal) run only on the framework's ingestion thread, which owns the
/// object. Const lookups (`LeavesInWindow`, covering-node queries) are safe
/// to call from many threads *only while no mutator runs*; the framework's
/// scan fan-out relies on exactly this — worker threads hold `const
/// LeafNode*` pointers collected up front while the external
/// one-writer-or-many-readers contract (see DESIGN.md "Concurrency model")
/// guarantees no concurrent `Insert` invalidates them mid-scan.
class SPATE_EXTERNALLY_SYNCHRONIZED TemporalIndex {
 public:
  TemporalIndex() = default;

  /// Incremence module: appends a leaf on the rightmost path, creating
  /// dummy day/month/year nodes as periods roll over. Leaves must arrive in
  /// strictly increasing epoch order (the arrival clock of the stream);
  /// out-of-order snapshots are rejected with InvalidArgument. A leaf that
  /// arrives already `decayed` acts as a placeholder for data lost to
  /// storage faults (recovery uses this): it counts as decayed and windows
  /// touching it are not fully resolved.
  Status AddLeaf(LeafNode leaf);

  /// Smallest single node (day -> month -> year -> root) whose period fully
  /// covers [begin, end) — the paper's index descent for Q(a, b, w).
  CoveringNode FindCovering(Timestamp begin, Timestamp end) const;

  /// Non-decayed leaves whose epoch intersects [begin, end), in time order.
  std::vector<const LeafNode*> LeavesInWindow(Timestamp begin,
                                              Timestamp end) const;

  /// Merged summary of all data in [begin, end), using whole-day node
  /// summaries where the window covers a full day and leaf summaries at the
  /// fringes. Works across decayed regions (summaries outlive raw leaves).
  NodeSummary SummarizeWindow(Timestamp begin, Timestamp end) const;

  /// True if every ingested leaf intersecting the window is still at full
  /// resolution (none decayed) — exact queries are then possible.
  bool WindowFullyResolved(Timestamp begin, Timestamp end) const;

  /// Recovery path: appends a *sealed* day that has no resident leaves
  /// (its raw data decayed before the restart) but whose persisted summary
  /// survives; the summary rolls up into month/year/root as usual. Must
  /// respect stream order like `AddLeaf`.
  Status AddSealedDay(Timestamp day_start, NodeSummary summary);

  /// Decaying module: evicts raw leaves older than the policy window,
  /// oldest first; then prunes whole day nodes older than the day-summary
  /// window (their data lives on in the month/year/root summaries).
  /// `evict` is called once per evicted leaf and `evict_day` once per
  /// pruned day (e.g. to delete the DFS files). Returns the number of
  /// leaves evicted.
  size_t Decay(const DecayPolicy& policy, Timestamp now,
               const std::function<void(const LeafNode&)>& evict,
               const std::function<void(const DayNode&)>& evict_day = nullptr);

  const NodeSummary& root_summary() const { return root_summary_; }
  const std::vector<YearNode>& years() const { return years_; }

  size_t num_leaves() const { return num_leaves_; }
  size_t num_decayed() const { return num_decayed_; }
  /// Day nodes pruned by the second decay stage.
  size_t num_pruned_days() const { return num_pruned_days_; }
  /// Compressed bytes still held by non-decayed leaves.
  uint64_t resident_leaf_bytes() const { return resident_leaf_bytes_; }
  /// Timestamp of the newest ingested leaf (-1 when empty).
  Timestamp newest_epoch() const { return newest_epoch_; }
  /// Start of the oldest period ever ingested (-1 when empty).
  Timestamp first_epoch() const { return first_epoch_; }
  /// Everything before this timestamp has lost full resolution.
  Timestamp decayed_until() const { return decayed_until_; }

  /// Deep structural self-check (the index-shape invariant of
  /// `spate::check::Fsck`): calendar alignment and strict time order at
  /// every level, arity bounds (<= 12 months/year, <= 31 days/month,
  /// <= 48 epoch leaves/day), the open rightmost spine (the newest leaf or
  /// sealed day lives at the end of the last day/month/year), sealed days
  /// carrying no leaves, and the derived counters
  /// (`num_leaves`/`num_decayed`/`resident_leaf_bytes`/epoch bounds)
  /// agreeing with a full walk. Returns every problem found, empty when the
  /// shape is sound. O(total leaves) — fsck-time, not hot-path.
  std::vector<std::string> ShapeProblems() const;

 private:
  /// Test-only corruption hook: fsck tests reach through this to seed
  /// shape/highlight/decay violations that no public mutator can produce.
  friend class TemporalIndexTestAccess;

  std::vector<YearNode> years_;
  NodeSummary root_summary_;
  size_t num_leaves_ = 0;
  size_t num_decayed_ = 0;
  size_t num_pruned_days_ = 0;
  uint64_t resident_leaf_bytes_ = 0;
  Timestamp newest_epoch_ = -1;
  Timestamp first_epoch_ = -1;
  Timestamp decayed_until_ = -1;
};

}  // namespace spate

#endif  // SPATE_INDEX_TEMPORAL_INDEX_H_
