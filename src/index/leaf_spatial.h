#ifndef SPATE_INDEX_LEAF_SPATIAL_H_
#define SPATE_INDEX_LEAF_SPATIAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "telco/snapshot.h"

namespace spate {

/// Per-leaf spatial index (Section V-A): maps each cell id to the row
/// positions it occupies inside one snapshot, so a bounding-box read can
/// jump straight to the matching rows instead of filtering every row.
///
/// It backs the "@spidx" chunk of a columnar leaf (core/columnar_leaf.h),
/// where a box read decodes only the matching rows of each column. Row
/// leaves carry no such index: the paper decides against a separate
/// per-leaf index ("snapshots are usually not very large, thus an
/// additional index would only provide modest additional query response
/// time benefits at the price of additional storage space"), and
/// EXPERIMENTS.md records the measured trade-off.
class LeafSpatialIndex {
 public:
  LeafSpatialIndex() = default;

  /// Builds the index from a parsed snapshot.
  static LeafSpatialIndex Build(const Snapshot& snapshot);

  /// Row positions of `cell_id` within the snapshot's CDR table (ascending).
  const std::vector<uint32_t>* CdrRows(const std::string& cell_id) const;
  /// Row positions of `cell_id` within the snapshot's NMS table (ascending).
  const std::vector<uint32_t>* NmsRows(const std::string& cell_id) const;

  /// Cells present in the snapshot, sorted.
  std::vector<std::string> Cells() const;

  size_t num_cells() const { return cells_.size(); }

  /// Compact binary serialization (varint-delta row lists).
  std::string Serialize() const;
  static Status Parse(Slice data, LeafSpatialIndex* index);

  /// Memberwise equality. The comparison bottoms out in `CellRows`'s
  /// defaulted `operator==` — both tables' row-position lists participate,
  /// so two indexes differing only in (say) an NMS row list compare
  /// unequal in both directions.
  bool operator==(const LeafSpatialIndex& other) const = default;

 private:
  struct CellRows {
    std::vector<uint32_t> cdr;
    std::vector<uint32_t> nms;

    bool operator==(const CellRows& other) const = default;
  };
  std::map<std::string, CellRows> cells_;
};

}  // namespace spate

#endif  // SPATE_INDEX_LEAF_SPATIAL_H_
