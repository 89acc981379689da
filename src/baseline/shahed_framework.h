#ifndef SPATE_BASELINE_SHAHED_FRAMEWORK_H_
#define SPATE_BASELINE_SHAHED_FRAMEWORK_H_

#include <string>
#include <vector>

#include "core/framework.h"

namespace spate {

/// The SHAHED baseline (Section VII-A): the spatio-temporal *aggregate*
/// index of SHAHED/SpatialHadoop isolated and run over the same DFS —
/// temporal pruning and materialized per-node aggregates like SPATE, but no
/// compression and no decaying, so raw text files stay on disk forever.
class ShahedFramework : public Framework {
 public:
  explicit ShahedFramework(DfsOptions dfs_options,
                           const std::vector<Record>& cell_rows);

  std::string_view Name() const override { return "SHAHED"; }
  Status Ingest(const Snapshot& snapshot) override;
  const IngestStats& last_ingest_stats() const override {
    return last_ingest_;
  }
  Result<QueryResult> Execute(const ExplorationQuery& query) override;
  Status Scan(const ExplorationQuery& query, QueryContext* ctx,
              const std::function<void(const Snapshot&)>& fn) override;
  Result<NodeSummary> AggregateWindow(Timestamp begin,
                                      Timestamp end) override;
  uint64_t StorageBytes() const override;
  DistributedFileSystem& dfs() override { return dfs_; }
  const CellDirectory& cells() const override { return cells_; }
  const std::vector<Record>& cell_rows() const override {
    return cell_rows_;
  }

  const TemporalIndex& index() const { return index_; }

 private:
  DistributedFileSystem dfs_;
  CellDirectory cells_;
  std::vector<Record> cell_rows_;
  TemporalIndex index_;
  IngestStats last_ingest_;
};

}  // namespace spate

#endif  // SPATE_BASELINE_SHAHED_FRAMEWORK_H_
