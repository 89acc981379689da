#ifndef SPATE_BASELINE_RAW_FRAMEWORK_H_
#define SPATE_BASELINE_RAW_FRAMEWORK_H_

#include <string>
#include <vector>

#include "core/framework.h"

namespace spate {

/// The RAW baseline (Section VII-A): snapshots stored as plain text files
/// on the DFS, with no compression, no index and no decaying. Every query
/// lists and scans the whole dataset.
class RawFramework : public Framework {
 public:
  explicit RawFramework(DfsOptions dfs_options,
                        const std::vector<Record>& cell_rows);

  std::string_view Name() const override { return "RAW"; }
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

 private:
  DistributedFileSystem dfs_;
  CellDirectory cells_;
  std::vector<Record> cell_rows_;
  IngestStats last_ingest_;
};

}  // namespace spate

#endif  // SPATE_BASELINE_RAW_FRAMEWORK_H_
