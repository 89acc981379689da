#include "core/framework.h"

#include <gtest/gtest.h>

#include <memory>

#include "baseline/raw_framework.h"
#include "baseline/shahed_framework.h"
#include "core/spate_framework.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

TraceConfig SmallTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 60;
  config.num_antennas = 20;
  config.num_users = 300;
  config.cdr_base_rate = 30;
  config.nms_per_cell = 3.0;
  return config;
}

DfsOptions SmallDfs() {
  DfsOptions opts;
  opts.block_size = 256 * 1024;
  return opts;
}

std::unique_ptr<Framework> MakeFramework(const std::string& name,
                                         const TraceGenerator& gen) {
  if (name == "RAW") {
    return std::make_unique<RawFramework>(SmallDfs(), gen.cells());
  }
  if (name == "SHAHED") {
    return std::make_unique<ShahedFramework>(SmallDfs(), gen.cells());
  }
  SpateOptions options;
  options.dfs = SmallDfs();
  return std::make_unique<SpateFramework>(options, gen.cells());
}

class FrameworkTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    config_ = SmallTrace();
    gen_ = std::make_unique<TraceGenerator>(config_);
    framework_ = MakeFramework(GetParam(), *gen_);
    for (Timestamp epoch : gen_->EpochStarts()) {
      ASSERT_TRUE(framework_->Ingest(gen_->GenerateSnapshot(epoch)).ok());
    }
  }

  size_t TotalGeneratedRecords() const {
    size_t total = 0;
    for (Timestamp epoch : gen_->EpochStarts()) {
      total += gen_->GenerateSnapshot(epoch).size();
    }
    return total;
  }

  TraceConfig config_;
  std::unique_ptr<TraceGenerator> gen_;
  std::unique_ptr<Framework> framework_;
};

TEST_P(FrameworkTest, ScanWindowSeesEveryRecordExactlyOnce) {
  size_t scanned = 0;
  ASSERT_TRUE(framework_
                  ->ScanWindow(config_.start, config_.start + 86400,
                               [&](const Snapshot& s) { scanned += s.size(); })
                  .ok());
  EXPECT_EQ(scanned, TotalGeneratedRecords());
}

TEST_P(FrameworkTest, ScanSubWindowSeesOnlyThoseSnapshots) {
  const Timestamp begin = config_.start + 6 * 3600;
  const Timestamp end = begin + 4 * 3600;
  size_t expected = 0;
  for (Timestamp epoch : gen_->EpochStarts()) {
    if (epoch >= begin && epoch < end) {
      expected += gen_->GenerateSnapshot(epoch).size();
    }
  }
  size_t scanned = 0;
  std::vector<Timestamp> seen;
  ASSERT_TRUE(framework_
                  ->ScanWindow(begin, end,
                               [&](const Snapshot& s) {
                                 scanned += s.size();
                                 seen.push_back(s.epoch_start);
                               })
                  .ok());
  EXPECT_EQ(scanned, expected);
  EXPECT_EQ(seen.size(), 8u);  // 4 hours of 30-min epochs
  // In time order.
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_GT(seen[i], seen[i - 1]);
}

TEST_P(FrameworkTest, ExecuteExactQueryFiltersWindowAndBox) {
  ExplorationQuery query;
  query.window_begin = config_.start + 9 * 3600;
  query.window_end = config_.start + 10 * 3600;
  query.has_box = true;
  const BoundingBox extent = framework_->cells().extent();
  // Left half of the region.
  query.box = BoundingBox{extent.min_x, extent.min_y,
                          (extent.min_x + extent.max_x) / 2, extent.max_y};

  auto result = framework_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exact);
  for (const Record& row : result->cdr_rows) {
    const Timestamp ts = ParseCompact(FieldAsString(row, kCdrTs));
    EXPECT_GE(ts, query.window_begin);
    EXPECT_LT(ts, query.window_end);
    const CellInfo* cell =
        framework_->cells().Find(FieldAsString(row, kCdrCellId));
    ASSERT_NE(cell, nullptr);
    EXPECT_TRUE(query.box.Contains(cell->x, cell->y));
  }
  // The box restriction must drop some cells relative to the whole region.
  ExplorationQuery whole = query;
  whole.has_box = false;
  auto whole_result = framework_->Execute(whole);
  ASSERT_TRUE(whole_result.ok());
  EXPECT_GT(whole_result->cdr_rows.size(), result->cdr_rows.size());
}

TEST_P(FrameworkTest, ExecuteRejectsEmptyWindow) {
  ExplorationQuery query;
  query.window_begin = config_.start;
  query.window_end = config_.start;
  EXPECT_TRUE(framework_->Execute(query).status().IsInvalidArgument());
}

TEST_P(FrameworkTest, AggregateWindowMatchesRescan) {
  const Timestamp begin = config_.start + 8 * 3600;
  const Timestamp end = config_.start + 20 * 3600;
  auto agg = framework_->AggregateWindow(begin, end);
  ASSERT_TRUE(agg.ok());
  NodeSummary expected;
  ASSERT_TRUE(framework_
                  ->ScanWindow(begin, end,
                               [&](const Snapshot& s) {
                                 expected.AddSnapshot(s);
                               })
                  .ok());
  // Counts are exact; sums may differ by float association order between
  // the merged roll-up and one sequential pass.
  EXPECT_EQ(agg->cdr_rows(), expected.cdr_rows());
  EXPECT_EQ(agg->nms_rows(), expected.nms_rows());
  ASSERT_EQ(agg->per_cell().size(), expected.per_cell().size());
  for (const auto& [cell_id, stats] : expected.per_cell()) {
    const auto it = agg->per_cell().find(cell_id);
    ASSERT_NE(it, agg->per_cell().end()) << cell_id;
    EXPECT_EQ(it->second.cdr_rows, stats.cdr_rows);
    EXPECT_EQ(it->second.dropped_calls, stats.dropped_calls);
    for (int m = 0; m < kNumMetrics; ++m) {
      EXPECT_EQ(it->second.metrics[m].count, stats.metrics[m].count);
      EXPECT_DOUBLE_EQ(it->second.metrics[m].min, stats.metrics[m].min);
      EXPECT_DOUBLE_EQ(it->second.metrics[m].max, stats.metrics[m].max);
      EXPECT_NEAR(it->second.metrics[m].sum, stats.metrics[m].sum,
                  1e-6 * (1 + std::abs(stats.metrics[m].sum)));
    }
  }
  EXPECT_EQ(agg->result_counts(), expected.result_counts());
}

TEST_P(FrameworkTest, StorageBytesPositive) {
  EXPECT_GT(framework_->StorageBytes(), 0u);
}

TEST_P(FrameworkTest, IngestStatsPopulated) {
  const IngestStats& stats = framework_->last_ingest_stats();
  EXPECT_GT(stats.stored_bytes, 0u);
  EXPECT_GT(stats.store_seconds, 0.0);
  EXPECT_GE(stats.total_seconds(), stats.store_seconds);
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, FrameworkTest,
                         ::testing::Values("RAW", "SHAHED", "SPATE"));

TEST(FrameworkComparisonTest, SpateUsesAboutTenTimesLessSpace) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto raw = MakeFramework("RAW", gen);
  auto spate = MakeFramework("SPATE", gen);
  for (Timestamp epoch : gen.EpochStarts()) {
    const Snapshot snapshot = gen.GenerateSnapshot(epoch);
    ASSERT_TRUE(raw->Ingest(snapshot).ok());
    ASSERT_TRUE(spate->Ingest(snapshot).ok());
  }
  // Order-of-magnitude storage advantage (the paper's headline).
  EXPECT_GT(raw->StorageBytes(), 6 * spate->StorageBytes());
  // And identical scan results.
  NodeSummary raw_summary, spate_summary;
  ASSERT_TRUE(raw->ScanWindow(config.start, config.start + 86400,
                              [&](const Snapshot& s) {
                                raw_summary.AddSnapshot(s);
                              })
                  .ok());
  ASSERT_TRUE(spate
                  ->ScanWindow(config.start, config.start + 86400,
                               [&](const Snapshot& s) {
                                 spate_summary.AddSnapshot(s);
                               })
                  .ok());
  EXPECT_TRUE(raw_summary == spate_summary);
}

// RAW, the paper's full-scan baseline, is the reference for row-store
// SPATE's box answers: a corner, the middle, the whole extent and a box
// outside the extent must select the same rows, in the same order, with
// the same box-restricted row counts.
TEST(FrameworkComparisonTest, RowStoreBoxQueriesMatchRaw) {
  const TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto raw = MakeFramework("RAW", gen);
  auto spate = MakeFramework("SPATE", gen);
  for (Timestamp epoch : gen.EpochStarts()) {
    const Snapshot snapshot = gen.GenerateSnapshot(epoch);
    ASSERT_TRUE(raw->Ingest(snapshot).ok());
    ASSERT_TRUE(spate->Ingest(snapshot).ok());
  }
  const BoundingBox extent = spate->cells().extent();
  const double w = extent.max_x - extent.min_x;
  const double h = extent.max_y - extent.min_y;
  const BoundingBox boxes[] = {
      {extent.min_x, extent.min_y, extent.min_x + 0.1 * w,
       extent.min_y + 0.1 * h},
      {extent.min_x + 0.3 * w, extent.min_y + 0.2 * h,
       extent.min_x + 0.7 * w, extent.min_y + 0.9 * h},
      extent,
      {extent.max_x + 10, extent.max_y + 10, extent.max_x + 20,
       extent.max_y + 20},  // empty
  };
  size_t rows = 0;
  for (const BoundingBox& box : boxes) {
    ExplorationQuery query;
    query.window_begin = config.start + 9 * 3600;
    query.window_end = config.start + 15 * 3600;
    query.has_box = true;
    query.box = box;
    auto expected = raw->Execute(query);
    auto actual = spate->Execute(query);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(actual->exact);
    EXPECT_EQ(actual->cdr_rows, expected->cdr_rows);
    EXPECT_EQ(actual->nms_rows, expected->nms_rows);
    EXPECT_EQ(actual->summary.cdr_rows(), expected->summary.cdr_rows());
    EXPECT_EQ(actual->summary.nms_rows(), expected->summary.nms_rows());
    rows += actual->cdr_rows.size();
  }
  EXPECT_GT(rows, 0u);
}

TEST(SpateFrameworkTest, DecayEvictsRawDataButKeepsAggregates) {
  TraceConfig config = SmallTrace();
  config.days = 3;
  TraceGenerator gen(config);
  SpateOptions options;
  options.dfs = SmallDfs();
  options.decay.full_resolution_seconds = 86400;  // keep one day
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  // Two of three days decayed.
  EXPECT_EQ(spate.index().num_decayed(), 2u * kEpochsPerDay);

  // Exact query on the decayed day degrades to a summary answer.
  ExplorationQuery query;
  query.window_begin = config.start + 3600;
  query.window_end = config.start + 7200;
  auto result = spate.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_EQ(result->served_from, IndexLevel::kDay);
  EXPECT_TRUE(result->cdr_rows.empty());
  EXPECT_GT(result->summary.cdr_rows(), 0u);

  // Fresh data still answers exactly.
  query.window_begin = config.start + 2 * 86400 + 3600;
  query.window_end = query.window_begin + 3600;
  result = spate.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);

  // Aggregates across the decayed region remain correct.
  auto agg = spate.AggregateWindow(config.start, config.start + 3 * 86400);
  ASSERT_TRUE(agg.ok());
  size_t total = 0;
  for (Timestamp epoch : gen.EpochStarts()) {
    total += gen.GenerateSnapshot(epoch).cdr.size();
  }
  EXPECT_EQ(agg->cdr_rows(), total);
}

TEST(SpateFrameworkTest, PersistsDaySummaries) {
  TraceConfig config = SmallTrace();
  config.days = 2;
  TraceGenerator gen(config);
  SpateOptions options;
  options.dfs = SmallDfs();
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  // Day 1 completed when day 2 began -> one persisted day summary.
  const auto files = spate.dfs().ListFiles("/spate/index/day/");
  ASSERT_EQ(files.size(), 1u);
  auto blob = spate.dfs().ReadFile(files[0]);
  ASSERT_TRUE(blob.ok());
  // Index blobs are stored compressed with the framework codec.
  std::string serialized;
  ASSERT_TRUE(CodecRegistry::Get("deflate")
                  ->Decompress(*blob, &serialized)
                  .ok());
  NodeSummary summary;
  ASSERT_TRUE(NodeSummary::Parse(serialized, &summary).ok());
  EXPECT_GT(summary.cdr_rows(), 0u);
}

TEST(SpateFrameworkTest, UnknownCodecFallsBackToDeflate) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  SpateOptions options;
  options.codec = "no-such-codec";
  SpateFramework spate(options, gen.cells());
  ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(config.start)).ok());
  size_t scanned = 0;
  ASSERT_TRUE(spate
                  .ScanWindow(config.start, config.start + kEpochSeconds,
                              [&](const Snapshot& s) { scanned += s.size(); })
                  .ok());
  EXPECT_GT(scanned, 0u);
}

TEST(SpateFrameworkTest, RejectsDuplicateEpoch) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  SpateOptions options;
  SpateFramework spate(options, gen.cells());
  const Snapshot snapshot = gen.GenerateSnapshot(config.start);
  ASSERT_TRUE(spate.Ingest(snapshot).ok());
  EXPECT_FALSE(spate.Ingest(snapshot).ok());
}

}  // namespace
}  // namespace spate
