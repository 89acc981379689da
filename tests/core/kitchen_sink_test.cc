#include <gtest/gtest.h>

#include <algorithm>

#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

/// Every optional SPATE feature enabled at once — columnar leaves, the
/// fragment cache, the parallel pipeline and aggressive two-stage decay —
/// must still behave exactly like an undecayed serial store on the data
/// that remains at full resolution, and must survive a crash/recover
/// cycle. This guards against cross-feature interactions (e.g. decay or
/// recovery serving stale cached fragments).
class KitchenSinkTest : public ::testing::Test {
 protected:
  static TraceConfig Config() {
    TraceConfig config;
    config.days = 4;
    config.num_cells = 50;
    config.num_antennas = 15;
    config.num_users = 150;
    config.cdr_base_rate = 25;
    config.nms_per_cell = 0.8;
    return config;
  }

  /// The reference store: same leaf layout, nothing else turned on.
  static SpateOptions ReferenceOptions() {
    SpateOptions options;
    options.leaf_layout = LeafLayout::kColumnar;
    return options;
  }

  static SpateOptions Options() {
    SpateOptions options = ReferenceOptions();
    options.fragment_cache_bytes = 4u << 20;
    options.parallelism.worker_count = 4;
    options.decay.full_resolution_seconds = 2 * 86400;
    options.decay.day_resolution_seconds = 3 * 86400;
    return options;
  }
};

TEST_F(KitchenSinkTest, AllFeaturesComposeCorrectly) {
  const TraceConfig config = Config();
  TraceGenerator gen(config);
  SpateFramework plain(ReferenceOptions(), gen.cells());
  SpateFramework sink(Options(), gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    const Snapshot snapshot = gen.GenerateSnapshot(epoch);
    ASSERT_TRUE(plain.Ingest(snapshot).ok());
    ASSERT_TRUE(sink.Ingest(snapshot).ok());
  }

  // Two-stage decay fired: day 0 pruned entirely, day 1 leaf-decayed.
  EXPECT_GE(sink.index().num_decayed(), static_cast<size_t>(kEpochsPerDay));
  EXPECT_GE(sink.index().num_pruned_days(), 1u);
  // And decay left the kitchen-sink instance smaller than the reference:
  EXPECT_LT(sink.StorageBytes(), plain.StorageBytes());

  // Full-resolution region: box query equals the plain framework's.
  const BoundingBox extent = sink.cells().extent();
  ExplorationQuery query;
  query.window_begin = config.start + 3 * 86400 + 6 * 3600;
  query.window_end = config.start + 3 * 86400 + 12 * 3600;
  query.has_box = true;
  query.box = BoundingBox{extent.min_x, extent.min_y,
                          (extent.min_x + extent.max_x) / 2,
                          (extent.min_y + extent.max_y) / 2};
  auto expected = plain.Execute(query);
  auto actual = sink.Execute(query);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(actual->exact);
  auto sorted = [](std::vector<Record> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(actual->cdr_rows), sorted(expected->cdr_rows));
  EXPECT_EQ(sorted(actual->nms_rows), sorted(expected->nms_rows));

  // Decayed region degrades to a summary answer instead of failing.
  ExplorationQuery old_window;
  old_window.window_begin = config.start + 3600;
  old_window.window_end = config.start + 7200;
  auto old_result = sink.Execute(old_window);
  ASSERT_TRUE(old_result.ok());
  EXPECT_FALSE(old_result->exact);
  EXPECT_GT(old_result->summary.cdr_rows(), 0u);

  // Crash + recover over the surviving DFS.
  auto dfs = sink.shared_dfs();
  const uint64_t storage_before = sink.StorageBytes();
  auto recovered = SpateFramework::Recover(Options(), dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SpateFramework& back = **recovered;
  EXPECT_EQ(back.StorageBytes(), storage_before);

  // The recovered instance answers the same box query identically.
  auto after = back.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(sorted(after->cdr_rows), sorted(expected->cdr_rows));

  // And keeps ingesting after the recovery replay.
  const Timestamp next = config.start + 4 * 86400;
  ASSERT_TRUE(back.Ingest(gen.GenerateSnapshot(next)).ok());
  size_t rows = 0;
  ASSERT_TRUE(back.ScanWindow(next, next + kEpochSeconds,
                              [&](const Snapshot& s) { rows += s.size(); })
                  .ok());
  EXPECT_EQ(rows, gen.GenerateSnapshot(next).size());
}

}  // namespace
}  // namespace spate
