#include "query/result_cache.h"

#include <gtest/gtest.h>

#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

class ResultCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.days = 1;
    config.num_cells = 60;
    config.num_antennas = 20;
    config.num_users = 200;
    config.cdr_base_rate = 40;
    config.nms_per_cell = 1.0;
    config_ = new TraceConfig(config);
    gen_ = new TraceGenerator(config);
    spate_ = new SpateFramework(SpateOptions{}, gen_->cells());
    for (Timestamp epoch : gen_->EpochStarts()) {
      ASSERT_TRUE(spate_->Ingest(gen_->GenerateSnapshot(epoch)).ok());
    }
  }

  ExplorationQuery DayQuery() const {
    ExplorationQuery q;
    q.window_begin = config_->start + 8 * 3600;
    q.window_end = config_->start + 20 * 3600;
    return q;
  }

  static TraceConfig* config_;
  static TraceGenerator* gen_;
  static SpateFramework* spate_;
};

TraceConfig* ResultCacheTest::config_ = nullptr;
TraceGenerator* ResultCacheTest::gen_ = nullptr;
SpateFramework* ResultCacheTest::spate_ = nullptr;

/// The owner's side of the cache protocol (what `spate_cli` and the serving
/// tier do): serve a covering exact entry, else execute and cache an exact
/// answer priced by what its scan decoded.
Result<QueryResult> CachedExecute(ResultCache* cache, SpateFramework* spate,
                                  const ExplorationQuery& query) {
  if (auto cached = cache->Lookup(query, spate->cells())) {
    return *std::move(cached);
  }
  SPATE_ASSIGN_OR_RETURN(QueryResult result, spate->Execute(query));
  if (result.exact) {
    cache->Insert(query, result, spate->last_scan_stats().bytes_decoded);
  }
  return result;
}

TEST_F(ResultCacheTest, IdenticalQueryHits) {
  ResultCache cache;
  auto first = CachedExecute(&cache, spate_, DayQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1u);
  auto second = CachedExecute(&cache, spate_, DayQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second->cdr_rows.size(), first->cdr_rows.size());
  EXPECT_EQ(second->nms_rows.size(), first->nms_rows.size());
}

TEST_F(ResultCacheTest, SubWindowServedFromCacheMatchesDirect) {
  ResultCache cache;
  // Warm: 08:00-20:00.
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());

  ExplorationQuery narrow = DayQuery();
  narrow.window_begin = config_->start + 11 * 3600;
  narrow.window_end = config_->start + 13 * 3600;
  auto cached = CachedExecute(&cache, spate_, narrow);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.hits(), 1u);

  auto direct = spate_->Execute(narrow);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows.size(), direct->cdr_rows.size());
  EXPECT_EQ(cached->nms_rows.size(), direct->nms_rows.size());
  EXPECT_EQ(cached->summary.cdr_rows(), direct->summary.cdr_rows());
}

TEST_F(ResultCacheTest, SubBoxServedFromCache) {
  ResultCache cache;
  // Unboxed = whole region.
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());

  ExplorationQuery boxed = DayQuery();
  boxed.has_box = true;
  const BoundingBox extent = spate_->cells().extent();
  boxed.box = BoundingBox{extent.min_x, extent.min_y,
                          (extent.min_x + extent.max_x) / 2, extent.max_y};
  auto cached = CachedExecute(&cache, spate_, boxed);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.hits(), 1u);
  auto direct = spate_->Execute(boxed);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows.size(), direct->cdr_rows.size());
}

TEST_F(ResultCacheTest, WiderWindowMisses) {
  ResultCache cache;
  ExplorationQuery narrow = DayQuery();
  narrow.window_end = config_->start + 10 * 3600;
  ASSERT_TRUE(CachedExecute(&cache, spate_, narrow).ok());
  // Wider than cached: must go to the framework.
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(ResultCacheTest, BoxedEntryDoesNotServeUnboxedQuery) {
  ResultCache cache;
  ExplorationQuery boxed = DayQuery();
  boxed.has_box = true;
  boxed.box = spate_->cells().extent();
  ASSERT_TRUE(CachedExecute(&cache, spate_, boxed).ok());
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());  // unboxed
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(ResultCacheTest, HitsCreditBytesDecodedSaved) {
  ResultCache cache;
  // Miss: scans + inserts.
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  const uint64_t scan_cost = spate_->last_scan_stats().bytes_decoded;
  ASSERT_GT(scan_cost, 0u);
  EXPECT_EQ(cache.stats().bytes_decoded_saved, 0u);

  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  const ResultCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  // Every hit credits the decompressed bytes the original execution cost.
  EXPECT_EQ(stats.bytes_decoded_saved, 2 * scan_cost);
}

TEST_F(ResultCacheTest, ProjectedQueryServedVerbatimWhenIdentical) {
  ResultCache cache;
  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  auto first = CachedExecute(&cache, spate_, projected);
  ASSERT_TRUE(first.ok());
  auto second = CachedExecute(&cache, spate_, projected);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second->cdr_rows, first->cdr_rows);
  EXPECT_EQ(second->nms_rows, first->nms_rows);
  EXPECT_GT(cache.stats().bytes_decoded_saved, 0u);
}

TEST_F(ResultCacheTest, ProjectedEntryNeverServesDifferentQuery) {
  ResultCache cache;
  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  ASSERT_TRUE(CachedExecute(&cache, spate_, projected).ok());

  // A projected entry lacks the predicate columns, so even a sub-window of
  // the same projection cannot be re-filtered from it.
  ExplorationQuery narrower = projected;
  narrower.window_end -= 3600;
  ASSERT_TRUE(CachedExecute(&cache, spate_, narrower).ok());
  // And a different attribute list is a different result shape.
  ExplorationQuery other = projected;
  other.attributes = {"ts", "duration"};
  ASSERT_TRUE(CachedExecute(&cache, spate_, other).ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST_F(ResultCacheTest, UnprojectedEntryServesProjectedSubQuery) {
  ResultCache cache;
  // Full-width entry.
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());

  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  projected.window_begin += 3600;
  auto cached = CachedExecute(&cache, spate_, projected);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.hits(), 1u);

  // The served rows must match a direct projected execution byte for byte
  // (projection applied after re-filtering, summary built before it).
  auto direct = spate_->Execute(projected);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows, direct->cdr_rows);
  EXPECT_EQ(cached->nms_rows, direct->nms_rows);
  EXPECT_EQ(cached->summary.cdr_rows(), direct->summary.cdr_rows());
}

TEST_F(ResultCacheTest, ClearResetsBytesDecodedSaved) {
  ResultCache cache(4);
  QueryResult dummy;
  dummy.exact = true;
  cache.Insert(DayQuery(), dummy, /*bytes_decoded=*/12345);
  ASSERT_TRUE(cache.Lookup(DayQuery(), spate_->cells()).has_value());
  ASSERT_EQ(cache.stats().bytes_decoded_saved, 12345u);
  cache.Clear();
  const ResultCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_decoded_saved, 0u);
}

TEST_F(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  QueryResult dummy;
  dummy.exact = true;
  ExplorationQuery q1 = DayQuery();
  ExplorationQuery q2 = DayQuery();
  q2.window_begin += 3600;
  ExplorationQuery q3 = DayQuery();
  q3.window_begin += 7200;
  cache.Insert(q1, dummy);
  cache.Insert(q2, dummy);
  cache.Insert(q3, dummy);  // evicts q1
  EXPECT_EQ(cache.size(), 2u);
  ExplorationQuery probe = q1;
  EXPECT_FALSE(cache.Lookup(probe, spate_->cells()).has_value());
  EXPECT_TRUE(cache.Lookup(q3, spate_->cells()).has_value());
}

TEST_F(ResultCacheTest, ZeroCapacityNeverCaches) {
  ResultCache cache(0);
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  ASSERT_TRUE(CachedExecute(&cache, spate_, DayQuery()).ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ResultCacheTest, ClearResets) {
  ResultCache cache(4);
  cache.Insert(DayQuery(), QueryResult{});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace spate
