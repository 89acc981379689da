#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/fsck.h"
#include "common/random.h"
#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

// A seeded history of ingests, decays and Q(a,b,w) queries, replayed on
// four stores that differ only in leaf layout, fragment-cache budget and
// worker count. A decoded fragment lives as long as its leaf (DESIGN.md
// "Concurrent reads & fragment cache"): no history may make a cached store
// answer differently from the uncached reference, and no decay may leave an
// evicted leaf's fragments resident.

constexpr int kSteps = 150;
/// Queries start at most this many epochs behind the feed's head, so most
/// windows are resident and some straddle or pass the decay horizon.
constexpr size_t kQueryLookback = 20;

TraceConfig HistoryTrace() {
  TraceConfig config;
  config.days = 2;
  config.num_cells = 40;
  config.num_antennas = 16;
  config.num_users = 120;
  config.cdr_base_rate = 20;
  config.nms_per_cell = 1.0;
  return config;
}

struct Store {
  std::string label;
  std::unique_ptr<SpateFramework> framework;
};

Store MakeStore(const TraceGenerator& gen, std::string label,
                LeafLayout layout, size_t fragment_cache_bytes, int workers) {
  SpateOptions options;
  options.leaf_layout = layout;
  options.fragment_cache_bytes = fragment_cache_bytes;
  options.parallelism.worker_count = workers;
  // The codec plays no part in what this test checks. With a compressing
  // codec, a columnar ingest's per-column-chunk compressions dominate this
  // test's run time under ThreadSanitizer; the null codec keeps it short.
  options.codec = "null";
  options.dfs.block_size = 256 * 1024;
  return {std::move(label),
          std::make_unique<SpateFramework>(options, gen.cells())};
}

/// A random Q(a,b,w): a window of 1..8 epochs starting near the feed's head
/// (possibly past the newest leaf), with a projection, a box and a table
/// restriction each drawn with some probability.
ExplorationQuery RandomQuery(Rng* rng, Timestamp start, size_t ingested,
                             const BoundingBox& extent) {
  const size_t lookback = std::min(ingested, kQueryLookback);
  const size_t first = ingested - lookback + rng->Uniform(lookback + 2);
  ExplorationQuery query;
  query.window_begin = start + static_cast<Timestamp>(first) * kEpochSeconds;
  const Timestamp length = static_cast<Timestamp>(1 + rng->Uniform(8));
  query.window_end = query.window_begin + length * kEpochSeconds;
  static const std::vector<std::vector<std::string>> kAttrPool = {
      {"upflux"},
      {"ts", "upflux", "downflux"},
      {"ts", "imei", "cell_id"},
      {"drop_calls", "rssi"},
      {"no_such_attribute"},
  };
  if (rng->Bernoulli(0.5)) {
    query.attributes = kAttrPool[rng->Uniform(kAttrPool.size())];
  }
  if (rng->Bernoulli(0.4)) {
    const double w = extent.max_x - extent.min_x;
    const double h = extent.max_y - extent.min_y;
    const double x0 = extent.min_x + rng->NextDouble() * 0.6 * w;
    const double y0 = extent.min_y + rng->NextDouble() * 0.6 * h;
    query.box = {x0, y0, x0 + (0.2 + rng->NextDouble() * 0.4) * w,
                 y0 + (0.2 + rng->NextDouble() * 0.4) * h};
    query.has_box = true;
  }
  switch (rng->Uniform(4)) {
    case 0:
      query.want_nms = false;
      break;
    case 1:
      query.want_cdr = false;
      break;
    default:
      break;  // both tables
  }
  return query;
}

void ExpectSameAnswer(const QueryResult& expected, const QueryResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.exact, actual.exact) << label;
  EXPECT_EQ(expected.cdr_rows, actual.cdr_rows) << label;
  EXPECT_EQ(expected.nms_rows, actual.nms_rows) << label;
  EXPECT_TRUE(expected.summary == actual.summary) << label;
  EXPECT_EQ(expected.degraded, actual.degraded) << label;
  EXPECT_EQ(expected.skipped_epochs, actual.skipped_epochs) << label;
}

TEST(CachedHistoryTest, CachedStoresMatchUncachedRowStore) {
  TraceGenerator gen(HistoryTrace());
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  std::vector<Store> stores;
  // stores[0] is the reference.
  stores.push_back(MakeStore(gen, "row, no cache", LeafLayout::kRow, 0, 1));
  stores.push_back(
      MakeStore(gen, "row, 32 MiB", LeafLayout::kRow, 32 << 20, 1));
  stores.push_back(
      MakeStore(gen, "columnar, 4 KiB", LeafLayout::kColumnar, 4 << 10, 1));
  stores.push_back(MakeStore(gen, "columnar, 32 MiB, 4 workers",
                             LeafLayout::kColumnar, 32 << 20, 4));
  const BoundingBox extent = stores[0].framework->cells().extent();

  Rng rng(0x18c4c4e);
  size_t ingested = 0;
  size_t evicted_total = 0;
  size_t exact_answers = 0;
  size_t summary_answers = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::string at = " at step " + std::to_string(step);
    const uint64_t kind = rng.Uniform(10);
    if (ingested < 4 || (kind < 4 && ingested < epochs.size())) {
      const Snapshot snapshot = gen.GenerateSnapshot(epochs[ingested++]);
      for (Store& store : stores) {
        ASSERT_TRUE(store.framework->Ingest(snapshot).ok())
            << store.label << at;
      }
    } else if (kind < 5) {
      // A short full-resolution horizon, measured from the feed's head.
      DecayPolicy policy;
      policy.full_resolution_seconds =
          static_cast<int64_t>(4 + rng.Uniform(8)) * kEpochSeconds;
      const Timestamp now = epochs[ingested - 1] + kEpochSeconds;
      const size_t evicted = stores[0].framework->RunDecay(policy, now);
      for (size_t s = 1; s < stores.size(); ++s) {
        EXPECT_EQ(stores[s].framework->RunDecay(policy, now), evicted)
            << stores[s].label << at;
      }
      evicted_total += evicted;
    } else {
      const ExplorationQuery query =
          RandomQuery(&rng, gen.config().start, ingested, extent);
      auto expected = stores[0].framework->Execute(query);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString() << at;
      if (expected->exact) {
        ++exact_answers;
      } else {
        ++summary_answers;
      }
      for (size_t s = 1; s < stores.size(); ++s) {
        auto actual = stores[s].framework->Execute(query);
        ASSERT_TRUE(actual.ok())
            << stores[s].label << at << ": " << actual.status().ToString();
        ExpectSameAnswer(*expected, *actual, stores[s].label + at);
      }
    }
  }

  // The history exercised what it claims to: both answer paths, evictions
  // by decay, warm hits and a budget that keeps evicting.
  EXPECT_GT(exact_answers, 0u);
  EXPECT_GT(summary_answers, 0u);
  EXPECT_GT(evicted_total, 0u);
  EXPECT_GT(stores[1].framework->fragment_cache()->stats().fragment_hits, 0u);
  EXPECT_GT(stores[2].framework->fragment_cache()->stats().evictions, 0u);
  EXPECT_GT(stores[3].framework->fragment_cache()->stats().fragment_hits, 0u);
  for (const Store& store : stores) {
    const check::FsckReport report = store.framework->Fsck();
    EXPECT_TRUE(report.clean()) << store.label << "\n" << report.ToString();
  }
}

}  // namespace
}  // namespace spate
