#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/crc32.h"
#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

// `Framework::Scan` keeps every per-call value in the caller's
// `QueryContext`, so reads with distinct contexts may share one framework.
// Concurrent scans (run under TSan in CI) must match a serial run field for
// field, and a context's token must cancel its own scan on the parallel
// decode path too.

constexpr int kWorkers = 4;
/// More leaves than one parallel decode batch (`kWorkers * 4`).
constexpr size_t kLeaves = 24;

TraceConfig ContextTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 60;
  config.num_antennas = 20;
  config.num_users = 200;
  config.cdr_base_rate = 20;
  config.nms_per_cell = 1.0;
  return config;
}

std::unique_ptr<SpateFramework> BuildStore(const TraceGenerator& gen,
                                           LeafLayout layout,
                                           size_t fragment_cache_bytes) {
  SpateOptions options;
  options.leaf_layout = layout;
  options.parallelism.worker_count = kWorkers;
  options.fragment_cache_bytes = fragment_cache_bytes;
  options.dfs.block_size = 256 * 1024;
  auto framework = std::make_unique<SpateFramework>(options, gen.cells());
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  for (size_t i = 0; i < kLeaves; ++i) {
    EXPECT_TRUE(framework->Ingest(gen.GenerateSnapshot(epochs[i])).ok());
  }
  return framework;
}

/// What one scan produced that must not depend on who else is scanning:
/// each streamed snapshot as (epoch, CRC of its serialized text), and the
/// context's stats.
struct ScanRecord {
  Status status;
  std::vector<std::pair<Timestamp, uint32_t>> snapshots;
  ScanStats stats;
};

ScanRecord RecordScan(SpateFramework* framework,
                      const ExplorationQuery& query) {
  ScanRecord record;
  QueryContext ctx;
  record.status = framework->Scan(query, &ctx, [&](const Snapshot& s) {
    record.snapshots.emplace_back(s.epoch_start, Crc32(SerializeSnapshot(s)));
  });
  record.stats = std::move(ctx.stats);
  return record;
}

void ExpectSameScan(const ScanRecord& expected, const ScanRecord& actual,
                    const std::string& label) {
  EXPECT_EQ(expected.status.ok(), actual.status.ok()) << label;
  EXPECT_EQ(expected.snapshots, actual.snapshots) << label;
  EXPECT_EQ(expected.stats.leaves_scanned, actual.stats.leaves_scanned)
      << label;
  EXPECT_EQ(expected.stats.leaves_skipped_spatial,
            actual.stats.leaves_skipped_spatial)
      << label;
  EXPECT_EQ(expected.stats.skipped_epochs, actual.stats.skipped_epochs)
      << label;
  // Which scan decodes a fragment first, and which one the cache serves,
  // depends on the interleaving; the sum is the decode work the scan
  // stands for.
  EXPECT_EQ(expected.stats.bytes_decoded + expected.stats.bytes_decoded_saved,
            actual.stats.bytes_decoded + actual.stats.bytes_decoded_saved)
      << label;
}

TEST(QueryContextTest, ConcurrentScansMatchSerialRuns) {
  const TraceGenerator gen(ContextTrace());
  const TraceConfig& config = gen.config();
  for (LeafLayout layout : {LeafLayout::kRow, LeafLayout::kColumnar}) {
    auto framework = BuildStore(gen, layout, 16u << 20);
    // Every replica of one leaf unreadable: each scan covering it must
    // report the same skipped epoch.
    const std::string victim = framework->dfs().ListFiles("/spate/data/")[5];
    for (size_t replica = 0; replica < 3; ++replica) {
      ASSERT_TRUE(framework->dfs().CorruptReplica(victim, 0, replica, 7).ok());
    }

    const BoundingBox extent = framework->cells().extent();
    std::vector<ExplorationQuery> queries(4);
    for (ExplorationQuery& query : queries) {
      query.window_begin = config.start;
      query.window_end = config.start + kLeaves * kEpochSeconds;
    }
    queries[1].attributes = {"ts", "upflux", "downflux"};  // projected
    for (size_t i : {2, 3}) {                              // boxed
      queries[i].has_box = true;
      queries[i].box = {extent.min_x, extent.min_y,
                        (extent.min_x + extent.max_x) / 2,
                        (extent.min_y + extent.max_y) / 2};
    }
    queries[3].attributes = {"rssi"};
    queries[3].want_cdr = false;

    std::vector<ScanRecord> serial;
    for (const ExplorationQuery& query : queries) {
      serial.push_back(RecordScan(framework.get(), query));
      ASSERT_TRUE(serial.back().status.ok()) << serial.back().status.ToString();
    }
    ASSERT_EQ(serial[0].stats.skipped_epochs.size(), 1u);
    ASSERT_GT(serial[2].stats.leaves_skipped_spatial +
                  serial[3].stats.leaves_skipped_spatial,
              0u);

    // Every thread runs every query, each starting at a different one, so
    // unrestricted, projected and boxed scans overlap on the shared pool,
    // DFS and fragment cache.
    constexpr int kThreads = 4;
    constexpr int kRounds = 2;
    std::vector<std::vector<ScanRecord>> records(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int n = 0; n < kRounds * static_cast<int>(queries.size()); ++n) {
          const size_t q = static_cast<size_t>(t + n) % queries.size();
          records[t].push_back(RecordScan(framework.get(), queries[q]));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t) {
      for (size_t n = 0; n < records[t].size(); ++n) {
        const size_t q = (static_cast<size_t>(t) + n) % queries.size();
        ExpectSameScan(serial[q], records[t][n],
                       "layout " + std::to_string(static_cast<int>(layout)) +
                           " thread " + std::to_string(t) + " query " +
                           std::to_string(q));
      }
    }
  }
}

TEST(QueryContextTest, ParallelScanObservesItsTokenBetweenBatches) {
  const TraceGenerator gen(ContextTrace());
  auto framework = BuildStore(gen, LeafLayout::kRow, 0);
  ExplorationQuery window;
  window.window_begin = gen.config().start;
  window.window_end = gen.config().start + kLeaves * kEpochSeconds;

  CancelToken token;
  QueryContext ctx{&token, {}};
  size_t streamed = 0;
  const Status scan = framework->Scan(window, &ctx, [&](const Snapshot&) {
    ++streamed;
    token.Cancel();  // from the serial fold, mid-batch
  });
  EXPECT_TRUE(scan.IsDeadlineExceeded()) << scan.ToString();
  // The batch already decoded still folds; the next one never starts.
  EXPECT_GE(streamed, 1u);
  EXPECT_LE(streamed, static_cast<size_t>(kWorkers) * 4);
  EXPECT_LT(streamed, kLeaves);
  EXPECT_EQ(ctx.stats.leaves_scanned, streamed);
  EXPECT_TRUE(ctx.stats.complete());
}

}  // namespace
}  // namespace spate
