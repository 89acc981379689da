#include "query/scan_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/fragment_cache.h"
#include "core/spate_framework.h"
#include "serve/server.h"
#include "telco/generator.h"

namespace spate {
namespace {

// Cooperative shared scans + the fragment cache (DESIGN.md "Shared scans &
// fragment cache"). The load-bearing contract: whatever the concurrency,
// the leaf layout, the cache budget (including a thrashing one) and the
// fault state, every query answered through the `ScanScheduler` is
// bit-identical to a private serial `SpateFramework::Execute` — the shared
// pass and the cache only change *how many bytes get decoded*, never a row,
// a summary or a skipped epoch.

TraceConfig SharedTrace(int days = 1) {
  TraceConfig config;
  config.days = days;
  config.num_cells = 80;
  config.num_antennas = 30;
  config.num_users = 300;
  config.cdr_base_rate = 30;
  config.nms_per_cell = 2.0;
  return config;
}

SpateOptions StoreOptions(LeafLayout layout, size_t fragment_cache_bytes) {
  SpateOptions options;
  options.leaf_layout = layout;
  options.fragment_cache_bytes = fragment_cache_bytes;
  options.dfs.block_size = 256 * 1024;
  return options;
}

std::unique_ptr<SpateFramework> IngestTrace(const TraceGenerator& gen,
                                            SpateOptions options,
                                            size_t max_epochs = SIZE_MAX) {
  auto framework =
      std::make_unique<SpateFramework>(std::move(options), gen.cells());
  size_t ingested = 0;
  for (Timestamp epoch : gen.EpochStarts()) {
    if (ingested++ >= max_epochs) break;
    EXPECT_TRUE(framework->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  return framework;
}

void ExpectSameResult(const QueryResult& expected, const QueryResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.exact, actual.exact) << label;
  EXPECT_EQ(expected.cdr_rows, actual.cdr_rows) << label;
  EXPECT_EQ(expected.nms_rows, actual.nms_rows) << label;
  EXPECT_TRUE(expected.summary == actual.summary) << label;
  EXPECT_EQ(expected.degraded, actual.degraded) << label;
  EXPECT_EQ(expected.skipped_epochs, actual.skipped_epochs) << label;
}

/// A randomized query: window of 1..8 epochs anywhere in the trace, a
/// projection / box / table restriction each with some probability. The
/// attribute pool spans both tables plus a never-matching name.
ExplorationQuery RandomQuery(Rng* rng, const TraceConfig& config,
                             const BoundingBox& extent) {
  const int total_epochs = config.days * (86400 / kEpochSeconds);
  ExplorationQuery query;
  const int first = static_cast<int>(rng->Next() % total_epochs);
  const int len = 1 + static_cast<int>(rng->Next() % 8);
  query.window_begin = config.start + first * kEpochSeconds;
  query.window_end =
      std::min(query.window_begin + len * kEpochSeconds,
               config.start + static_cast<Timestamp>(config.days) * 86400);
  static const std::vector<std::vector<std::string>> kAttrPool = {
      {"upflux"},
      {"ts", "upflux", "downflux"},
      {"ts", "imei", "cell_id"},
      {"drop_calls", "rssi"},
      {"no_such_attribute"},
  };
  if (rng->Bernoulli(0.5)) {
    query.attributes = kAttrPool[rng->Next() % kAttrPool.size()];
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
  switch (rng->Next() % 4) {
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

// ---------------------------------------------------------------------------
// FragmentCache units.

TEST(FragmentCacheTest, ByteBudgetEvictsInLruOrder) {
  FragmentCache cache(100);
  cache.Insert(0, "a", std::string(40, 'a'));
  cache.Insert(0, "b", std::string(40, 'b'));
  std::string value;
  // Touch "a" so "b" is the LRU tail when the next insert needs room.
  ASSERT_TRUE(cache.Lookup(0, "a", &value));
  cache.Insert(0, "c", std::string(40, 'c'));
  EXPECT_TRUE(cache.Lookup(0, "a", &value));
  EXPECT_FALSE(cache.Lookup(0, "b", &value));
  EXPECT_TRUE(cache.Lookup(0, "c", &value));
  const FragmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, 100u);
  EXPECT_EQ(stats.resident_entries, 2u);
}

TEST(FragmentCacheTest, DropLeafDropsOnlyThatLeaf) {
  FragmentCache cache(1 << 20);
  cache.Insert(0, "a", std::string(10, 'a'));
  cache.Insert(0, "b", std::string(20, 'b'));
  cache.Insert(3600, "a", std::string(5, 'c'));
  // An empty fragment saves nothing and is not admitted, so a leaf with
  // resident fragments always has resident bytes for DropLeaf to find.
  cache.Insert(7200, "empty", "");
  EXPECT_EQ(cache.stats().resident_entries, 3u);

  cache.DropLeaf(0);
  std::string value;
  EXPECT_FALSE(cache.Lookup(0, "a", &value));
  EXPECT_FALSE(cache.Lookup(0, "b", &value));
  ASSERT_TRUE(cache.Lookup(3600, "a", &value));
  EXPECT_EQ(value, std::string(5, 'c'));
  FragmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.resident_bytes, 5u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.ResidentBytesFor(0), 0u);
  EXPECT_EQ(cache.ResidentBytesFor(3600), 5u);

  // Dropping a leaf with nothing resident changes nothing.
  cache.DropLeaf(0);
  cache.DropLeaf(7200);
  stats = cache.stats();
  EXPECT_EQ(stats.resident_bytes, 5u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(FragmentCacheTest, OversizeFragmentIsNotAdmitted) {
  FragmentCache cache(16);
  cache.Insert(0, "small", "1234");
  cache.Insert(0, "huge", std::string(64, 'x'));
  std::string value;
  EXPECT_FALSE(cache.Lookup(0, "huge", &value));
  // The oversize reject must not have evicted the resident entry either.
  EXPECT_TRUE(cache.Lookup(0, "small", &value));
}

TEST(FragmentCacheTest, ReinsertRefreshesWithoutDoubleCounting) {
  FragmentCache cache(1 << 20);
  cache.Insert(3600, "a", "0123456789");
  const uint64_t resident = cache.stats().resident_bytes;
  cache.Insert(3600, "a", "0123456789");
  EXPECT_EQ(cache.stats().resident_bytes, resident);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
}

TEST(FragmentCacheTest, ResidentBytesForTracksPerLeafTotals) {
  FragmentCache cache(1 << 20);
  cache.Insert(0, "a", std::string(10, 'a'));
  cache.Insert(0, "b", std::string(20, 'b'));
  cache.Insert(3600, "a", std::string(5, 'c'));
  EXPECT_EQ(cache.ResidentBytesFor(0), 30u);
  EXPECT_EQ(cache.ResidentBytesFor(3600), 5u);
  EXPECT_EQ(cache.ResidentBytesFor(7200), 0u);
  // A dropped leaf prices nothing as cached; the others keep their totals.
  cache.DropLeaf(0);
  EXPECT_EQ(cache.ResidentBytesFor(0), 0u);
  EXPECT_EQ(cache.ResidentBytesFor(3600), 5u);
}

// ---------------------------------------------------------------------------
// Fragment cache wired into the framework's decode funnel.

TEST(FragmentCacheFrameworkTest, RepeatColumnarScanHitsAndSavesBytes) {
  TraceGenerator gen(SharedTrace());
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 32 << 20), 12);
  ExplorationQuery query;
  query.window_begin = gen.config().start;
  query.window_end = gen.config().start + 12 * kEpochSeconds;

  auto first = framework->Execute(query);
  ASSERT_TRUE(first.ok());
  const ScanStats cold = framework->last_scan_stats();
  EXPECT_EQ(cold.fragment_hits, 0u);
  ASSERT_GT(cold.bytes_decoded, 0u);

  auto second = framework->Execute(query);
  ASSERT_TRUE(second.ok());
  const ScanStats warm = framework->last_scan_stats();
  EXPECT_GT(warm.fragment_hits, 0u);
  EXPECT_GT(warm.bytes_decoded_saved, 0u);
  EXPECT_LT(warm.bytes_decoded, cold.bytes_decoded);
  ExpectSameResult(*first, *second, "warm columnar rescan");

  const FragmentCache* cache = framework->fragment_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().fragment_hits, 0u);
  EXPECT_GT(cache->stats().resident_bytes, 0u);
}

TEST(FragmentCacheFrameworkTest, RowLeavesCacheTheirMaterializedText) {
  TraceGenerator gen(SharedTrace());
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kRow, 32 << 20), 8);
  ExplorationQuery query;
  query.window_begin = gen.config().start;
  query.window_end = gen.config().start + 8 * kEpochSeconds;
  auto first = framework->Execute(query);
  ASSERT_TRUE(first.ok());
  const uint64_t cold_bytes = framework->last_scan_stats().bytes_decoded;
  auto second = framework->Execute(query);
  ASSERT_TRUE(second.ok());
  const ScanStats warm = framework->last_scan_stats();
  // Every leaf hits its "@row" pseudo-fragment: the rescan decodes nothing.
  EXPECT_EQ(warm.fragment_hits, 8u);
  EXPECT_EQ(warm.bytes_decoded, 0u);
  EXPECT_EQ(warm.bytes_decoded_saved, cold_bytes);
  ExpectSameResult(*first, *second, "warm row rescan");
}

TEST(FragmentCacheFrameworkTest, IngestKeepsFragmentsAndDecayDropsEvicted) {
  TraceGenerator gen(SharedTrace());
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kRow, 32 << 20), 8);
  ExplorationQuery query;
  query.window_begin = epochs[0];
  query.window_end = epochs[0] + 8 * kEpochSeconds;
  ASSERT_TRUE(framework->Execute(query).ok());
  const FragmentCache* cache = framework->fragment_cache();
  ASSERT_NE(cache, nullptr);
  const FragmentCacheStats warm = cache->stats();
  ASSERT_EQ(warm.resident_entries, 8u);

  // A leaf's bytes never change after AddLeaf, so an ingest drops no
  // fragment: the rescan decodes nothing and matches an uncached store.
  ASSERT_TRUE(framework->Ingest(gen.GenerateSnapshot(epochs[8])).ok());
  EXPECT_EQ(cache->stats().resident_bytes, warm.resident_bytes);
  auto actual = framework->Execute(query);
  ASSERT_TRUE(actual.ok());
  const ScanStats rescan = framework->last_scan_stats();
  EXPECT_EQ(rescan.bytes_decoded, 0u);
  EXPECT_EQ(rescan.fragment_hits, 8u);
  auto uncached = IngestTrace(gen, StoreOptions(LeafLayout::kRow, 0), 9);
  auto expected = uncached->Execute(query);
  ASSERT_TRUE(expected.ok());
  ExpectSameResult(*expected, *actual, "rescan after ingest");

  // A decay drops the fragments of exactly the leaves it evicts.
  constexpr size_t kEvicted = 3;
  DecayPolicy policy;
  policy.full_resolution_seconds = (9 - kEvicted) * kEpochSeconds;
  ASSERT_EQ(framework->RunDecay(policy, epochs[8] + kEpochSeconds), kEvicted);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cache->ResidentBytesFor(epochs[i]) > 0, i >= kEvicted) << i;
  }
  EXPECT_EQ(cache->stats().evictions, warm.evictions + kEvicted);
}

// ---------------------------------------------------------------------------
// ScanScheduler: serial identity, deterministic merge accounting.

TEST(SharedScanTest, SerialSchedulerMatchesPrivateExecute) {
  TraceGenerator gen(SharedTrace());
  for (LeafLayout layout : {LeafLayout::kRow, LeafLayout::kColumnar}) {
    auto framework = IngestTrace(gen, StoreOptions(layout, 8 << 20), 16);
    ScanScheduler scheduler(framework.get());
    Rng rng(0x5ca1ab1e);
    const BoundingBox extent = framework->cells().extent();
    for (int i = 0; i < 20; ++i) {
      const ExplorationQuery query = RandomQuery(&rng, gen.config(), extent);
      auto expected = framework->Execute(query);
      auto actual = scheduler.Execute(query);
      ASSERT_EQ(expected.ok(), actual.ok()) << "query " << i;
      if (!expected.ok()) continue;
      ExpectSameResult(*expected, *actual,
                       "layout " + std::to_string(static_cast<int>(layout)) +
                           " query " + std::to_string(i));
    }
    const ScanSchedulerStats stats = scheduler.stats();
    EXPECT_GT(stats.passes_started, 0u);
    EXPECT_EQ(stats.shared_pass_joins, 0u);  // serial: nobody to share with
  }
}

TEST(SharedScanTest, IdenticalConcurrentQueriesMergeExactly) {
  TraceGenerator gen(SharedTrace());
  // No fragment cache: every pass decodes the full window, so the byte
  // accounting below is exact rather than an inequality.
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 0), 12);
  ExplorationQuery query;
  query.window_begin = gen.config().start;
  query.window_end = gen.config().start + 12 * kEpochSeconds;
  auto expected = framework->Execute(query);
  ASSERT_TRUE(expected.ok());
  const uint64_t pass_bytes = framework->last_scan_stats().bytes_decoded;
  ASSERT_GT(pass_bytes, 0u);

  ScanScheduler scheduler(framework.get());
  constexpr int kClients = 8;
  std::vector<Result<QueryResult>> results(kClients, Status::Internal("unset"));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back(
          [&, i] { results[i] = scheduler.Execute(query); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectSameResult(*expected, *results[i], "client " + std::to_string(i));
  }
  // Interleaving-independent invariants: every client either started a pass
  // or rode one, and the total decode cost is exactly one full window per
  // pass — never one per client.
  const ScanSchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.passes_started, 1u);
  EXPECT_LE(stats.passes_started, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.passes_started + stats.shared_pass_joins,
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.bytes_decoded, stats.passes_started * pass_bytes);
  EXPECT_EQ(stats.waiters_detached, 0u);
}

// ---------------------------------------------------------------------------
// Randomized concurrent identity across layouts and cache budgets. TSan
// builds run this suite (the `shared_scan_test` label is in the TSan CI
// job's -L list), so the fold/wakeup machinery is also race-checked here.

void RunConcurrentIdentity(SpateFramework* framework, const TraceConfig& config,
                           uint64_t seed, const std::string& label) {
  const BoundingBox extent = framework->cells().extent();
  Rng rng(seed);
  constexpr int kQueries = 24;
  constexpr int kThreads = 6;
  std::vector<ExplorationQuery> queries;
  std::vector<QueryResult> expected;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(RandomQuery(&rng, config, extent));
    auto reference = framework->Execute(queries.back());
    ASSERT_TRUE(reference.ok()) << label;
    expected.push_back(*std::move(reference));
  }

  ScanScheduler scheduler(framework);
  std::vector<Result<QueryResult>> actual(kQueries, Status::Internal("unset"));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t; i < kQueries; i += kThreads) {
          actual[i] = scheduler.Execute(queries[i]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(actual[i].ok())
        << label << " query " << i << ": " << actual[i].status().ToString();
    ExpectSameResult(expected[i], *actual[i],
                     label + " query " + std::to_string(i));
  }
}

TEST(SharedScanTest, ConcurrentRandomizedIdentityRowStore) {
  TraceGenerator gen(SharedTrace());
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kRow, 0), 16);
  RunConcurrentIdentity(framework.get(), gen.config(), 20160118, "row");
}

TEST(SharedScanTest, ConcurrentRandomizedIdentityColumnarCached) {
  TraceGenerator gen(SharedTrace());
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 32 << 20), 16);
  RunConcurrentIdentity(framework.get(), gen.config(), 7, "columnar/cached");
}

TEST(SharedScanTest, ConcurrentRandomizedIdentityUnderCacheThrash) {
  TraceGenerator gen(SharedTrace());
  // A 4 KB budget fits a fragment or two at best: constant eviction churn,
  // hits and misses interleaving mid-scan. Results must not move.
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 4 << 10), 16);
  RunConcurrentIdentity(framework.get(), gen.config(), 11, "thrash");
  const FragmentCache* cache = framework->fragment_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().evictions, 0u);
}

TEST(SharedScanTest, ConcurrentRandomizedIdentityMixedRecoveredStore) {
  TraceGenerator gen(SharedTrace());
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  // First half written as row leaves, then a restart flips the option: the
  // recovered store continues columnar, with the fragment cache on.
  auto row_half = IngestTrace(gen, StoreOptions(LeafLayout::kRow, 0), 12);
  auto mixed = SpateFramework::Recover(
      StoreOptions(LeafLayout::kColumnar, 16 << 20), row_half->shared_dfs());
  ASSERT_TRUE(mixed.ok());
  row_half.reset();
  for (size_t i = 12; i < 24 && i < epochs.size(); ++i) {
    ASSERT_TRUE((*mixed)->Ingest(gen.GenerateSnapshot(epochs[i])).ok());
  }
  RunConcurrentIdentity(mixed->get(), gen.config(), 13, "mixed/recovered");
}

TEST(SharedScanTest, FaultInjectionIdentity) {
  TraceConfig config = SharedTrace();
  TraceGenerator gen(config);
  SpateOptions options = StoreOptions(LeafLayout::kColumnar, 8 << 20);
  options.dfs.replication = 1;  // no failover: corruption => degraded reads
  auto framework = IngestTrace(gen, options, 16);
  for (uint64_t seed : {7u, 11u, 23u}) {
    ASSERT_TRUE(framework->shared_dfs()->CorruptRandomReplica(seed).ok());
  }
  // Same store serves the serial references and the concurrent run (reads
  // never repair, so the fault state is stable); identity must hold for
  // degraded answers too — skipped epochs included.
  RunConcurrentIdentity(framework.get(), config, 17, "corrupted");
}

// ---------------------------------------------------------------------------
// Deadlines, mutators, decay, the failpoint.

TEST(SharedScanTest, ExpiredTokenFailsBeforeTouchingStorage) {
  TraceGenerator gen(SharedTrace());
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kRow, 0), 4);
  ScanScheduler scheduler(framework.get());
  CancelToken cancel;
  cancel.Cancel();
  ExplorationQuery query;
  query.window_begin = gen.config().start;
  query.window_end = gen.config().start + 4 * kEpochSeconds;
  auto result = scheduler.Execute(query, &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  const ScanSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.passes_started, 0u);
  EXPECT_EQ(stats.waiters_detached, 0u);
  EXPECT_EQ(stats.bytes_decoded, 0u);
}

TEST(SharedScanTest, DeadlineDetachLeavesThePassRunning) {
  // Two full days so the leader's pass streams 96 leaves — long enough that
  // a waiter arriving at pass start with a few-millisecond deadline
  // reliably expires mid-pass.
  TraceGenerator gen(SharedTrace(/*days=*/2));
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 0));
  ExplorationQuery big;
  big.window_begin = gen.config().start;
  big.window_end = gen.config().start + 2 * 86400;
  auto expected = framework->Execute(big);
  ASSERT_TRUE(expected.ok());

  ScanScheduler scheduler(framework.get());
  Result<QueryResult> leader_result = Status::Internal("unset");
  std::thread leader(
      [&] { leader_result = scheduler.Execute(big); });
  while (!scheduler.pass_in_flight()) std::this_thread::yield();

  // The waiter wants only the final leaf, so its rows resolve only at the
  // very end of the pass — far past its deadline.
  ExplorationQuery tail;
  tail.window_begin = big.window_end - kEpochSeconds;
  tail.window_end = big.window_end;
  CancelToken cancel;
  cancel.SetDeadlineAfter(0.005);
  auto detached = scheduler.Execute(tail, &cancel);
  leader.join();

  ASSERT_FALSE(detached.ok());
  EXPECT_TRUE(detached.status().IsDeadlineExceeded())
      << detached.status().ToString();
  // The detach must not have cancelled the shared pass: the leader's answer
  // is complete and exact.
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  ExpectSameResult(*expected, *leader_result, "leader after detach");
  const ScanSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.waiters_detached, 1u);
  EXPECT_EQ(stats.passes_started, 1u);
  // A re-issued tail query (fresh budget) succeeds and matches.
  auto retry = scheduler.Execute(tail);
  auto tail_expected = framework->Execute(tail);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(tail_expected.ok());
  ExpectSameResult(*tail_expected, *retry, "tail retry");
}

TEST(SharedScanTest, ExclusiveMutatorsInterleaveWithQueries) {
  TraceGenerator gen(SharedTrace());
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  auto framework =
      IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 16 << 20), 12);
  ExplorationQuery early;
  early.window_begin = gen.config().start;
  early.window_end = gen.config().start + 6 * kEpochSeconds;
  auto expected = framework->Execute(early);
  ASSERT_TRUE(expected.ok());

  ScanScheduler scheduler(framework.get());
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto result = scheduler.Execute(early);
        if (!result.ok()) {
          failed = true;
          return;
        }
        // Later ingests never touch the early window: full identity holds
        // throughout the interleaved mutations.
        ExpectSameResult(*expected, *result, "reader under ingest");
      }
    });
  }
  for (size_t i = 12; i < 20; ++i) {
    ASSERT_TRUE(scheduler
                    .RunExclusive([&] {
                      return framework->Ingest(gen.GenerateSnapshot(epochs[i]));
                    })
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(scheduler.stats().exclusive_runs, 8u);
  // The ingested epochs are queryable (and identical to a private read).
  ExplorationQuery late;
  late.window_begin = epochs[12];
  late.window_end = epochs[19] + kEpochSeconds;
  auto late_expected = framework->Execute(late);
  auto late_actual = scheduler.Execute(late);
  ASSERT_TRUE(late_expected.ok());
  ASSERT_TRUE(late_actual.ok());
  ExpectSameResult(*late_expected, *late_actual, "post-ingest window");
}

TEST(SharedScanTest, DecayedWindowsAnswerFromSummaries) {
  TraceGenerator gen(SharedTrace(/*days=*/2));
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 0));
  ScanScheduler scheduler(framework.get());
  DecayPolicy policy;
  policy.full_resolution_seconds = 86400;
  ASSERT_TRUE(scheduler
                  .RunExclusive([&] {
                    framework->RunDecay(policy,
                                        gen.config().start + 2 * 86400);
                    return Status::OK();
                  })
                  .ok());
  ExplorationQuery decayed;
  decayed.window_begin = gen.config().start;
  decayed.window_end = gen.config().start + 4 * kEpochSeconds;
  auto expected = framework->Execute(decayed);
  auto actual = scheduler.Execute(decayed);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_FALSE(actual->exact);
  ExpectSameResult(*expected, *actual, "decayed window");
  const ScanSchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.summary_answers, 1u);
  // No leaf pass ran for the decayed window.
  EXPECT_EQ(stats.passes_started, 0u);
}

TEST(SharedScanTest, PassFailpointFailsWaitersAndRecovers) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "failpoint sites compiled out";
  }
  TraceGenerator gen(SharedTrace());
  auto framework = IngestTrace(gen, StoreOptions(LeafLayout::kColumnar, 0), 8);
  ScanScheduler scheduler(framework.get());
  ExplorationQuery query;
  query.window_begin = gen.config().start;
  query.window_end = gen.config().start + 8 * kEpochSeconds;

  failpoint::Trigger hard;
  hard.code = StatusCode::kIOError;
  hard.nth = 1;
  ASSERT_TRUE(failpoint::Arm("query.scan_scheduler.pass", hard).ok());
  auto failed = scheduler.Execute(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  failpoint::DisarmAll();
  failpoint::ResetCounters();

  // The failed pass left no residue: the next query runs a fresh pass and
  // matches a private execute.
  auto expected = framework->Execute(query);
  auto recovered = scheduler.Execute(query);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(recovered.ok());
  ExpectSameResult(*expected, *recovered, "after failpoint");
}

// ---------------------------------------------------------------------------
// Serving tier: multi-worker shards ride the shard's scheduler.

TEST(SharedScanServeTest, MultiWorkerShardsMatchSingleWorker) {
  TraceGenerator gen(SharedTrace());
  ServeOptions serial_options;
  serial_options.num_shards = 2;
  serial_options.quota.tokens_per_second = 0;
  serial_options.quota.max_in_flight = 0;
  serial_options.default_deadline_seconds = 30.0;
  serial_options.tuning.queue_capacity = 64;
  ServeOptions shared_options = serial_options;
  shared_options.tuning.workers = 4;
  shared_options.shard.fragment_cache_bytes = 16 << 20;

  QueryServer serial(serial_options, gen.cells());
  QueryServer shared(shared_options, gen.cells());
  std::vector<Timestamp> epochs;
  for (Timestamp epoch : gen.EpochStarts()) {
    if (epochs.size() >= 12) break;
    ASSERT_TRUE(serial.Ingest(gen.GenerateSnapshot(epoch)).ok());
    ASSERT_TRUE(shared.Ingest(gen.GenerateSnapshot(epoch)).ok());
    epochs.push_back(epoch);
  }

  auto sorted = [](std::vector<Record> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  // Four overlapping windows, each asked four times concurrently.
  std::vector<ExplorationQuery> windows;
  for (int i = 0; i < 4; ++i) {
    ExplorationQuery query;
    query.window_begin = epochs[i];
    query.window_end = epochs[std::min<size_t>(i + 6, epochs.size() - 1)];
    windows.push_back(query);
  }
  std::vector<ServeResponse> references;
  for (const ExplorationQuery& query : windows) {
    ServeRequest request;
    request.query = query;
    references.push_back(serial.Query(request));
    ASSERT_EQ(references.back().outcome, ServeOutcome::kOk);
  }
  constexpr int kRepeat = 4;
  std::vector<ServeResponse> responses(windows.size() * kRepeat);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < responses.size(); ++i) {
      threads.emplace_back([&, i] {
        ServeRequest request;
        request.query = windows[i % windows.size()];
        responses[i] = shared.Query(request);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    const ServeResponse& reference = references[i % windows.size()];
    const ServeResponse& response = responses[i];
    ASSERT_EQ(response.outcome, ServeOutcome::kOk) << i;
    EXPECT_EQ(sorted(response.result.cdr_rows),
              sorted(reference.result.cdr_rows))
        << i;
    EXPECT_EQ(sorted(response.result.nms_rows),
              sorted(reference.result.nms_rows))
        << i;
    EXPECT_TRUE(response.result.summary == reference.result.summary) << i;
    EXPECT_TRUE(response.result.exact) << i;
  }
  // The shard schedulers actually ran the queries.
  uint64_t scheduled = 0;
  for (const ShardStats& shard : shared.Stats().shards) {
    scheduled +=
        shard.scheduler.passes_started + shard.scheduler.shared_pass_joins;
  }
  EXPECT_GT(scheduled, 0u);
  // The feed moves on. A fresh query shape — no cached answer covers its
  // 9-epoch window, so it misses the whole-result cache — over leaves the
  // batch already decoded must still hit their resident fragments (an
  // ingest invalidates none) and match the serial server exactly.
  const Timestamp next_epoch = gen.EpochStarts()[epochs.size()];
  ASSERT_TRUE(serial.Ingest(gen.GenerateSnapshot(next_epoch)).ok());
  ASSERT_TRUE(shared.Ingest(gen.GenerateSnapshot(next_epoch)).ok());
  auto shard_totals = [&shared] {
    ShardStats total;
    for (const ShardStats& shard : shared.Stats().shards) {
      total.cache.hits += shard.cache.hits;
      total.fragments.fragment_hits += shard.fragments.fragment_hits;
    }
    return total;
  };
  const ShardStats before = shard_totals();
  ServeRequest fresh;
  fresh.query.window_begin = epochs[0];
  fresh.query.window_end = epochs[9];
  fresh.query.attributes = {"ts", "upflux"};
  const ServeResponse fresh_reference = serial.Query(fresh);
  const ServeResponse fresh_response = shared.Query(fresh);
  ASSERT_EQ(fresh_reference.outcome, ServeOutcome::kOk);
  ASSERT_EQ(fresh_response.outcome, ServeOutcome::kOk);
  EXPECT_EQ(sorted(fresh_response.result.cdr_rows),
            sorted(fresh_reference.result.cdr_rows));
  EXPECT_EQ(sorted(fresh_response.result.nms_rows),
            sorted(fresh_reference.result.nms_rows));
  const ShardStats after = shard_totals();
  EXPECT_EQ(after.cache.hits, before.cache.hits);
  EXPECT_GT(after.fragments.fragment_hits, before.fragments.fragment_hits);
}

}  // namespace
}  // namespace spate
