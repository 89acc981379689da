#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

// End-to-end contracts of the sharded serving tier: sharded answers match
// the unsharded framework, deadlines cancel in-flight leaf decodes, a
// tripped breaker short-circuits a dead shard to highlight-only answers,
// and combined fault + overload never produces an unclassified response.

TraceConfig ServeTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 90;
  config.num_antennas = 30;
  config.num_users = 300;
  config.cdr_base_rate = 30;
  config.nms_per_cell = 2.0;
  return config;
}

ServeOptions SmallServer(size_t shards) {
  ServeOptions options;
  options.num_shards = shards;
  options.quota.tokens_per_second = 0;  // tests drive quota explicitly
  options.quota.max_in_flight = 0;
  options.default_deadline_seconds = 30.0;  // effectively no deadline
  options.tuning.queue_capacity = 16;
  return options;
}

/// Ingests `hours` hours of the trace into the server (and returns the
/// epoch starts ingested).
std::vector<Timestamp> IngestHours(const TraceGenerator& gen,
                                   QueryServer* server, int hours) {
  std::vector<Timestamp> epochs;
  for (Timestamp epoch : gen.EpochStarts()) {
    if (epochs.size() >= static_cast<size_t>(hours) * 2) break;
    EXPECT_TRUE(server->Ingest(gen.GenerateSnapshot(epoch)).ok());
    epochs.push_back(epoch);
  }
  return epochs;
}

ExplorationQuery WindowQuery(Timestamp begin, Timestamp end) {
  ExplorationQuery query;
  query.window_begin = begin;
  query.window_end = end;
  return query;
}

std::vector<Record> Sorted(std::vector<Record> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(QueryServerTest, ShardedMatchesUnsharded) {
  const TraceGenerator gen(ServeTrace());
  QueryServer server(SmallServer(3), gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 4);

  SpateOptions unsharded_options;
  SpateFramework unsharded(unsharded_options, gen.cells());
  for (Timestamp epoch : epochs) {
    ASSERT_TRUE(unsharded.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }

  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  const ServeResponse response = server.Query(request);
  ASSERT_EQ(response.outcome, ServeOutcome::kOk)
      << response.status.ToString();
  EXPECT_TRUE(response.result.exact);
  EXPECT_EQ(response.shards_asked, 3u);
  EXPECT_EQ(response.shards_answered, 3u);

  auto expected = unsharded.Execute(request.query);
  ASSERT_TRUE(expected.ok());
  // Shards return their slices in shard order, so rows match as multisets.
  EXPECT_EQ(Sorted(response.result.cdr_rows), Sorted(expected->cdr_rows));
  EXPECT_EQ(Sorted(response.result.nms_rows), Sorted(expected->nms_rows));
  // Cells partition across shards, so the merged per-cell summary is the
  // exact union — bitwise equal, float sums included.
  EXPECT_TRUE(response.result.summary == expected->summary);
}

TEST(QueryServerTest, BoxQueryOnlyAsksOwningShards) {
  const TraceGenerator gen(ServeTrace());
  QueryServer server(SmallServer(4), gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 2);

  // A box around one known cell: only that cell's shard is consulted.
  const CellDirectory& cells = server.cells();
  const CellInfo* cell = cells.Find(FieldAsString(gen.cells().front(), 0));
  ASSERT_NE(cell, nullptr);
  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  request.query.has_box = true;
  request.query.box = {cell->x - 1, cell->y - 1, cell->x + 1, cell->y + 1};
  const std::vector<std::string> in_box =
      cells.CellsInBox(request.query.box);
  ASSERT_FALSE(in_box.empty());
  std::vector<size_t> owners;
  for (const std::string& id : in_box) owners.push_back(server.ShardOf(id));
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());

  const ServeResponse response = server.Query(request);
  ASSERT_EQ(response.outcome, ServeOutcome::kOk);
  EXPECT_EQ(response.shards_asked, owners.size());
  // Every returned row is inside the box's cell set.
  for (const Record& row : response.result.cdr_rows) {
    EXPECT_NE(std::find(in_box.begin(), in_box.end(),
                        FieldAsString(row, kCdrCellId)),
              in_box.end());
  }
}

TEST(QueryServerTest, BoxSelectingNothingAnswersEmptyWithoutShards) {
  const TraceGenerator gen(ServeTrace());
  QueryServer server(SmallServer(2), gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 1);
  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  request.query.has_box = true;
  request.query.box = {-2e9, -2e9, -1e9, -1e9};  // far outside the region
  const ServeResponse response = server.Query(request);
  EXPECT_EQ(response.outcome, ServeOutcome::kOk);
  EXPECT_EQ(response.shards_asked, 0u);
  EXPECT_TRUE(response.result.exact);
  EXPECT_TRUE(response.result.cdr_rows.empty());
}

// The deterministic deadline-propagation proof: a scan over many leaves is
// cancelled from its own callback after the first leaf, and the framework
// observes its context's token *between* leaves — exactly one snapshot is
// streamed and the scan unwinds with kDeadlineExceeded (not a degraded
// skip: cancellation is deliberately not a degradable failure).
TEST(DeadlinePropagationTest, CancelObservedBetweenLeaves) {
  const TraceGenerator gen(ServeTrace());
  SpateFramework framework(SpateOptions{}, gen.cells());
  std::vector<Timestamp> epochs;
  for (Timestamp epoch : gen.EpochStarts()) {
    if (epochs.size() >= 6) break;
    ASSERT_TRUE(framework.Ingest(gen.GenerateSnapshot(epoch)).ok());
    epochs.push_back(epoch);
  }
  const ExplorationQuery window =
      WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  CancelToken token;
  QueryContext cancelled{&token, {}};
  int streamed = 0;
  const Status scan =
      framework.Scan(window, &cancelled, [&](const Snapshot&) {
        ++streamed;
        token.Cancel();  // cancel mid-scan, from the serial fold
      });
  EXPECT_TRUE(scan.IsDeadlineExceeded()) << scan.ToString();
  EXPECT_EQ(streamed, 1);  // the check fired before the second decode
  EXPECT_EQ(cancelled.stats.leaves_scanned, 1u);
  // The token belonged to that call alone: a fresh context completes.
  QueryContext fresh;
  int full = 0;
  ASSERT_TRUE(
      framework.Scan(window, &fresh, [&](const Snapshot&) { ++full; }).ok());
  EXPECT_EQ(full, static_cast<int>(epochs.size()));
}

/// Kills every datanode of one shard's DFS, so its queries fail hard.
void KillShard(QueryServer* server, size_t shard) {
  DistributedFileSystem& dfs = server->shard(shard).framework().dfs();
  for (int node = 0; dfs.KillDatanode(node).ok(); ++node) {
  }
  ASSERT_EQ(dfs.NumLiveDatanodes(), 0);
}

TEST(QueryServerTest, BreakerShortCircuitsDeadShardToHighlights) {
  const TraceGenerator gen(ServeTrace());
  ServeOptions options = SmallServer(2);
  // Hard failures, no degraded reads: a dead shard surfaces kUnavailable.
  options.shard.degraded_reads = false;
  options.tuning.max_attempts = 2;
  options.tuning.backoff_base_seconds = 0.0005;
  options.tuning.breaker.failure_threshold = 2;
  options.tuning.breaker.open_seconds = 60.0;  // stays open for the test
  QueryServer server(options, gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 2);

  constexpr size_t kDead = 0;
  KillShard(&server, kDead);

  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  // Enough queries to trip the breaker (threshold 2), then some more that
  // must short-circuit without touching the dead shard.
  for (int i = 0; i < 5; ++i) {
    const ServeResponse response = server.Query(request);
    // Dead shard degrades to its highlight mirror; the live shard still
    // contributes full-fidelity rows.
    ASSERT_EQ(response.outcome, ServeOutcome::kDegraded)
        << i << ": " << response.status.ToString();
    EXPECT_TRUE(response.result.degraded);
    EXPECT_EQ(response.shards_fallback, 1u);
    EXPECT_EQ(response.shards_answered, 1u);
    EXPECT_FALSE(response.result.cdr_rows.empty());  // live shard's rows
    // The mirror still describes the dead shard's cells in the summary.
    EXPECT_GT(response.result.summary.cdr_rows(), 0u);
  }

  const ServerStats stats = server.Stats();
  const ShardStats& dead = stats.shards[kDead];
  EXPECT_EQ(dead.breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_GE(dead.breaker_trips, 1u);
  // Later queries were short-circuited: dispatch refused, no execution.
  EXPECT_GE(dead.short_circuits, 1u);
  EXPECT_GE(dead.fallbacks, 5u);
  // The breaker capped how often the dead shard was actually tried.
  EXPECT_LE(dead.executed, 3u);
  const ShardStats& live = stats.shards[1 - kDead];
  EXPECT_EQ(live.breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(live.short_circuits, 0u);
}

TEST(QueryServerTest, DeadShardWithoutDegradedAnswersFails) {
  const TraceGenerator gen(ServeTrace());
  ServeOptions options = SmallServer(2);
  options.shard.degraded_reads = false;
  options.tuning.max_attempts = 1;
  QueryServer server(options, gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 1);
  KillShard(&server, 1);

  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  request.allow_degraded = false;
  const ServeResponse response = server.Query(request);
  EXPECT_EQ(response.outcome, ServeOutcome::kError);
  EXPECT_TRUE(response.status.IsUnavailable())
      << response.status.ToString();
}

TEST(QueryServerTest, SpentDeadlineDegradesOrFails) {
  const TraceGenerator gen(ServeTrace());
  QueryServer server(SmallServer(2), gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 2);
  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  request.deadline_seconds = 1e-9;  // spent on arrival

  // With degradation: a highlight-only answer, never a hang.
  const ServeResponse degraded = server.Query(request);
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(degraded.result.degraded);
  EXPECT_GT(degraded.result.summary.cdr_rows(), 0u);  // mirror answered

  // Without: the deadline verdict itself.
  request.allow_degraded = false;
  const ServeResponse failed = server.Query(request);
  EXPECT_EQ(failed.outcome, ServeOutcome::kDeadlineExceeded);
  EXPECT_TRUE(failed.status.IsDeadlineExceeded());
}

TEST(QueryServerTest, QuotaShedsBeforeShards) {
  const TraceGenerator gen(ServeTrace());
  ServeOptions options = SmallServer(2);
  options.quota.tokens_per_second = 0.001;  // no refill on test timescale
  options.quota.burst = 3.0;
  QueryServer server(options, gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 1);
  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  int ok = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    const ServeResponse response = server.Query(request);
    if (response.outcome == ServeOutcome::kShed) {
      ++shed;
      EXPECT_TRUE(response.status.IsResourceExhausted());
    } else {
      ASSERT_EQ(response.outcome, ServeOutcome::kOk);
      ++ok;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(shed, 3);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.tenants.at("default").shed, 3u);
  EXPECT_EQ(stats.tenants.at("default").admitted, 3u);
}

TEST(QueryServerTest, RepeatQueryHitsShardResultCaches) {
  const TraceGenerator gen(ServeTrace());
  QueryServer server(SmallServer(2), gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 2);
  ServeRequest request;
  request.query = WindowQuery(epochs.front(), epochs.back() + kEpochSeconds);
  ASSERT_EQ(server.Query(request).outcome, ServeOutcome::kOk);
  ASSERT_EQ(server.Query(request).outcome, ServeOutcome::kOk);
  uint64_t hits = 0;
  for (const ShardStats& shard : server.Stats().shards) {
    hits += shard.cache.hits;
  }
  EXPECT_GT(hits, 0u);
}

// The shard result caches must never serve an answer the store has moved
// past: an ingest that adds rows to a window reaching past the newest
// epoch, and a decay that evicts a cached window's leaves, both have to
// show through. An unsharded framework fed the same epochs is the
// reference.
TEST(QueryServerTest, ResultCacheFollowsIngestAndDecay) {
  TraceConfig config = ServeTrace();
  config.days = 2;
  const TraceGenerator gen(config);
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  auto ingest = [&](QueryServer* server, SpateFramework* reference,
                    size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Snapshot snapshot = gen.GenerateSnapshot(epochs[i]);
      ASSERT_TRUE(server->Ingest(snapshot).ok());
      ASSERT_TRUE(reference->Ingest(snapshot).ok());
    }
  };

  {
    // Ingest: [e8, e12) after 10 epochs, then one more epoch lands in it.
    QueryServer server(SmallServer(2), gen.cells());
    SpateFramework reference(SpateOptions{}, gen.cells());
    ingest(&server, &reference, 0, 10);
    ServeRequest request;
    request.query = WindowQuery(epochs[8], epochs[12]);
    ASSERT_EQ(server.Query(request).outcome, ServeOutcome::kOk);
    ingest(&server, &reference, 10, 11);
    const ServeResponse response = server.Query(request);
    auto expected = reference.Execute(request.query);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(response.outcome, ServeOutcome::kOk);
    EXPECT_TRUE(response.result.exact);
    EXPECT_EQ(Sorted(response.result.cdr_rows), Sorted(expected->cdr_rows));
    EXPECT_EQ(Sorted(response.result.nms_rows), Sorted(expected->nms_rows));
  }
  {
    // Decay: with a one-day horizon, [e2, e4) is exact and cached after 50
    // epochs, and decays during the next 10.
    ServeOptions options = SmallServer(2);
    options.shard.decay.full_resolution_seconds = 86400;
    QueryServer server(options, gen.cells());
    SpateFramework reference(options.shard, gen.cells());
    ingest(&server, &reference, 0, 50);
    ServeRequest request;
    request.query = WindowQuery(epochs[2], epochs[4]);
    const ServeResponse first = server.Query(request);
    ASSERT_EQ(first.outcome, ServeOutcome::kOk);
    EXPECT_TRUE(first.result.exact);
    ASSERT_EQ(server.Query(request).outcome, ServeOutcome::kOk);
    uint64_t hits = 0;
    for (const ShardStats& shard : server.Stats().shards) {
      hits += shard.cache.hits;
    }
    EXPECT_GT(hits, 0u);  // the window was cached before it decayed
    ingest(&server, &reference, 50, 60);
    const ServeResponse response = server.Query(request);
    auto expected = reference.Execute(request.query);
    ASSERT_TRUE(expected.ok());
    EXPECT_FALSE(expected->exact);
    ASSERT_EQ(response.outcome, ServeOutcome::kOk);
    EXPECT_FALSE(response.result.exact);
    EXPECT_TRUE(response.result.cdr_rows.empty());
    EXPECT_TRUE(response.result.nms_rows.empty());
  }
}

// The combined fault + overload test (runs under the TSan + lockdep CI
// labels): a seeded chaos schedule kills/revives datanodes and corrupts
// replicas while concurrent multi-tenant clients hammer the server with
// tight deadlines and small queues. Every response must be classified —
// success, degraded, shed or deadline-exceeded; never an error, a hang or
// a crash — and the admission ledger must balance.
TEST(QueryServerStressTest, FaultsPlusOverloadAlwaysClassified) {
  const TraceGenerator gen(ServeTrace());
  ServeOptions options = SmallServer(3);
  options.quota.tokens_per_second = 400.0;
  options.quota.burst = 40.0;
  options.quota.max_in_flight = 16;
  options.tuning.queue_capacity = 2;  // overload surfaces as backpressure
  options.tuning.max_attempts = 2;
  options.tuning.backoff_base_seconds = 0.0002;
  options.tuning.breaker.failure_threshold = 3;
  options.tuning.breaker.open_seconds = 0.01;
  options.default_deadline_seconds = 0.08;
  // Transient replica-read errors on every shard, deterministic per seed.
  options.shard.dfs.fault.seed = 7;
  options.shard.dfs.fault.transient_read_error_rate = 0.02;
  QueryServer server(options, gen.cells());
  const std::vector<Timestamp> epochs = IngestHours(gen, &server, 3);

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> counts[5] = {};
  std::atomic<bool> stop_chaos{false};

  // Chaos: seeded kill/revive/corrupt cycles across shards.
  std::thread chaos([&] {
    Rng rng(20170402);
    while (!stop_chaos.load()) {
      const size_t shard = rng.Uniform(server.num_shards());
      DistributedFileSystem& dfs = server.shard(shard).framework().dfs();
      const int node = static_cast<int>(rng.Uniform(4));
      (void)dfs.KillDatanode(node);
      (void)dfs.CorruptRandomReplica(rng.Next());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)dfs.ReviveDatanode(node);
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      const std::string tenant = "tenant-" + std::to_string(c % 3);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServeRequest request;
        request.tenant = tenant;
        const size_t lo = rng.Uniform(epochs.size());
        request.query =
            WindowQuery(epochs[lo], epochs.back() + kEpochSeconds);
        if (rng.Bernoulli(0.3)) {
          const CellDirectory& cells = server.cells();
          const BoundingBox& extent = cells.extent();
          const double cx =
              extent.min_x + rng.NextDouble() * extent.width();
          const double cy =
              extent.min_y + rng.NextDouble() * extent.height();
          request.query.has_box = true;
          request.query.box = {cx - 20000, cy - 20000, cx + 20000,
                               cy + 20000};
        }
        const ServeResponse response = server.Query(request);
        counts[static_cast<int>(response.outcome)].fetch_add(1);
        if (response.outcome == ServeOutcome::kError) {
          ADD_FAILURE() << "unclassified failure: "
                        << response.status.ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_chaos.store(true);
  chaos.join();

  const int total = counts[0] + counts[1] + counts[2] + counts[3] + counts[4];
  EXPECT_EQ(total, kClients * kRequestsPerClient);
  EXPECT_EQ(counts[static_cast<int>(ServeOutcome::kError)].load(), 0);
  // The admission ledger balances: everything admitted eventually finished.
  const ServerStats stats = server.Stats();
  uint64_t admitted = 0, finished = 0, shed = 0;
  for (const auto& [name, tenant] : stats.tenants) {
    admitted += tenant.admitted;
    shed += tenant.shed;
    finished += tenant.ok + tenant.degraded + tenant.deadline_exceeded +
                tenant.errors;
    EXPECT_EQ(tenant.in_flight, 0u) << name;
  }
  EXPECT_EQ(admitted, finished);
  EXPECT_EQ(admitted + shed,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
}

}  // namespace
}  // namespace spate
