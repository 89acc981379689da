#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/fsck.h"
#include "common/failpoint.h"
#include "core/spate_framework.h"
#include "serve/server.h"
#include "sql/planner.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

// The failpoint walker: iterates every registered failpoint, trips it under
// one canonical ingest -> query -> recover -> serve workload, and asserts
// the three promises of docs/FAILPOINTS.md:
//
//   reachability — the canonical workload passes through every site
//                  (passages >= 1 while armed);
//   propagation  — the injected failure either surfaces as a well-formed
//                  Status at an API boundary or is absorbed by a *named*
//                  degradation (highlight fallback, repair accounting,
//                  planner-statistics bailout, best-effort delete);
//   consistency  — after disarming and one RepairScan, Fsck() is clean on
//                  every store and a fresh Recover() succeeds.
//
// Each site is tripped twice: first-hit (nth=1) with kIOError — a hard,
// non-degradable code that must not be silently swallowed — and nth-hit
// (nth=2) with kUnavailable, the degradable code the store's absorb paths
// are built for. The nth-hit run is skipped for sites the workload only
// reaches once (the first-hit run measures the passage count).
//
// In uninstrumented builds the site macros compile to nothing, so the walk
// self-skips (same policy as the lockdep tests).

struct WalkOutcome {
  // Every non-OK Status observed at an API boundary, in workload order.
  std::vector<Status> surfaced;
  // Serving tier answered degraded / shed / with shard fallbacks.
  bool serve_degraded = false;
  // RepairScan left blocks unavailable (the dfs.replicate absorb path).
  uint64_t repair_unavailable = 0;
  // Planned SQL still produced a result (the statistics-probe absorb path).
  bool sql_ok = false;
  // Site counters during the armed phase only (teardown excluded).
  uint64_t workload_passages = 0;
  uint64_t workload_trips = 0;
};

TraceConfig WalkTrace() {
  TraceConfig config;
  config.days = 3;
  config.num_cells = 24;
  config.num_antennas = 8;
  config.num_users = 60;
  config.cdr_base_rate = 6;
  config.nms_per_cell = 0.5;
  return config;
}

void Record(WalkOutcome* outcome, const Status& status) {
  if (status.ok()) return;
  // Propagated errors must be well-formed wherever they surface.
  EXPECT_NE(status.code(), StatusCode::kOk);
  EXPECT_FALSE(status.message().empty()) << status.ToString();
  outcome->surfaced.push_back(status);
}

bool Surfaced(const WalkOutcome& outcome, StatusCode code) {
  for (const Status& status : outcome.surfaced) {
    if (status.code() == code) return true;
  }
  return false;
}

/// Runs the canonical workload with `site` armed, then verifies the store
/// recovers to a clean Fsck. Never crashes and never deadlocks, whatever
/// the injection does — that is half of what the walk proves.
WalkOutcome RunWorkload(std::string_view site,
                        const failpoint::Trigger& trigger) {
  WalkOutcome outcome;
  const TraceConfig config = WalkTrace();
  const TraceGenerator gen(config);
  const std::vector<Timestamp> epochs = gen.EpochStarts();

  // Harness construction happens before arming: the walk targets the
  // operational surface, not constructor-time bootstrap writes.
  SpateOptions row_options;
  row_options.parallelism.ingest_chunk_bytes = 2048;  // force 0xCF chunking
  auto row_store = std::make_unique<SpateFramework>(row_options, gen.cells());

  SpateOptions col_options;
  col_options.leaf_layout = LeafLayout::kColumnar;
  auto col_store = std::make_unique<SpateFramework>(col_options, gen.cells());

  ServeOptions serve_options;
  serve_options.num_shards = 2;
  serve_options.quota.tokens_per_second = 0;  // no rate shaping in the walk
  serve_options.quota.max_in_flight = 0;
  serve_options.default_deadline_seconds = 30.0;
  QueryServer server(serve_options, gen.cells());

  failpoint::ResetCounters();
  EXPECT_TRUE(failpoint::Arm(site, trigger).ok()) << site;

  // --- Ingest: the first three epochs of each of the three days (the two
  // day rollovers persist two /spate/index/day summaries for Recover).
  for (size_t i = 0; i < epochs.size(); ++i) {
    if (static_cast<int>(i) % kEpochsPerDay >= 3) continue;
    Record(&outcome, row_store->Ingest(gen.GenerateSnapshot(epochs[i])));
  }
  for (size_t i = 0; i < 3; ++i) {
    Record(&outcome, col_store->Ingest(gen.GenerateSnapshot(epochs[i])));
  }

  // --- Query: exact window reads on both layouts plus a serial scan.
  ExplorationQuery query;
  query.window_begin = config.start + 2 * 86400;
  query.window_end = config.start + 2 * 86400 + 3 * kEpochSeconds;
  {
    auto result = row_store->Execute(query);
    Record(&outcome, result.status());
  }
  {
    ExplorationQuery day0 = query;
    day0.window_begin = config.start;
    day0.window_end = config.start + 3 * kEpochSeconds;
    auto result = col_store->Execute(day0);
    Record(&outcome, result.status());
  }
  {
    size_t rows = 0;
    Record(&outcome, row_store->ScanWindow(
                         config.start, config.start + 3 * kEpochSeconds,
                         [&](const Snapshot& s) { rows += s.size(); }));
  }

  // --- Planned SQL (CollectPlannerStatistics probe), twice so the
  // statistics site has a second passage for the nth-hit run.
  const std::string sql =
      "SELECT cell_id, SUM(duration) FROM CDR WHERE ts >= '" +
      FormatCompact(config.start) + "' AND ts < '" +
      FormatCompact(config.start + 3 * kEpochSeconds) +
      "' GROUP BY cell_id";
  for (int i = 0; i < 2; ++i) {
    auto result = ExecutePlannedSql(*row_store, sql);
    if (result.ok()) outcome.sql_ok = true;
    Record(&outcome, result.status());
  }

  // --- Storage fault + repair: two corrupted replicas, one repair pass.
  auto dfs = row_store->shared_dfs();
  for (uint64_t seed : {7u, 11u}) {
    auto corrupted = dfs->CorruptRandomReplica(seed);
    Record(&outcome, corrupted.status());
  }
  outcome.repair_unavailable = dfs->RepairScan().unavailable_blocks;

  // --- Recover from the live DFS (read-only against the shared store).
  {
    auto recovered = SpateFramework::Recover(row_options, dfs);
    Record(&outcome, recovered.status());
  }

  // --- Decay: evict everything behind a keep-one-day horizon.
  {
    DecayPolicy policy;
    policy.full_resolution_seconds = 86400;
    (void)row_store->RunDecay(policy, config.start + 3 * 86400);
  }

  // --- Serving tier: two ingests, two scattered queries.
  for (size_t i = 0; i < 2; ++i) {
    Record(&outcome, server.Ingest(gen.GenerateSnapshot(epochs[i])));
  }
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.query.window_begin = epochs[0];
    request.query.window_end = epochs[0] + 2 * kEpochSeconds;
    const ServeResponse response = server.Query(request);
    Record(&outcome, response.status);
    if (response.outcome == ServeOutcome::kDegraded ||
        response.outcome == ServeOutcome::kShed ||
        response.shards_fallback > 0) {
      outcome.serve_degraded = true;
    }
  }

  // Armed-phase counters, before teardown traffic can inflate them.
  {
    auto info = failpoint::Get(site);
    EXPECT_TRUE(info.ok()) << site;
    if (info.ok()) {
      outcome.workload_passages = info->passages;
      outcome.workload_trips = info->trips;
    }
  }

  // --- Consistency: disarm, let the namenode repair, then the store must
  // verify clean and recover clean. This is the "leaves the store
  // consistent" half of the ISSUE's proof obligation.
  failpoint::DisarmAll();
  (void)dfs->RepairScan();
  const auto row_fsck = row_store->Fsck();
  EXPECT_TRUE(row_fsck.clean())
      << "site " << site << " left the row store inconsistent:\n"
      << row_fsck.ToString();
  const auto col_fsck = col_store->Fsck();
  EXPECT_TRUE(col_fsck.clean())
      << "site " << site << " left the columnar store inconsistent:\n"
      << col_fsck.ToString();
  auto clean_recover = SpateFramework::Recover(row_options, dfs);
  EXPECT_TRUE(clean_recover.ok())
      << "site " << site << " broke recovery: "
      << clean_recover.status().ToString();
  return outcome;
}

TEST(FailpointWalkTest, EveryRegisteredSiteTripsAndTheStoreStaysConsistent) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "failpoint sites compiled out (build with "
                    "-DSPATE_FAILPOINTS=ON or a Debug build)";
  }

  // Sites whose injected hard error must surface as a Status of exactly the
  // injected code at some API boundary.
  const std::set<std::string, std::less<>> kSurfaces = {
      "compress.chunked.decompress", "compress.columnar.open",
      "compress.envelope.open",      "core.ingest",
      "dfs.read_block",              "dfs.write_file",
      "index.add_leaf",              "index.load.day_summary",
      "index.load.leaf",             "serve.admission.admit",
  };
  // Sites absorbed by the serving tier's degradation ladder. The
  // scan-scheduler read boundary sits under the shard's retry loop: the
  // hard kIOError is permanent (serve/retry_policy.h), so the shard fails
  // and the gather answers from its highlight mirror instead.
  const std::set<std::string, std::less<>> kDegradesServe = {
      "pool.submit",
      "query.scan_scheduler.read",
      "serve.shard.dispatch",
  };

  const auto all = failpoint::AllFailpoints();
  ASSERT_FALSE(all.empty());
  for (const auto& info : all) {
    const std::string id(info.id);
    SCOPED_TRACE("failpoint " + id);

    // First-hit run: a hard, non-degradable error.
    failpoint::Trigger hard;
    hard.code = StatusCode::kIOError;
    hard.nth = 1;
    const WalkOutcome first = RunWorkload(id, hard);
    EXPECT_GE(first.workload_passages, 1u)
        << "unreachable: the canonical workload never passes " << id;
    EXPECT_GE(first.workload_trips, 1u) << "armed but never tripped: " << id;

    if (kSurfaces.count(id) != 0) {
      EXPECT_TRUE(Surfaced(first, StatusCode::kIOError))
          << id << " swallowed an injected hard kIOError";
    } else if (kDegradesServe.count(id) != 0) {
      EXPECT_TRUE(first.serve_degraded)
          << id << " produced neither a degraded answer nor a fallback";
    } else if (id == "dfs.replicate") {
      EXPECT_GE(first.repair_unavailable, 1u)
          << "a skipped re-replication must be accounted unavailable";
    } else if (id == "sql.collect_statistics") {
      // The statistics probe is advisory: the planner must still answer.
      EXPECT_TRUE(first.sql_ok)
          << "planner gave up instead of planning without statistics";
    } else {
      // dfs.delete_file: deletes are best-effort by contract (decay and
      // ingest rollback both (void) them) — the trip plus the clean Fsck
      // *is* the assertion.
      EXPECT_EQ(id, "dfs.delete_file") << "unclassified failpoint " << id
                                       << ": add it to the walker's "
                                          "expectation table";
    }

    // Nth-hit run: the second passage fails with the degradable code the
    // absorb paths are designed for. Only meaningful when the workload
    // passes the site at least twice.
    if (first.workload_passages >= 2) {
      failpoint::Trigger nth;
      nth.code = StatusCode::kUnavailable;
      nth.nth = 2;
      const WalkOutcome second = RunWorkload(id, nth);
      EXPECT_EQ(second.workload_trips, 1u)
          << id << " nth=2 arming tripped " << second.workload_trips
          << " times over " << second.workload_passages << " passages";
    }
  }
  failpoint::DisarmAll();
  failpoint::ResetCounters();
}

TEST(FailpointWalkTest, RegistryMatchesTheInstrumentationPolicy) {
  // Runs in every build: the registry is always enumerable, and in
  // uninstrumented builds an armed site must change nothing.
  const auto all = failpoint::AllFailpoints();
  ASSERT_GE(all.size(), 15u);
  if (failpoint::Enabled()) return;
  failpoint::Trigger trigger;
  trigger.nth = 0;
  ASSERT_TRUE(failpoint::Arm("dfs.read_block", trigger).ok());
  TraceConfig config = WalkTrace();
  config.days = 1;
  const TraceGenerator gen(config);
  SpateFramework store(SpateOptions{}, gen.cells());
  ASSERT_TRUE(store.Ingest(gen.GenerateSnapshot(config.start)).ok());
  ExplorationQuery query;
  query.window_begin = config.start;
  query.window_end = config.start + kEpochSeconds;
  EXPECT_TRUE(store.Execute(query).ok());  // armed site is invisible
  auto info = failpoint::Get("dfs.read_block");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->trips, 0u);
  failpoint::DisarmAll();
  failpoint::ResetCounters();
}

}  // namespace
}  // namespace spate
