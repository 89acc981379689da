#include <gtest/gtest.h>

#include "core/spate_framework.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

TraceConfig RecoveryTrace() {
  TraceConfig config;
  config.days = 3;
  config.num_cells = 60;
  config.num_antennas = 20;
  config.num_users = 200;
  config.cdr_base_rate = 30;
  config.nms_per_cell = 1.0;
  return config;
}

TEST(RecoveryTest, RebuildsIndexFromDfs) {
  TraceConfig config = RecoveryTrace();
  TraceGenerator gen(config);
  SpateOptions options;
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(original->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  const uint64_t storage_before = original->StorageBytes();
  const uint64_t root_rows = original->index().root_summary().cdr_rows();
  auto dfs = original->shared_dfs();
  original.reset();  // "crash"

  auto recovered = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SpateFramework& spate = **recovered;

  EXPECT_EQ(spate.StorageBytes(), storage_before);
  EXPECT_EQ(spate.index().num_leaves(), 3u * kEpochsPerDay);
  EXPECT_EQ(spate.index().root_summary().cdr_rows(), root_rows);
  EXPECT_EQ(spate.cells().size(), static_cast<size_t>(config.num_cells));

  // Scans over the recovered data match a fresh generation.
  size_t scanned = 0;
  ASSERT_TRUE(spate
                  .ScanWindow(config.start, config.start + 3 * 86400,
                              [&](const Snapshot& s) { scanned += s.size(); })
                  .ok());
  size_t expected = 0;
  for (Timestamp epoch : gen.EpochStarts()) {
    expected += gen.GenerateSnapshot(epoch).size();
  }
  EXPECT_EQ(scanned, expected);

  // The recovered framework keeps ingesting where the old one stopped.
  const Timestamp next = config.start + 3 * 86400;
  ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(next)).ok());
  EXPECT_EQ(spate.index().num_leaves(), 3u * kEpochsPerDay + 1);
}

TEST(RecoveryTest, DecayedDaysServeSummariesAfterRestart) {
  TraceConfig config = RecoveryTrace();
  TraceGenerator gen(config);
  SpateOptions options;
  options.decay.full_resolution_seconds = 86400;  // keep one day
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  uint64_t day0_calls = 0;
  for (Timestamp epoch : gen.EpochStarts()) {
    const Snapshot snapshot = gen.GenerateSnapshot(epoch);
    if (epoch < config.start + 86400) day0_calls += snapshot.cdr.size();
    ASSERT_TRUE(original->Ingest(snapshot).ok());
  }
  ASSERT_EQ(original->index().num_decayed(), 2u * kEpochsPerDay);
  auto dfs = original->shared_dfs();
  original.reset();

  auto recovered = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SpateFramework& spate = **recovered;
  // Only the resident day's leaves come back.
  EXPECT_EQ(spate.index().num_leaves(), static_cast<size_t>(kEpochsPerDay));

  // Day 0 decayed entirely, but its persisted summary still answers.
  auto agg = spate.AggregateWindow(config.start, config.start + 86400);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->cdr_rows(), day0_calls);

  // And a query over day 0 degrades to the summary, not an empty exact
  // result.
  ExplorationQuery query;
  query.window_begin = config.start + 3600;
  query.window_end = config.start + 7200;
  auto result = spate.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_GT(result->summary.cdr_rows(), 0u);
}

TEST(RecoveryTest, RejectsEmptyDfs) {
  auto dfs = std::make_shared<DistributedFileSystem>();
  auto recovered = SpateFramework::Recover(SpateOptions{}, dfs);
  EXPECT_FALSE(recovered.ok());
  EXPECT_FALSE(SpateFramework::Recover(SpateOptions{}, nullptr).ok());
}

// --- Fault-injected recovery & degraded-mode queries ---

/// Flips one byte in every replica of `path`'s first block, so no failover
/// target survives (leaf blobs are single-block at the default block size).
void CorruptAllReplicas(DistributedFileSystem& dfs, const std::string& path) {
  for (int r = 0; r < dfs.options().replication; ++r) {
    ASSERT_TRUE(dfs.CorruptReplica(path, 0, static_cast<size_t>(r), 3).ok());
  }
}

Timestamp EpochOfLeafPath(const std::string& path) {
  return ParseCompact(path.substr(path.rfind('/') + 1));
}

TEST(RecoveryTest, ToleratesLeafWithEveryReplicaCorrupt) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(original->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  auto dfs = original->shared_dfs();
  original.reset();

  const std::vector<std::string> leaves = dfs->ListFiles("/spate/data/");
  ASSERT_EQ(leaves.size(), static_cast<size_t>(kEpochsPerDay));
  const std::string& lost_path = leaves[5];
  const Timestamp lost_epoch = EpochOfLeafPath(lost_path);
  CorruptAllReplicas(*dfs, lost_path);

  auto recovered = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SpateFramework& spate = **recovered;
  const RecoveryReport& report = spate.recovery_report();
  EXPECT_EQ(report.leaves_recovered, static_cast<size_t>(kEpochsPerDay - 1));
  EXPECT_EQ(report.leaves_skipped, 1u);
  ASSERT_EQ(report.skipped_epochs.size(), 1u);
  EXPECT_EQ(report.skipped_epochs[0], lost_epoch);
  // The lost epoch is a decayed placeholder, not a hole: windows touching
  // it degrade to summaries instead of claiming an exact empty answer.
  EXPECT_EQ(spate.index().num_leaves(), static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ(spate.index().num_decayed(), 1u);

  ExplorationQuery over_lost;
  over_lost.window_begin = lost_epoch;
  over_lost.window_end = lost_epoch + kEpochSeconds;
  auto degraded = spate.Execute(over_lost);
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded->exact);
  EXPECT_GT(degraded->summary.cdr_rows(), 0u);

  // Epochs with surviving replicas still answer exactly.
  ExplorationQuery over_good;
  over_good.window_begin = lost_epoch + kEpochSeconds;
  over_good.window_end = lost_epoch + 2 * kEpochSeconds;
  auto exact = spate.Execute(over_good);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->exact);
}

TEST(RecoveryTest, StrictModeStillFailsOnCorruptLeaf) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(original->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  auto dfs = original->shared_dfs();
  original.reset();
  CorruptAllReplicas(*dfs, dfs->ListFiles("/spate/data/")[3]);

  SpateOptions strict = options;
  strict.degraded_reads = false;
  auto recovered = SpateFramework::Recover(strict, dfs);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
}

TEST(RecoveryTest, ToleratesMissingLeafFile) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(original->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  auto dfs = original->shared_dfs();
  original.reset();
  // The namenode lost a whole file (e.g. an operator fat-fingered a
  // delete): recovery proceeds with one leaf fewer.
  ASSERT_TRUE(dfs->DeleteFile(dfs->ListFiles("/spate/data/")[10]).ok());

  auto recovered = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SpateFramework& spate = **recovered;
  EXPECT_EQ(spate.index().num_leaves(),
            static_cast<size_t>(kEpochsPerDay - 1));
  size_t scanned = 0;
  ASSERT_TRUE(spate
                  .ScanWindow(config.start, config.start + 86400,
                              [&](const Snapshot&) { ++scanned; })
                  .ok());
  EXPECT_EQ(scanned, static_cast<size_t>(kEpochsPerDay - 1));
  // Ingestion continues past the recovered tail.
  ASSERT_TRUE(
      spate.Ingest(gen.GenerateSnapshot(config.start + 86400)).ok());
}

TEST(RecoveryTest, DownedDatanodesDegradeThenReviveRestoresEverything) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  auto original = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(original->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  auto dfs = original->shared_dfs();
  original.reset();

  // Three of four datanodes go dark. The cell inventory (first write, on
  // nodes 0/1/2) survives via node 0; leaves whose replica set is exactly
  // {1,2,3} are temporarily unreadable.
  for (int node : {1, 2, 3}) ASSERT_TRUE(dfs->KillDatanode(node).ok());
  auto recovered = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryReport& report = (*recovered)->recovery_report();
  EXPECT_GT(report.leaves_skipped, 0u);
  EXPECT_EQ(report.leaves_recovered + report.leaves_skipped,
            static_cast<size_t>(kEpochsPerDay));
  // Every query over the day still answers (exactly or via summaries).
  for (Timestamp epoch : gen.EpochStarts()) {
    ExplorationQuery query;
    query.window_begin = epoch;
    query.window_end = epoch + kEpochSeconds;
    auto result = (*recovered)->Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // The outage was transient: after revival a fresh recovery is complete.
  for (int node : {1, 2, 3}) ASSERT_TRUE(dfs->ReviveDatanode(node).ok());
  auto full = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ((*full)->recovery_report().leaves_skipped, 0u);
  EXPECT_EQ((*full)->index().num_leaves(),
            static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ((*full)->index().num_decayed(), 0u);
}

TEST(RecoveryTest, RoundTripsTwice) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  auto first = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(first->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  const uint64_t rows = first->index().root_summary().cdr_rows();
  auto dfs = first->shared_dfs();
  first.reset();
  auto second = SpateFramework::Recover(options, dfs);
  ASSERT_TRUE(second.ok());
  auto dfs2 = (*second)->shared_dfs();
  second->reset();
  auto third = SpateFramework::Recover(options, dfs2);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->index().root_summary().cdr_rows(), rows);
}

TEST(RecoveryTest, LiveQueryDegradesWithoutRestart) {
  TraceConfig config = RecoveryTrace();
  config.days = 1;
  TraceGenerator gen(config);
  SpateOptions options;
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  // A leaf loses every replica while the framework keeps running: queries
  // over it degrade to the covering summary instead of erroring out.
  const std::string lost_path = spate.dfs().ListFiles("/spate/data/")[7];
  const Timestamp lost_epoch = EpochOfLeafPath(lost_path);
  CorruptAllReplicas(spate.dfs(), lost_path);

  ExplorationQuery query;
  query.window_begin = lost_epoch;
  query.window_end = lost_epoch + kEpochSeconds;
  auto result = spate.Execute(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exact);
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->skipped_epochs.size(), 1u);
  EXPECT_EQ(result->skipped_epochs[0], lost_epoch);
  EXPECT_GT(result->summary.cdr_rows(), 0u);

  // ScanWindow over the whole day reports the hole and streams the rest.
  size_t scanned = 0;
  ASSERT_TRUE(spate
                  .ScanWindow(config.start, config.start + 86400,
                              [&](const Snapshot&) { ++scanned; })
                  .ok());
  EXPECT_EQ(scanned, static_cast<size_t>(kEpochsPerDay - 1));
  ASSERT_EQ(spate.last_scan_stats().skipped_epochs.size(), 1u);
  EXPECT_EQ(spate.last_scan_stats().skipped_epochs[0], lost_epoch);
  EXPECT_FALSE(spate.last_scan_stats().complete());

  // Untouched epochs are unaffected.
  query.window_begin = lost_epoch + kEpochSeconds;
  query.window_end = lost_epoch + 2 * kEpochSeconds;
  auto exact = spate.Execute(query);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->exact);
  EXPECT_FALSE(exact->degraded);
  EXPECT_TRUE(spate.last_scan_stats().complete());
}

/// One run of the ISSUE acceptance schedule: ingest two days, killing
/// datanode 2 between them, flip one byte in one replica of a seeded random
/// block, query every epoch, then repair. Returns everything observable so
/// the caller can assert determinism across runs.
struct FaultScheduleOutcome {
  size_t exact_queries = 0;
  size_t degraded_queries = 0;
  CorruptionEvent corruption;
  IoStats query_stats;
  RepairReport repair;
  uint64_t logical_bytes = 0;
  uint64_t physical_after_repair = 0;
};

FaultScheduleOutcome RunSeededFaultSchedule(uint64_t seed) {
  TraceConfig config = RecoveryTrace();
  config.days = 2;
  TraceGenerator gen(config);
  SpateOptions options;
  SpateFramework spate(options, gen.cells());
  FaultScheduleOutcome out;

  const Timestamp day1 = config.start + 86400;
  for (Timestamp epoch : gen.EpochStarts()) {
    if (epoch == day1) {
      // Datanode 2 dies at epoch k = start of day 1.
      EXPECT_TRUE(spate.dfs().KillDatanode(2).ok());
    }
    EXPECT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  auto corrupted = spate.dfs().CorruptRandomReplica(seed);
  EXPECT_TRUE(corrupted.ok());
  out.corruption = *corrupted;
  // Also flip a byte in replica 0 of a day-1 leaf: that leaf was written
  // after the node death, so all its replicas are live and replica 0 is
  // always tried first — the CRC check and failover are guaranteed to fire.
  const std::vector<std::string> leaves = spate.dfs().ListFiles("/spate/data/");
  EXPECT_TRUE(
      spate.dfs().CorruptReplica(leaves[kEpochsPerDay + 3], 0, 0, 5).ok());

  // Zero query errors: every block still has >= 1 good replica (the dead
  // node and the flipped byte hurt at most two of three copies), so every
  // epoch answers exactly and matches a fresh generation.
  spate.dfs().ResetStats();
  for (Timestamp epoch : gen.EpochStarts()) {
    ExplorationQuery query;
    query.window_begin = epoch;
    query.window_end = epoch + kEpochSeconds;
    auto result = spate.Execute(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    (result->exact ? out.exact_queries : out.degraded_queries)++;
    if (result->exact) {
      std::vector<Record> cdr;
      std::vector<Record> nms;
      FilterSnapshotRows(gen.GenerateSnapshot(epoch), query, spate.cells(),
                         &cdr, &nms);
      EXPECT_EQ(result->cdr_rows.size(), cdr.size());
      EXPECT_EQ(result->nms_rows.size(), nms.size());
    }
  }
  out.query_stats = spate.dfs().stats();

  out.repair = spate.dfs().RepairScan();
  out.logical_bytes = spate.dfs().TotalLogicalBytes();
  out.physical_after_repair = spate.dfs().TotalPhysicalBytes();
  // A second scan finds nothing left to fix.
  const RepairReport second = spate.dfs().RepairScan();
  EXPECT_EQ(second.replicas_repaired, 0u);
  EXPECT_EQ(second.replicas_rereplicated, 0u);

  // After repair, reads never touch the dead node or a stale copy.
  spate.dfs().ResetStats();
  for (Timestamp epoch : gen.EpochStarts()) {
    ExplorationQuery query;
    query.window_begin = epoch;
    query.window_end = epoch + kEpochSeconds;
    auto result = spate.Execute(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      EXPECT_TRUE(result->exact);
    }
  }
  const IoStats clean = spate.dfs().stats();
  EXPECT_EQ(clean.dead_node_skips, 0u);
  EXPECT_EQ(clean.read_failovers, 0u);
  EXPECT_EQ(clean.crc_read_failures, 0u);
  return out;
}

TEST(RecoveryTest, SeededFaultScheduleEndToEnd) {
  const FaultScheduleOutcome run = RunSeededFaultSchedule(1234);

  // Every epoch had a surviving good replica, so every answer was exact.
  EXPECT_EQ(run.exact_queries, static_cast<size_t>(2 * kEpochsPerDay));
  EXPECT_EQ(run.degraded_queries, 0u);

  // The IoStats counters prove failover actually happened: day-0 leaves
  // had replicas on the dead node, and the flipped byte tripped the CRC.
  EXPECT_GT(run.query_stats.dead_node_skips, 0u);
  EXPECT_GT(run.query_stats.read_failovers, 0u);
  EXPECT_GE(run.query_stats.crc_read_failures, 1u);
  EXPECT_EQ(run.query_stats.failed_block_reads, 0u);

  // RepairScan restored full replication on the surviving nodes.
  EXPECT_GT(run.repair.replicas_rereplicated, 0u);
  EXPECT_GE(run.repair.replicas_repaired, 1u);
  EXPECT_EQ(run.repair.unavailable_blocks, 0u);
  EXPECT_EQ(run.repair.unrecoverable_blocks, 0u);
  EXPECT_EQ(run.physical_after_repair, 3 * run.logical_bytes);

  // The whole schedule is deterministic under the same seed.
  const FaultScheduleOutcome rerun = RunSeededFaultSchedule(1234);
  EXPECT_EQ(rerun.corruption.block_id, run.corruption.block_id);
  EXPECT_EQ(rerun.corruption.datanode, run.corruption.datanode);
  EXPECT_EQ(rerun.corruption.byte_offset, run.corruption.byte_offset);
  EXPECT_EQ(rerun.exact_queries, run.exact_queries);
  EXPECT_EQ(rerun.query_stats.dead_node_skips,
            run.query_stats.dead_node_skips);
  EXPECT_EQ(rerun.query_stats.read_failovers,
            run.query_stats.read_failovers);
  EXPECT_EQ(rerun.query_stats.crc_read_failures,
            run.query_stats.crc_read_failures);
  EXPECT_EQ(rerun.repair.replicas_repaired, run.repair.replicas_repaired);
  EXPECT_EQ(rerun.repair.replicas_rereplicated,
            run.repair.replicas_rereplicated);
  EXPECT_EQ(rerun.repair.bytes_copied, run.repair.bytes_copied);
  EXPECT_EQ(rerun.physical_after_repair, run.physical_after_repair);

  // A different seed corrupts a different replica.
  const FaultScheduleOutcome other = RunSeededFaultSchedule(99);
  EXPECT_TRUE(other.corruption.block_id != run.corruption.block_id ||
              other.corruption.datanode != run.corruption.datanode ||
              other.corruption.byte_offset != run.corruption.byte_offset);
}

}  // namespace
}  // namespace spate
