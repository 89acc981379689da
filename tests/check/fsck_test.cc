// spate::check::Fsck as the cross-layer corruption oracle: a clean store —
// plain, chunked or recovered — produces zero violations, and each
// seeded corruption class is detected under its exact invariant id. Also
// covers the repair loop: detect -> RepairScan -> re-check clean.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/fsck.h"
#include "core/spate_framework.h"
#include "index/temporal_index.h"
#include "telco/generator.h"

namespace spate {

// Friend of TemporalIndex (declared in temporal_index.h): reaches private
// state to seed corruptions no public mutator can produce.
class TemporalIndexTestAccess {
 public:
  static std::vector<YearNode>& Years(TemporalIndex* index) {
    return index->years_;
  }
  static size_t& NumDecayed(TemporalIndex* index) {
    return index->num_decayed_;
  }
};

namespace {

TraceConfig SmallTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 40;
  config.num_antennas = 16;
  config.num_users = 120;
  config.cdr_base_rate = 20;
  config.nms_per_cell = 1.0;
  return config;
}

std::unique_ptr<SpateFramework> BuildStore(const SpateOptions& options,
                                           const TraceConfig& config) {
  TraceGenerator gen(config);
  auto spate = std::make_unique<SpateFramework>(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    EXPECT_TRUE(spate->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  return spate;
}

TemporalIndex* MutableIndex(SpateFramework* spate) {
  // Test-only: fsck tests corrupt the index on purpose.
  return const_cast<TemporalIndex*>(&spate->index());
}

LeafNode* FirstLiveLeaf(TemporalIndex* index) {
  for (YearNode& year : TemporalIndexTestAccess::Years(index)) {
    for (MonthNode& month : year.months) {
      for (DayNode& day : month.days) {
        for (LeafNode& leaf : day.leaves) {
          if (!leaf.decayed) return &leaf;
        }
      }
    }
  }
  return nullptr;
}

// --- Clean stores: no false positives. ---

TEST(FsckTest, CleanPlainStoreHasNoViolations) {
  auto spate = BuildStore(SpateOptions(), SmallTrace());
  const check::FsckReport report = spate->Fsck();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.leaves_checked, static_cast<uint64_t>(kEpochsPerDay));
  EXPECT_GT(report.blocks_checked, 0u);
  EXPECT_GT(report.replicas_checked, report.blocks_checked);
  EXPECT_GE(report.summaries_checked, 4u);  // day + month + year + root
}

TEST(FsckTest, CleanChunkedStoreHasNoViolations) {
  SpateOptions options;
  options.parallelism.ingest_chunk_bytes = 2048;  // force containers
  auto spate = BuildStore(options, SmallTrace());
  const check::FsckReport report = spate->Fsck();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.containers_checked, 0u);
}

TEST(FsckTest, CleanRecoveredStorePassesFsck) {
  auto original = BuildStore(SpateOptions(), SmallTrace());
  auto dfs = original->shared_dfs();
  original.reset();  // "crash"
  auto recovered = SpateFramework::Recover(SpateOptions(), dfs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const check::FsckReport report = (*recovered)->Fsck();
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Corruption class 1: byte-flipped replica. ---

TEST(FsckTest, ByteFlippedReplicaIsClassifiedAndRepairable) {
  auto spate = BuildStore(SpateOptions(), SmallTrace());
  auto event = spate->dfs().CorruptRandomReplica(17);
  ASSERT_TRUE(event.ok()) << event.status().ToString();

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kReplicaIntegrity))
      << report.ToString();
  // One flipped byte leaves 2 of 3 healthy copies.
  EXPECT_TRUE(report.Detected(check::kReplicationFactor));
  // The data itself is still served by failover: no decode-level damage.
  EXPECT_FALSE(report.Detected(check::kEnvelopeDecode)) << report.ToString();

  // Post-repair re-check: the namenode heals the replica, fsck goes clean.
  spate->dfs().RepairScan();
  const check::FsckReport after = spate->Fsck();
  EXPECT_TRUE(after.clean()) << after.ToString();
}

// --- Corruption class 2: truncated chunked container. ---

TEST(FsckTest, TruncatedChunkedContainerIsClassified) {
  SpateOptions options;
  options.parallelism.ingest_chunk_bytes = 2048;
  auto spate = BuildStore(options, SmallTrace());
  LeafNode* leaf = FirstLiveLeaf(MutableIndex(spate.get()));
  ASSERT_NE(leaf, nullptr);

  auto blob = spate->dfs().ReadFile(leaf->dfs_path);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(IsChunkedBlob(*blob));
  // Chop the tail: the part-length table no longer matches the payload.
  const std::string truncated = blob->substr(0, blob->size() - 9);
  ASSERT_TRUE(spate->dfs().DeleteFile(leaf->dfs_path).ok());
  ASSERT_TRUE(spate->dfs().WriteFile(leaf->dfs_path, truncated).ok());
  leaf->stored_bytes = truncated.size();  // isolate the framing violation

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kContainerFraming))
      << report.ToString();
}

// --- Corruption class 3: stale highlight aggregate. ---

TEST(FsckTest, StaleHighlightAggregateIsClassified) {
  auto spate = BuildStore(SpateOptions(), SmallTrace());
  TemporalIndex* index = MutableIndex(spate.get());
  DayNode& day =
      TemporalIndexTestAccess::Years(index)[0].months[0].days[0];
  // Double-count one leaf in the day roll-up: the materialized aggregate
  // no longer equals the ordered merge of its children.
  day.summary.Merge(day.leaves.front().summary);

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kHighlightConsistency))
      << report.ToString();
  EXPECT_FALSE(report.Detected(check::kIndexShape));
}

// --- Corruption class 4: broken rightmost path. ---

TEST(FsckTest, BrokenRightmostPathIsClassified) {
  auto spate = BuildStore(SpateOptions(), SmallTrace());
  TemporalIndex* index = MutableIndex(spate.get());
  DayNode& day =
      TemporalIndexTestAccess::Years(index)[0].months[0].days[0];
  ASSERT_GE(day.leaves.size(), 2u);
  // Swap the first two leaves' epochs: the spine is no longer monotone, so
  // these leaves could only have been inserted off the rightmost path.
  std::swap(day.leaves[0].epoch_start, day.leaves[1].epoch_start);

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kIndexShape)) << report.ToString();
}

// --- Corruption class 5: under-replicated block. ---

TEST(FsckTest, UnderReplicatedBlockIsClassifiedAndRepairable) {
  TraceConfig config = SmallTrace();
  auto spate = BuildStore(SpateOptions(), config);
  // Two of four datanodes die; the next write can only place two copies.
  ASSERT_TRUE(spate->dfs().KillDatanode(0).ok());
  ASSERT_TRUE(spate->dfs().KillDatanode(1).ok());
  TraceGenerator gen(config);
  ASSERT_TRUE(
      spate->Ingest(gen.GenerateSnapshot(config.start + 86400)).ok());
  ASSERT_TRUE(spate->dfs().ReviveDatanode(0).ok());
  ASSERT_TRUE(spate->dfs().ReviveDatanode(1).ok());

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kReplicationFactor))
      << report.ToString();
  // Both existing copies are intact — this is a placement violation only.
  EXPECT_FALSE(report.Detected(check::kReplicaIntegrity));

  spate->dfs().RepairScan();
  const check::FsckReport after = spate->Fsck();
  EXPECT_TRUE(after.clean()) << after.ToString();
}

// --- Corruption class 6: decay-order violation. ---

TEST(FsckTest, DecayOrderViolationIsClassified) {
  auto spate = BuildStore(SpateOptions(), SmallTrace());
  DecayPolicy policy;
  policy.full_resolution_seconds = 43200;  // keep half the day
  const Timestamp now = spate->index().newest_epoch() + kEpochSeconds;
  ASSERT_GT(spate->RunDecay(policy, now), 0u);
  ASSERT_TRUE(spate->Fsck().clean());

  // Resurrect one evicted leaf: a "live" leaf now sits behind the decay
  // horizon, violating eviction monotonicity (keep the counter in sync so
  // only the ordering invariant fires).
  TemporalIndex* index = MutableIndex(spate.get());
  DayNode& day =
      TemporalIndexTestAccess::Years(index)[0].months[0].days[0];
  ASSERT_TRUE(day.leaves.front().decayed);
  day.leaves.front().decayed = false;
  --TemporalIndexTestAccess::NumDecayed(index);

  const check::FsckReport report = spate->Fsck();
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kDecayOrder)) << report.ToString();
}

// A decoded fragment lives as long as its leaf: decay drops the evicted
// leaves' fragments, and fsck flags a decayed leaf that still has some.
TEST(FsckTest, DecayedLeafWithCachedFragmentsIsClassified) {
  SpateOptions options;
  options.fragment_cache_bytes = 32 << 20;
  const TraceConfig trace = SmallTrace();
  auto spate = BuildStore(options, trace);
  ExplorationQuery day;
  day.window_begin = trace.start;
  day.window_end = trace.start + 86400;
  ASSERT_TRUE(spate->Execute(day).ok());
  FragmentCache* cache = spate->fragment_cache();
  ASSERT_GT(cache->ResidentBytesFor(trace.start), 0u);

  DecayPolicy policy;
  policy.full_resolution_seconds = 43200;  // keep half the day
  const Timestamp now = spate->index().newest_epoch() + kEpochSeconds;
  ASSERT_GT(spate->RunDecay(policy, now), 0u);
  const check::FsckReport warm = spate->Fsck();
  EXPECT_TRUE(warm.clean()) << warm.ToString();

  // Plant decoded rows for the first (decayed) leaf.
  cache->Insert(trace.start, kRowFragmentName, "rows of a decayed leaf");
  const check::FsckReport report = spate->Fsck();
  const std::vector<const check::FsckViolation*> violations =
      report.ViolationsFor(check::kDecayOrder);
  ASSERT_EQ(violations.size(), 1u) << report.ToString();
  EXPECT_EQ(violations[0]->object, "leaf " + FormatCompact(trace.start));
  EXPECT_EQ(report.violations.size(), 1u) << report.ToString();
}

// --- Standalone DFS verifier (no framework). ---

TEST(FsckTest, VerifyDfsStandaloneClassifiesAndClears) {
  DfsOptions options;
  options.block_size = 1024;
  DistributedFileSystem dfs(options);
  ASSERT_TRUE(dfs.WriteFile("/f", std::string(3000, 'x')).ok());
  EXPECT_TRUE(check::VerifyDfs(dfs).clean());

  ASSERT_TRUE(dfs.CorruptReplica("/f", 1, 0, 5).ok());
  const check::FsckReport report = check::VerifyDfs(dfs);
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kReplicaIntegrity));
  ASSERT_EQ(report.ViolationsFor(check::kReplicaIntegrity).size(), 1u);
  EXPECT_NE(report.ViolationsFor(check::kReplicaIntegrity)[0]->object.find(
                "/f"),
            std::string::npos);

  dfs.RepairScan();
  EXPECT_TRUE(check::VerifyDfs(dfs).clean());
}

TEST(FsckTest, ReportRendersTallyAndDetails) {
  check::FsckReport report;
  report.blocks_checked = 3;
  EXPECT_NE(report.ToString().find("clean"), std::string::npos);
  report.Add(check::kReplicaIntegrity, "block 1 of /f", "CRC mismatch");
  report.Add(check::kReplicaIntegrity, "block 2 of /f", "CRC mismatch");
  const std::string text = report.ToString();
  EXPECT_NE(text.find("[replica-integrity] x2"), std::string::npos);
  EXPECT_NE(text.find("block 1 of /f"), std::string::npos);
  EXPECT_FALSE(report.Detected(check::kDecayOrder));
}

}  // namespace
}  // namespace spate
