#include "index/temporal_index.h"

#include <gtest/gtest.h>

#include "telco/schema.h"

namespace spate {
namespace {

// 2016-01-18 00:00 Monday.
constexpr Timestamp kStart = 1453075200;

LeafNode MakeLeaf(Timestamp epoch, uint64_t bytes = 100) {
  LeafNode leaf;
  leaf.epoch_start = epoch;
  leaf.dfs_path = "/spate/data/" + FormatCompact(epoch);
  leaf.stored_bytes = bytes;
  Snapshot s;
  s.epoch_start = epoch;
  Record row(kCdrNumAttributes);
  row[kCdrTs] = FormatCompact(epoch);
  row[kCdrCellId] = "c0001";
  row[kCdrCallType] = "VOICE";
  row[kCdrResult] = "OK";
  s.cdr.push_back(row);
  leaf.summary.AddSnapshot(s);
  return leaf;
}

TEST(TemporalIndexTest, EmptyIndex) {
  TemporalIndex index;
  EXPECT_EQ(index.num_leaves(), 0u);
  EXPECT_TRUE(index.LeavesInWindow(0, 1ll << 40).empty());
  EXPECT_TRUE(index.WindowFullyResolved(0, 1ll << 40));
  const CoveringNode root = index.FindCovering(kStart, kStart + 3600);
  EXPECT_EQ(root.level, IndexLevel::kRoot);
}

TEST(TemporalIndexTest, RightmostInsertionBuildsHierarchy) {
  TemporalIndex index;
  // Two days of epochs.
  for (int i = 0; i < 2 * kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  EXPECT_EQ(index.num_leaves(), 2u * kEpochsPerDay);
  ASSERT_EQ(index.years().size(), 1u);
  ASSERT_EQ(index.years()[0].months.size(), 1u);
  ASSERT_EQ(index.years()[0].months[0].days.size(), 2u);
  EXPECT_EQ(index.years()[0].months[0].days[0].leaves.size(),
            static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ(index.newest_epoch(),
            kStart + (2 * kEpochsPerDay - 1) * kEpochSeconds);
}

TEST(TemporalIndexTest, RejectsOutOfOrderLeaves) {
  TemporalIndex index;
  ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + kEpochSeconds)).ok());
  EXPECT_TRUE(index.AddLeaf(MakeLeaf(kStart)).IsInvalidArgument());
  EXPECT_TRUE(
      index.AddLeaf(MakeLeaf(kStart + kEpochSeconds)).IsInvalidArgument());
  EXPECT_EQ(index.num_leaves(), 1u);
}

TEST(TemporalIndexTest, MonthAndYearRollover) {
  TemporalIndex index;
  // 2016-01-31 23:30 then 2016-02-01 00:00, then 2017-01-01.
  const Timestamp jan31 = ParseCompact("201601312330");
  const Timestamp feb1 = ParseCompact("201602010000");
  const Timestamp next_year = ParseCompact("201701010000");
  ASSERT_TRUE(index.AddLeaf(MakeLeaf(jan31)).ok());
  ASSERT_TRUE(index.AddLeaf(MakeLeaf(feb1)).ok());
  ASSERT_TRUE(index.AddLeaf(MakeLeaf(next_year)).ok());
  ASSERT_EQ(index.years().size(), 2u);
  EXPECT_EQ(index.years()[0].months.size(), 2u);
  EXPECT_EQ(index.years()[1].months.size(), 1u);
}

TEST(TemporalIndexTest, SummariesRollUpAllLevels) {
  TemporalIndex index;
  for (int i = 0; i < 3 * kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  EXPECT_EQ(index.root_summary().cdr_rows(), 3u * kEpochsPerDay);
  EXPECT_EQ(index.years()[0].summary.cdr_rows(), 3u * kEpochsPerDay);
  EXPECT_EQ(index.years()[0].months[0].summary.cdr_rows(),
            3u * kEpochsPerDay);
  EXPECT_EQ(index.years()[0].months[0].days[0].summary.cdr_rows(),
            static_cast<uint64_t>(kEpochsPerDay));
}

TEST(TemporalIndexTest, FindCoveringChoosesSmallestLevel) {
  TemporalIndex index;
  for (int i = 0; i < 3 * kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  // Within one day -> day node.
  CoveringNode c = index.FindCovering(kStart + 3600, kStart + 7200);
  EXPECT_EQ(c.level, IndexLevel::kDay);
  EXPECT_EQ(c.start, kStart);
  // Crossing days within one month -> month node.
  c = index.FindCovering(kStart + 3600, kStart + 86400 + 3600);
  EXPECT_EQ(c.level, IndexLevel::kMonth);
  // Crossing months within a year -> year node.
  c = index.FindCovering(ParseCompact("20160115"), ParseCompact("20160215"));
  EXPECT_EQ(c.level, IndexLevel::kYear);
  // Crossing years -> root.
  c = index.FindCovering(ParseCompact("20151231"), ParseCompact("20160102"));
  EXPECT_EQ(c.level, IndexLevel::kRoot);
  EXPECT_EQ(c.summary, &index.root_summary());
}

TEST(TemporalIndexTest, HighlightThresholdsFallAtCoarserLevels) {
  EXPECT_DOUBLE_EQ(HighlightThreshold(IndexLevel::kEpoch), 0.05);
  EXPECT_DOUBLE_EQ(HighlightThreshold(IndexLevel::kDay), 0.05);
  EXPECT_DOUBLE_EQ(HighlightThreshold(IndexLevel::kMonth), 0.02);
  EXPECT_DOUBLE_EQ(HighlightThreshold(IndexLevel::kYear), 0.01);
  EXPECT_DOUBLE_EQ(HighlightThreshold(IndexLevel::kRoot), 0.01);
}

TEST(TemporalIndexTest, LeavesInWindowBoundaries) {
  TemporalIndex index;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  // Exactly one epoch.
  auto leaves = index.LeavesInWindow(kStart + 2 * kEpochSeconds,
                                     kStart + 3 * kEpochSeconds);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0]->epoch_start, kStart + 2 * kEpochSeconds);
  // Partial overlap counts.
  leaves = index.LeavesInWindow(kStart + 2 * kEpochSeconds + 60,
                                kStart + 2 * kEpochSeconds + 120);
  ASSERT_EQ(leaves.size(), 1u);
  // Window past the data.
  EXPECT_TRUE(
      index.LeavesInWindow(kStart + 100 * kEpochSeconds, kStart + 200 * kEpochSeconds)
          .empty());
}

TEST(TemporalIndexTest, DecayEvictsOldestFirst) {
  TemporalIndex index;
  const int total = 2 * kEpochsPerDay;
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds, 50)).ok());
  }
  EXPECT_EQ(index.resident_leaf_bytes(), 50u * total);

  DecayPolicy policy;
  policy.full_resolution_seconds = 86400;  // keep one day
  std::vector<Timestamp> evicted;
  const Timestamp now = kStart + total * kEpochSeconds;
  const size_t count = index.Decay(policy, now, [&](const LeafNode& leaf) {
    evicted.push_back(leaf.epoch_start);
  });
  EXPECT_EQ(count, static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ(index.num_decayed(), static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ(index.resident_leaf_bytes(), 50u * kEpochsPerDay);
  // Oldest first, in order.
  for (size_t i = 0; i < evicted.size(); ++i) {
    EXPECT_EQ(evicted[i], kStart + static_cast<Timestamp>(i) * kEpochSeconds);
  }
  // Summaries survive decay.
  EXPECT_EQ(index.root_summary().cdr_rows(), static_cast<uint64_t>(total));
  // The decayed window is no longer fully resolved.
  EXPECT_FALSE(index.WindowFullyResolved(kStart, kStart + 86400));
  EXPECT_TRUE(index.WindowFullyResolved(kStart + 86400, now));
  // Decayed leaves are not returned for scans.
  EXPECT_TRUE(index.LeavesInWindow(kStart, kStart + 86400).empty());
}

TEST(TemporalIndexTest, DecayIsIdempotent) {
  TemporalIndex index;
  for (int i = 0; i < kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  DecayPolicy policy;
  policy.full_resolution_seconds = 0;
  const Timestamp now = kStart + kEpochsPerDay * kEpochSeconds;
  EXPECT_EQ(index.Decay(policy, now, nullptr),
            static_cast<size_t>(kEpochsPerDay));
  EXPECT_EQ(index.Decay(policy, now, nullptr), 0u);
}

TEST(TemporalIndexTest, SummarizeWindowMatchesLeafMerge) {
  TemporalIndex index;
  for (int i = 0; i < 3 * kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  // Window covering 1.5 days starting mid-day 0.
  const Timestamp begin = kStart + 12 * 3600;
  const Timestamp end = begin + 36 * 3600;
  const NodeSummary summary = index.SummarizeWindow(begin, end);
  EXPECT_EQ(summary.cdr_rows(), static_cast<uint64_t>(36 * 2));  // 2/hour
}

TEST(TemporalIndexTest, SummarizeWindowSurvivesDecay) {
  TemporalIndex index;
  for (int i = 0; i < 2 * kEpochsPerDay; ++i) {
    ASSERT_TRUE(index.AddLeaf(MakeLeaf(kStart + i * kEpochSeconds)).ok());
  }
  DecayPolicy policy;
  policy.full_resolution_seconds = 86400;
  index.Decay(policy, kStart + 2 * 86400, nullptr);
  const NodeSummary summary = index.SummarizeWindow(kStart, kStart + 86400);
  EXPECT_EQ(summary.cdr_rows(), static_cast<uint64_t>(kEpochsPerDay));
}

}  // namespace
}  // namespace spate
