#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/fsck.h"
#include "core/columnar_leaf.h"
#include "core/spate_framework.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

// Projection & spatial pushdown equivalence: whatever the leaf layout and
// worker count, a query must return byte-identical results — the columnar
// reader just gets there decoding a fraction of the bytes.

TraceConfig SmallTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 80;
  config.num_antennas = 30;
  config.num_users = 300;
  config.cdr_base_rate = 30;
  return config;
}

SpateOptions LayoutOptions(LeafLayout layout, int workers) {
  SpateOptions options;
  options.leaf_layout = layout;
  options.parallelism.worker_count = workers;
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

TEST(ColumnarLeafTest, FullDecodeIsBitExact) {
  TraceGenerator gen(SmallTrace());
  const Snapshot original =
      gen.GenerateSnapshot(gen.config().start + 4 * kEpochSeconds);
  ASSERT_GT(original.cdr.size(), 0u);
  ASSERT_GT(original.nms.size(), 0u);
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  std::string blob;
  ASSERT_TRUE(EncodeColumnarLeaf(*codec, original, nullptr, &blob).ok());

  Snapshot decoded;
  const TableProjection all;
  uint64_t bytes = 0;
  ASSERT_TRUE(
      DecodeColumnarLeaf(blob, all, all, nullptr, &decoded, &bytes).ok());
  EXPECT_EQ(decoded.epoch_start, original.epoch_start);
  EXPECT_EQ(decoded.cdr, original.cdr);
  EXPECT_EQ(decoded.nms, original.nms);
  EXPECT_GT(bytes, 0u);
  // Bit-exact down to the serialized text, so mixed stores and recovery
  // can treat a reassembled columnar leaf like any row leaf.
  EXPECT_EQ(SerializeSnapshot(decoded), SerializeSnapshot(original));
}

TEST(ColumnarLeafTest, ProjectedDecodeMatchesReferenceRestriction) {
  TraceGenerator gen(SmallTrace());
  const Snapshot original =
      gen.GenerateSnapshot(gen.config().start + 7 * kEpochSeconds);
  const Codec* codec = CodecRegistry::Get("deflate");
  std::string blob;
  ASSERT_TRUE(EncodeColumnarLeaf(*codec, original, nullptr, &blob).ok());

  const std::vector<std::vector<std::string>> selections = {
      {"upflux"},
      {"ts", "upflux", "downflux"},
      {"ts", "imei", "cell_id"},
      {"drop_calls", "rssi"},
      {"no_such_attribute"},
  };
  for (const auto& attrs : selections) {
    const TableProjection cdr =
        ScanProjection(CdrSchema(), attrs, kCdrTs, kCdrCellId);
    const TableProjection nms =
        ScanProjection(NmsSchema(), attrs, kNmsTs, kNmsCellId);
    // With a cell restriction too: a handful of the snapshot's cells.
    std::unordered_set<std::string> wanted;
    for (size_t i = 0; i < original.cdr.size() && wanted.size() < 5; i += 7) {
      wanted.insert(FieldAsString(original.cdr[i], kCdrCellId));
    }
    const std::unordered_set<std::string>* restrictions[] = {nullptr,
                                                             &wanted};
    for (const std::unordered_set<std::string>* cells : restrictions) {
      Snapshot projected;
      ASSERT_TRUE(
          DecodeColumnarLeaf(blob, cdr, nms, cells, &projected, nullptr)
              .ok());
      const Snapshot expected = RestrictSnapshot(original, cdr, nms, cells);
      const std::string label =
          (attrs.empty() ? "all" : attrs[0]) + (cells ? "+cells" : "");
      EXPECT_EQ(projected.epoch_start, expected.epoch_start) << label;
      EXPECT_EQ(projected.cdr, expected.cdr) << label;
      EXPECT_EQ(projected.nms, expected.nms) << label;
    }
  }
}

TEST(ColumnarProjectionTest, QueriesMatchRowLayoutAcrossWorkerCounts) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto reference = IngestTrace(gen, LayoutOptions(LeafLayout::kRow, 1));
  const Timestamp scan_begin = config.start + 2 * kEpochSeconds;
  const Timestamp scan_end = config.start + 13 * kEpochSeconds;
  auto scan_all = [&](SpateFramework& framework) {
    std::vector<Snapshot> streamed;
    EXPECT_TRUE(framework
                    .ScanWindow(scan_begin, scan_end,
                                [&](const Snapshot& snapshot) {
                                  streamed.push_back(snapshot);
                                })
                    .ok());
    return streamed;
  };
  const std::vector<Snapshot> reference_scan = scan_all(*reference);
  ASSERT_EQ(reference_scan.size(), 11u);

  std::vector<ExplorationQuery> queries;
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {},
           {"ts", "upflux", "downflux"},
           {"upflux"},
           {"drop_calls"},
           {"no_such_attribute"}}) {
    for (const bool has_box : {false, true}) {
      ExplorationQuery query;
      query.attributes = attrs;
      query.window_begin = scan_begin;
      query.window_end = scan_end;
      query.has_box = has_box;
      query.box = BoundingBox{0, 0, config.region_meters / 2,
                              config.region_meters / 2};
      queries.push_back(query);
    }
  }

  struct Variant {
    LeafLayout layout;
    int workers;
  };
  for (const Variant& variant :
       {Variant{LeafLayout::kRow, 4}, Variant{LeafLayout::kColumnar, 1},
        Variant{LeafLayout::kColumnar, 4}}) {
    const bool columnar = variant.layout == LeafLayout::kColumnar;
    SpateOptions options = LayoutOptions(variant.layout, variant.workers);
    if (columnar) options.fragment_cache_bytes = 64u << 20;
    auto framework = IngestTrace(gen, std::move(options));
    const std::string variant_label =
        std::string(columnar ? "columnar" : "row") + ", workers " +
        std::to_string(variant.workers);

    // An unrestricted scan streams the row reference's snapshots, in
    // order. Columnar variants scan twice: the first pass decodes every
    // chunk from the DFS blobs, the second serves them from the cache.
    for (int pass = 0; pass < (columnar ? 2 : 1); ++pass) {
      const std::string label =
          variant_label + ", scan pass " + std::to_string(pass);
      const std::vector<Snapshot> streamed = scan_all(*framework);
      ASSERT_EQ(streamed.size(), reference_scan.size()) << label;
      for (size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].epoch_start, reference_scan[i].epoch_start)
            << label;
        EXPECT_EQ(streamed[i].cdr, reference_scan[i].cdr) << label;
        EXPECT_EQ(streamed[i].nms, reference_scan[i].nms) << label;
      }
      if (columnar) {
        EXPECT_EQ(framework->last_scan_stats().fragment_hits > 0, pass == 1)
            << label;
      }
    }

    for (size_t q = 0; q < queries.size(); ++q) {
      auto expected = reference->Execute(queries[q]);
      auto actual = framework->Execute(queries[q]);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      const std::string label =
          "query " + std::to_string(q) + ", layout " + variant_label;
      ExpectSameResult(*expected, *actual, label);
      EXPECT_TRUE(expected->exact) << label;
    }
  }
}

TEST(ColumnarProjectionTest, NarrowProjectionDecodesFractionOfBytes) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto columnar = IngestTrace(gen, LayoutOptions(LeafLayout::kColumnar, 1));

  ExplorationQuery full;
  full.window_begin = config.start;
  full.window_end = config.start + 86400;
  ASSERT_TRUE(
      columnar->ScanWindowProjected(full, [](const Snapshot&) {}).ok());
  const uint64_t full_bytes = columnar->last_scan_stats().bytes_decoded;
  ASSERT_GT(full_bytes, 0u);

  ExplorationQuery narrow = full;
  narrow.attributes = {"ts", "upflux", "downflux"};
  ASSERT_TRUE(
      columnar->ScanWindowProjected(narrow, [](const Snapshot&) {}).ok());
  const uint64_t narrow_bytes = columnar->last_scan_stats().bytes_decoded;
  ASSERT_GT(narrow_bytes, 0u);
  // The acceptance bar is 3x; a 3-of-~200-attribute CDR projection should
  // clear it with a wide margin.
  EXPECT_LT(narrow_bytes * 3, full_bytes)
      << narrow_bytes << " vs " << full_bytes;

  // The same narrow scan decodes the same bytes at every worker count.
  auto parallel = IngestTrace(gen, LayoutOptions(LeafLayout::kColumnar, 4));
  ASSERT_TRUE(
      parallel->ScanWindowProjected(narrow, [](const Snapshot&) {}).ok());
  EXPECT_EQ(parallel->last_scan_stats().bytes_decoded, narrow_bytes);
}

TEST(ColumnarProjectionTest, BoxDisjointLeavesAreSkippedBeforeDecode) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  CellDirectory directory(gen.cells());

  // A box around one cell; strip its rows (and its box-mates') from every
  // epoch but the first, so those leaves are provably disjoint from the box.
  const Snapshot probe = gen.GenerateSnapshot(config.start);
  ASSERT_GT(probe.cdr.size(), 0u);
  const std::string target = FieldAsString(probe.cdr[0], kCdrCellId);
  const CellInfo* info = directory.Find(target);
  ASSERT_NE(info, nullptr);
  BoundingBox box{info->x - 1, info->y - 1, info->x + 1, info->y + 1};
  const std::vector<std::string> in_box_list = directory.CellsInBox(box);
  const std::unordered_set<std::string> in_box(in_box_list.begin(),
                                               in_box_list.end());
  ASSERT_TRUE(in_box.count(target));

  const size_t kEpochs = 8;
  auto strip = [&](Snapshot snapshot, bool keep) {
    if (keep) return snapshot;
    auto drop = [&](std::vector<Record>* rows, int cell_column) {
      std::vector<Record> kept;
      for (Record& row : *rows) {
        if (!in_box.count(FieldAsString(row, cell_column))) {
          kept.push_back(std::move(row));
        }
      }
      *rows = std::move(kept);
    };
    drop(&snapshot.cdr, kCdrCellId);
    drop(&snapshot.nms, kNmsCellId);
    return snapshot;
  };

  auto build = [&](SpateOptions options) {
    auto framework =
        std::make_unique<SpateFramework>(std::move(options), gen.cells());
    const std::vector<Timestamp> epochs = gen.EpochStarts();
    for (size_t i = 0; i < kEpochs; ++i) {
      EXPECT_TRUE(framework
                      ->Ingest(strip(gen.GenerateSnapshot(epochs[i]),
                                     /*keep=*/i == 0))
                      .ok());
    }
    return framework;
  };

  SpateOptions no_skip = LayoutOptions(LeafLayout::kColumnar, 1);
  no_skip.spatial_leaf_skip = false;
  auto reference = build(no_skip);
  auto columnar = build(LayoutOptions(LeafLayout::kColumnar, 1));
  auto row = build(LayoutOptions(LeafLayout::kRow, 1));

  ExplorationQuery query;
  query.window_begin = config.start;
  query.window_end = config.start + kEpochs * kEpochSeconds;
  query.has_box = true;
  query.box = box;

  auto expected = reference->Execute(query);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(reference->last_scan_stats().leaves_skipped_spatial, 0u);
  ASSERT_GT(expected->cdr_rows.size(), 0u);

  for (SpateFramework* framework : {columnar.get(), row.get()}) {
    auto actual = framework->Execute(query);
    ASSERT_TRUE(actual.ok());
    ExpectSameResult(*expected, *actual, std::string(framework->Name()));
    // Leaves 1..7 hold no in-box cell: their summaries prove it, so the
    // scan never reads them. Skipping is exact — the scan stays complete.
    EXPECT_EQ(framework->last_scan_stats().leaves_skipped_spatial,
              kEpochs - 1);
    EXPECT_EQ(framework->last_scan_stats().leaves_scanned, 1u);
    EXPECT_TRUE(framework->last_scan_stats().complete());
  }
}

TEST(ColumnarProjectionTest, DegradedQueriesMatchRowLayout) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto row = IngestTrace(gen, LayoutOptions(LeafLayout::kRow, 1));
  auto columnar = IngestTrace(gen, LayoutOptions(LeafLayout::kColumnar, 4));

  // Lose every replica of the same two leaves in both stores.
  for (SpateFramework* framework : {row.get(), columnar.get()}) {
    const std::vector<std::string> leaves =
        framework->dfs().ListFiles("/spate/data/");
    ASSERT_GT(leaves.size(), 12u);
    for (const std::string& victim : {leaves[3], leaves[10]}) {
      for (size_t replica = 0; replica < 3; ++replica) {
        ASSERT_TRUE(
            framework->dfs().CorruptReplica(victim, 0, replica, 99).ok());
      }
    }
  }

  ExplorationQuery query;
  query.attributes = {"ts", "upflux", "downflux"};
  query.window_begin = config.start;
  query.window_end = config.start + 86400;
  auto row_result = row->Execute(query);
  auto columnar_result = columnar->Execute(query);
  ASSERT_TRUE(row_result.ok());
  ASSERT_TRUE(columnar_result.ok());
  // Both stores degrade identically: the faulted epochs fall back to the
  // covering summary the same way.
  EXPECT_FALSE(row_result->exact);
  ExpectSameResult(*row_result, *columnar_result, "degraded");
  EXPECT_EQ(row->last_scan_stats().skipped_epochs,
            columnar->last_scan_stats().skipped_epochs);
}

TEST(ColumnarProjectionTest, RecoverReadsColumnarAndMixedStores) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  const std::vector<Timestamp> epochs = gen.EpochStarts();

  // Columnar store, recovered.
  auto columnar = IngestTrace(gen, LayoutOptions(LeafLayout::kColumnar, 1));
  auto recovered = SpateFramework::Recover(
      LayoutOptions(LeafLayout::kColumnar, 1), columnar->shared_dfs());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovery_report().leaves_skipped, 0u);

  // Mixed store: first half written as rows, second half (after a restart
  // that switched the option) as columnar leaves.
  auto mixed_row = IngestTrace(gen, LayoutOptions(LeafLayout::kRow, 1),
                               epochs.size() / 2);
  auto mixed = SpateFramework::Recover(
      LayoutOptions(LeafLayout::kColumnar, 1), mixed_row->shared_dfs());
  ASSERT_TRUE(mixed.ok());
  for (size_t i = epochs.size() / 2; i < epochs.size(); ++i) {
    ASSERT_TRUE((*mixed)->Ingest(gen.GenerateSnapshot(epochs[i])).ok());
  }

  auto reference = IngestTrace(gen, LayoutOptions(LeafLayout::kRow, 1));
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{{}, {"ts", "upflux", "imei"}}) {
    ExplorationQuery query;
    query.attributes = attrs;
    query.window_begin = config.start;
    query.window_end = config.start + 86400;
    auto expected = reference->Execute(query);
    ASSERT_TRUE(expected.ok());
    for (SpateFramework* framework : {recovered->get(), mixed->get()}) {
      auto actual = framework->Execute(query);
      ASSERT_TRUE(actual.ok());
      ExpectSameResult(*expected, *actual, "recovered/mixed store");
    }
  }
  // Both the homogeneous and the mixed store fsck clean.
  EXPECT_TRUE((*recovered)->Fsck().clean());
  EXPECT_TRUE((*mixed)->Fsck().clean());
}

TEST(ColumnarProjectionTest, FsckDetectsCorruptedColumnChunk) {
  TraceConfig config = SmallTrace();
  TraceGenerator gen(config);
  auto framework =
      IngestTrace(gen, LayoutOptions(LeafLayout::kColumnar, 1), 6);
  ASSERT_TRUE(framework->Fsck().clean());

  // Rewrite one leaf with a byte flipped inside a column chunk's payload
  // (the tail of the blob). The DFS itself stays consistent — replicas
  // match what was written — so only the columnar layer can catch it.
  const std::vector<std::string> leaves =
      framework->dfs().ListFiles("/spate/data/");
  ASSERT_GT(leaves.size(), 2u);
  auto blob = framework->dfs().ReadFile(leaves[1]);
  ASSERT_TRUE(blob.ok());
  std::string mangled = *blob;
  mangled[mangled.size() - 2] ^= 0x40;
  ASSERT_TRUE(framework->dfs().DeleteFile(leaves[1]).ok());
  ASSERT_TRUE(framework->dfs().WriteFile(leaves[1], mangled).ok());

  const check::FsckReport report = framework->Fsck();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.Detected(check::kColumnarChunk)) << report.ToString();
  // The DFS layer sees nothing wrong with the rewritten file.
  EXPECT_FALSE(report.Detected(check::kReplicaIntegrity));
}

}  // namespace
}  // namespace spate
