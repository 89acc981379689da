#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/thread_pool.h"
#include "compress/chunked.h"
#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

// The parallel snapshot pipeline's contract (DESIGN.md "Concurrency
// model"): stored bytes are a pure function of the data — never of the
// worker count — and windowed queries return identical results, skipped
// epochs included, whether the scan decodes leaves serially or fanned out.

TraceConfig PipelineTrace() {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 120;
  config.num_antennas = 40;
  config.num_users = 500;
  config.cdr_base_rate = 50;
  config.nms_per_cell = 4.0;
  return config;
}

SpateOptions PipelineOptions(int workers) {
  SpateOptions options;
  options.parallelism.worker_count = workers;
  // Small chunks so every snapshot splits into several compression jobs
  // (the partition is content-driven, so this changes bytes equally at
  // every worker count).
  options.parallelism.ingest_chunk_bytes = 8 * 1024;
  options.dfs.block_size = 256 * 1024;
  return options;
}

/// Ingests the whole trace into a fresh framework with `workers` workers.
std::unique_ptr<SpateFramework> IngestTrace(const TraceGenerator& gen,
                                            SpateOptions options) {
  auto framework =
      std::make_unique<SpateFramework>(std::move(options), gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    EXPECT_TRUE(framework->Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  return framework;
}

/// Asserts that two frameworks' file systems hold byte-identical files.
void ExpectIdenticalStores(DistributedFileSystem& a,
                           DistributedFileSystem& b) {
  const std::vector<std::string> paths_a = a.ListFiles("/spate/");
  const std::vector<std::string> paths_b = b.ListFiles("/spate/");
  ASSERT_EQ(paths_a, paths_b);
  for (const std::string& path : paths_a) {
    auto blob_a = a.ReadFile(path);
    auto blob_b = b.ReadFile(path);
    ASSERT_TRUE(blob_a.ok()) << path;
    ASSERT_TRUE(blob_b.ok()) << path;
    EXPECT_EQ(Crc32(Slice(*blob_a)), Crc32(Slice(*blob_b))) << path;
    EXPECT_EQ(*blob_a, *blob_b) << path;
  }
}

TEST(ParallelPipelineTest, ChunkedCompressIsWorkerCountInvariant) {
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  // A text with enough redundancy and size to span many chunks.
  std::string text;
  for (int i = 0; i < 4000; ++i) {
    text += "cell-" + std::to_string(i % 97) + ",epoch," +
            std::to_string(i) + ",payload\n";
  }
  std::string serial_blob;
  ASSERT_TRUE(
      ChunkedCompress(*codec, text, 4096, nullptr, &serial_blob).ok());
  ASSERT_TRUE(IsChunkedBlob(serial_blob));
  for (size_t workers : {2, 3, 8}) {
    ThreadPool pool(workers);
    std::string pool_blob;
    ASSERT_TRUE(
        ChunkedCompress(*codec, text, 4096, &pool, &pool_blob).ok());
    EXPECT_EQ(serial_blob, pool_blob) << workers << " workers";
    std::string round_trip;
    ASSERT_TRUE(ChunkedDecompress(pool_blob, &pool, &round_trip).ok());
    EXPECT_EQ(round_trip, text);
  }
  // Sub-chunk texts use the plain envelope — bit-identical to the codec's
  // own output, so pre-container blobs and small blobs share one format.
  std::string small_plain, small_chunked;
  ASSERT_TRUE(codec->Compress("tiny text", &small_plain).ok());
  ASSERT_TRUE(
      ChunkedCompress(*codec, "tiny text", 4096, nullptr, &small_chunked)
          .ok());
  EXPECT_EQ(small_plain, small_chunked);
  EXPECT_FALSE(IsChunkedBlob(small_chunked));
}

TEST(ParallelPipelineTest, ChunkedDecompressRejectsMangledContainers) {
  const Codec* codec = CodecRegistry::Get("deflate");
  std::string text(100000, 'x');
  std::string blob;
  ASSERT_TRUE(ChunkedCompress(*codec, text, 8192, nullptr, &blob).ok());
  ASSERT_TRUE(IsChunkedBlob(blob));
  std::string out;
  EXPECT_TRUE(ChunkedDecompress(Slice(blob.data(), 2), nullptr, &out)
                  .IsCorruption());
  std::string truncated = blob.substr(0, blob.size() - 7);
  EXPECT_TRUE(ChunkedDecompress(truncated, nullptr, &out).IsCorruption());
  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_TRUE(ChunkedDecompress(flipped, nullptr, &out).IsCorruption());
}

TEST(ParallelPipelineTest, IngestBytesBitIdenticalAcrossWorkerCounts) {
  TraceGenerator gen(PipelineTrace());
  auto serial = IngestTrace(gen, PipelineOptions(1));
  for (int workers : {2, 4}) {
    auto parallel = IngestTrace(gen, PipelineOptions(workers));
    ExpectIdenticalStores(serial->dfs(), parallel->dfs());
    EXPECT_EQ(serial->StorageBytes(), parallel->StorageBytes());
  }
}

TEST(ParallelPipelineTest, WindowedQueriesMatchSerial) {
  TraceConfig config = PipelineTrace();
  TraceGenerator gen(config);
  auto serial = IngestTrace(gen, PipelineOptions(1));
  auto parallel = IngestTrace(gen, PipelineOptions(4));

  ExplorationQuery query;
  query.window_begin = config.start + 2 * kEpochSeconds;
  query.window_end = config.start + 20 * kEpochSeconds;
  auto serial_result = serial->Execute(query);
  auto parallel_result = parallel->Execute(query);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(serial_result->cdr_rows, parallel_result->cdr_rows);
  EXPECT_EQ(serial_result->nms_rows, parallel_result->nms_rows);
  EXPECT_TRUE(serial_result->summary == parallel_result->summary);
  EXPECT_EQ(serial->last_scan_stats().leaves_scanned,
            parallel->last_scan_stats().leaves_scanned);

  NodeSummary serial_scan, parallel_scan;
  ASSERT_TRUE(serial
                  ->ScanWindow(config.start, config.start + 86400,
                               [&](const Snapshot& s) {
                                 serial_scan.AddSnapshot(s);
                               })
                  .ok());
  ASSERT_TRUE(parallel
                  ->ScanWindow(config.start, config.start + 86400,
                               [&](const Snapshot& s) {
                                 parallel_scan.AddSnapshot(s);
                               })
                  .ok());
  EXPECT_TRUE(serial_scan == parallel_scan);
  EXPECT_GT(parallel_scan.cdr_rows(), 0u);
}

TEST(ParallelPipelineTest, DegradedScanIdenticalUnderInjectedFaults) {
  TraceConfig config = PipelineTrace();
  TraceGenerator gen(config);
  auto serial = IngestTrace(gen, PipelineOptions(1));
  auto parallel = IngestTrace(gen, PipelineOptions(4));

  // State-based faults (liveness + corruption) are order-independent, so
  // degraded results must stay deterministic under the fan-out. Corrupt
  // every replica of two leaves and kill one datanode in both clusters.
  for (SpateFramework* framework : {serial.get(), parallel.get()}) {
    const std::vector<std::string> leaves =
        framework->dfs().ListFiles("/spate/data/");
    ASSERT_GT(leaves.size(), 12u);
    for (const std::string& victim : {leaves[3], leaves[10]}) {
      for (size_t replica = 0; replica < 3; ++replica) {
        ASSERT_TRUE(
            framework->dfs().CorruptReplica(victim, 0, replica, 99).ok());
      }
    }
    ASSERT_TRUE(framework->dfs().KillDatanode(2).ok());
  }

  NodeSummary serial_scan, parallel_scan;
  ASSERT_TRUE(serial
                  ->ScanWindow(config.start, config.start + 86400,
                               [&](const Snapshot& s) {
                                 serial_scan.AddSnapshot(s);
                               })
                  .ok());
  ASSERT_TRUE(parallel
                  ->ScanWindow(config.start, config.start + 86400,
                               [&](const Snapshot& s) {
                                 parallel_scan.AddSnapshot(s);
                               })
                  .ok());
  EXPECT_FALSE(serial->last_scan_stats().complete());
  EXPECT_EQ(serial->last_scan_stats().skipped_epochs,
            parallel->last_scan_stats().skipped_epochs);
  EXPECT_EQ(serial->last_scan_stats().leaves_scanned,
            parallel->last_scan_stats().leaves_scanned);
  EXPECT_TRUE(serial_scan == parallel_scan);

  // And a repeat parallel scan is self-consistent (no scheduling
  // dependence in what gets skipped).
  ASSERT_TRUE(parallel
                  ->ScanWindow(config.start, config.start + 86400,
                               [](const Snapshot&) {})
                  .ok());
  EXPECT_EQ(serial->last_scan_stats().skipped_epochs,
            parallel->last_scan_stats().skipped_epochs);
}

TEST(ParallelPipelineTest, RecoverReadsChunkedStoreAndMatchesQueries) {
  TraceConfig config = PipelineTrace();
  TraceGenerator gen(config);
  auto original = IngestTrace(gen, PipelineOptions(4));
  auto recovered =
      SpateFramework::Recover(PipelineOptions(4), original->shared_dfs());
  ASSERT_TRUE(recovered.ok());

  ExplorationQuery query;
  query.window_begin = config.start;
  query.window_end = config.start + 86400;
  auto before = original->Execute(query);
  auto after = (*recovered)->Execute(query);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->cdr_rows, after->cdr_rows);
  EXPECT_EQ(before->nms_rows, after->nms_rows);
  EXPECT_TRUE(before->summary == after->summary);
}

// Stress for the sanitizers (TSan in CI): scans fan out over the pool
// while the serial fold mutates stats, repeatedly, interleaved with
// repairs and further ingest on the calling thread.
TEST(ParallelPipelineTest, RepeatedParallelScansStress) {
  TraceConfig config = PipelineTrace();
  config.days = 1;
  TraceGenerator gen(config);
  auto framework = IngestTrace(gen, PipelineOptions(4));
  for (int round = 0; round < 6; ++round) {
    NodeSummary scan;
    ASSERT_TRUE(framework
                    ->ScanWindow(config.start, config.start + 86400,
                                 [&](const Snapshot& s) {
                                   scan.AddSnapshot(s);
                                 })
                    .ok());
    EXPECT_GT(scan.cdr_rows(), 0u);
    if (round == 2) framework->dfs().RepairScan();
  }
}

}  // namespace
}  // namespace spate
