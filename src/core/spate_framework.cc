#include "core/spate_framework.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "compress/columnar.h"
#include "core/columnar_leaf.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// Minimum in-window leaves before a scan fans out on the pool; shorter
/// windows stay serial (fan-out overhead beats the win on a few leaves).
constexpr size_t kMinParallelLeaves = 4;

/// Failures that degraded-read mode absorbs: the data is gone or currently
/// unreachable, but the in-memory summaries still answer for it. Anything
/// else (logic errors, bad arguments) stays fatal.
bool DegradableFailure(const Status& status) {
  return status.IsUnavailable() || status.IsCorruption() ||
         status.IsNotFound();
}

/// True when the leaf can hold rows of at least one wanted cell. The leaf
/// summary carries a per-cell entry for every cell id appearing in the
/// leaf's rows, so a negative answer is exact — skipping the leaf loses
/// nothing. Decayed leaves report true: they must still reach the fold so
/// the scan degrades instead of silently claiming completeness.
bool LeafIntersectsCells(const LeafNode& leaf,
                         const std::unordered_set<std::string>& wanted) {
  if (leaf.decayed) return true;
  for (const auto& [cell_id, stats] : leaf.summary.per_cell()) {
    (void)stats;
    if (wanted.count(cell_id) != 0) return true;
  }
  return false;
}

}  // namespace

SpateFramework::SpateFramework(SpateOptions options,
                               const std::vector<Record>& cell_rows)
    : SpateFramework(options,
                     std::make_shared<DistributedFileSystem>(options.dfs),
                     cell_rows, /*write_meta=*/true) {}

SpateFramework::SpateFramework(SpateOptions options,
                               std::shared_ptr<DistributedFileSystem> dfs,
                               const std::vector<Record>& cell_rows,
                               bool write_meta)
    : options_(std::move(options)),
      codec_(CodecRegistry::Get(options_.codec)),
      dfs_(std::move(dfs)),
      cells_(cell_rows),
      cell_rows_(cell_rows) {
  if (codec_ == nullptr) codec_ = CodecRegistry::Get("deflate");
  if (options_.parallelism.worker_count > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.parallelism.worker_count));
  }
  if (options_.fragment_cache_bytes > 0) {
    // A recovered framework starts with a fresh, empty cache, since both
    // construction paths come through here.
    fragment_cache_ =
        std::make_unique<FragmentCache>(options_.fragment_cache_bytes);
  }
  if (write_meta) {
    // Persist the static cell inventory alongside the data.
    std::string cell_text = SerializeCells(cell_rows);
    std::string compressed;
    if (codec_->Compress(cell_text, &compressed).ok()) {
      // Best-effort: queries fall back to re-deriving cells from leaves.
      (void)dfs_->WriteFile("/spate/meta/cells", compressed);
    }
  }
}

std::string SpateFramework::LeafPath(Timestamp epoch_start) {
  const std::string key = FormatCompact(epoch_start);
  // /spate/data/YYYY/MM/DD/YYYYMMDDhhmm
  return "/spate/data/" + key.substr(0, 4) + "/" + key.substr(4, 2) + "/" +
         key.substr(6, 2) + "/" + key;
}

Result<std::unique_ptr<SpateFramework>> SpateFramework::Recover(
    SpateOptions options, std::shared_ptr<DistributedFileSystem> dfs) {
  if (dfs == nullptr) {
    return Status::InvalidArgument("recover: null dfs");
  }
  // 1. Cell inventory from /spate/meta/cells (codec taken from the blob's
  // envelope, in case the restart changed the configured codec).
  SPATE_ASSIGN_OR_RETURN(std::string cells_blob,
                         dfs->ReadFile("/spate/meta/cells"));
  if (cells_blob.empty()) {
    return Status::Corruption("recover: empty cell inventory");
  }
  const Codec* meta_codec =
      CodecRegistry::GetById(static_cast<uint8_t>(cells_blob[0]));
  if (meta_codec == nullptr) {
    return Status::Corruption("recover: unknown cell inventory codec");
  }
  std::string cells_text;
  SPATE_RETURN_IF_ERROR(meta_codec->Decompress(cells_blob, &cells_text));
  std::vector<Record> cell_rows;
  SPATE_RETURN_IF_ERROR(ParseCells(cells_text, &cell_rows));

  std::unique_ptr<SpateFramework> framework(new SpateFramework(
      std::move(options), std::move(dfs), cell_rows, /*write_meta=*/false));

  const bool tolerate = framework->options_.degraded_reads;
  RecoveryReport& report = framework->recovery_report_;

  // 2. Persisted day summaries (cover fully-decayed days). An unreadable
  // summary blob is dropped in degraded mode: the month/year roll-ups that
  // the resident leaves rebuild are the best remaining answer.
  std::map<Timestamp, NodeSummary> day_summaries;
  for (const std::string& path :
       framework->dfs_->ListFiles("/spate/index/day/")) {
    const Timestamp day = ParseCompact(path.substr(path.rfind('/') + 1));
    if (day < 0) continue;
    auto blob = framework->dfs_->ReadFile(path);
    Status status = blob.status();
    std::string serialized;
    NodeSummary summary;
    if (status.ok()) status = ChunkedDecompress(*blob, nullptr, &serialized);
    if (status.ok()) status = NodeSummary::Parse(serialized, &summary);
    // Injection lands on the per-summary status so degraded mode can absorb
    // it (skip + count) exactly like a real unreadable blob.
    SPATE_FAILPOINT_INJECT("index.load.day_summary", status);
    if (!status.ok()) {
      if (tolerate && DegradableFailure(status)) {
        ++report.day_summaries_skipped;
        continue;
      }
      return status;
    }
    ++report.day_summaries_recovered;
    day_summaries.emplace(day, std::move(summary));
  }

  // 3. Resident leaves, in time order (paths sort chronologically). In
  // degraded mode a leaf whose blob cannot be read becomes a decayed
  // placeholder so that queries over its window degrade to summaries
  // instead of silently claiming exactness.
  for (const std::string& path : framework->dfs_->ListFiles("/spate/data/")) {
    const Timestamp epoch = ParseCompact(path.substr(path.rfind('/') + 1));
    if (epoch < 0) {
      return Status::Corruption("recover: unparsable leaf path " + path);
    }

    // Sealed (fully decayed) days strictly before this leaf go in first.
    while (!day_summaries.empty() &&
           day_summaries.begin()->first + 86400 <= epoch) {
      auto it = day_summaries.begin();
      if (it->first > framework->index_.newest_epoch()) {
        SPATE_RETURN_IF_ERROR(
            framework->index_.AddSealedDay(it->first, std::move(it->second)));
      }
      day_summaries.erase(it);
    }

    Status status;
    std::string blob;
    Snapshot snapshot;
    LeafDecodeStats decode_stats;
    auto blob_read = framework->dfs_->ReadFile(path);
    if (!blob_read.ok()) {
      status = blob_read.status();
    } else {
      blob = std::move(*blob_read);
      if (IsColumnarBlob(blob)) {
        // Columnar leaf: reassemble the full snapshot from its chunks.
        const TableProjection all;
        status = DecodeColumnarLeaf(blob, all, all, /*wanted_cells=*/nullptr,
                                    &snapshot, /*bytes_decoded=*/nullptr);
        if (status.ok()) ComputeColumnarLeafStats(snapshot, &decode_stats);
      } else {
        // Plain (possibly chunked) leaf blob; recovery itself walks the
        // leaves serially, but chunk parts of one blob may fan out.
        std::string text;
        status = ChunkedDecompress(blob, framework->pool_.get(), &text);
        decode_stats.raw_bytes = text.size();
        if (status.ok()) status = ParseSnapshot(text, &snapshot);
      }
    }
    // Injection lands on the per-leaf status: degraded mode turns it into a
    // decayed placeholder, strict mode aborts.
    SPATE_FAILPOINT_INJECT("index.load.leaf", status);

    if (!status.ok()) {
      if (!tolerate || !DegradableFailure(status)) return status;
      // Placeholder: the epoch existed but its raw data is lost. It enters
      // the index already decayed (summary-only windows).
      LeafNode lost;
      lost.epoch_start = epoch;
      lost.dfs_path = path;
      lost.decayed = true;
      SPATE_RETURN_IF_ERROR(framework->index_.AddLeaf(std::move(lost)));
      framework->last_day_persisted_ = TruncateToDay(epoch);
      ++report.leaves_skipped;
      report.skipped_epochs.push_back(epoch);
      continue;
    }

    LeafNode leaf;
    leaf.epoch_start = epoch;
    leaf.dfs_path = path;
    leaf.stored_bytes = blob.size();
    leaf.summary.AddSnapshot(snapshot);
    // The planner's decode-cost statistics, rebuilt from the decoded leaf;
    // the sizes equal what the original ingest recorded.
    leaf.decode_stats = std::move(decode_stats);
    SPATE_RETURN_IF_ERROR(framework->index_.AddLeaf(std::move(leaf)));
    framework->last_day_persisted_ = TruncateToDay(epoch);
    ++report.leaves_recovered;
  }
  // Any remaining sealed days newer than every resident leaf.
  for (auto& [day, summary] : day_summaries) {
    if (day > framework->index_.newest_epoch()) {
      SPATE_RETURN_IF_ERROR(
          framework->index_.AddSealedDay(day, std::move(summary)));
    }
  }
  return framework;
}

Status SpateFramework::Ingest(const Snapshot& snapshot) {
  // Snapshot admission: an injected failure here models the pipeline
  // rejecting the epoch before any compression or storage work.
  SPATE_FAILPOINT("core.ingest");
  last_ingest_ = IngestStats();

  // Storage layer: serialize + lossless compression (CPU).
  Stopwatch compress_timer;
  std::string compressed;
  LeafDecodeStats decode_stats;
  if (options_.leaf_layout == LeafLayout::kColumnar) {
    // Columnar layout: shred the snapshot into per-attribute chunks (each
    // compressed independently, in parallel on the pool when one exists —
    // the stored bytes never depend on the worker count).
    SPATE_RETURN_IF_ERROR(EncodeColumnarLeaf(*codec_, snapshot, pool_.get(),
                                             &compressed, &decode_stats));
  } else {
    const std::string text = SerializeSnapshot(snapshot);
    decode_stats.raw_bytes = text.size();
    // Ingest fan-out: the snapshot text is partitioned into independent
    // compression jobs (content-driven, so the stored bytes do not depend on
    // the worker count) and compressed on the shared pool when one exists.
    SPATE_RETURN_IF_ERROR(
        ChunkedCompress(*codec_, text, options_.parallelism.ingest_chunk_bytes,
                        pool_.get(), &compressed));
  }
  last_ingest_.compress_seconds = compress_timer.ElapsedSeconds();

  // Replicated store (simulated disk time).
  const double io_before = dfs_->stats().simulated_write_seconds;
  const std::string path = LeafPath(snapshot.epoch_start);
  SPATE_RETURN_IF_ERROR(dfs_->WriteFile(path, compressed));
  last_ingest_.store_seconds =
      dfs_->stats().simulated_write_seconds - io_before;
  last_ingest_.stored_bytes = compressed.size();

  // Indexing layer: incremence + highlights (CPU).
  Stopwatch index_timer;
  LeafNode leaf;
  leaf.epoch_start = snapshot.epoch_start;
  leaf.dfs_path = path;
  leaf.stored_bytes = compressed.size();
  leaf.summary.AddSnapshot(snapshot);
  leaf.decode_stats = std::move(decode_stats);

  // Day rollover: persist the completed day's summary (the index bytes S_i).
  const Timestamp day = TruncateToDay(snapshot.epoch_start);
  if (last_day_persisted_ >= 0 && day != last_day_persisted_) {
    const CoveringNode covering =
        index_.FindCovering(last_day_persisted_, last_day_persisted_ + 86400);
    if (covering.level == IndexLevel::kDay && covering.summary != nullptr) {
      const std::string key = FormatCompact(last_day_persisted_);
      // Index blobs go through the storage codec too (they are part of the
      // S_i share of S' and the paper minimizes the total).
      std::string blob;
      if (codec_->Compress(covering.summary->Serialize(), &blob).ok()) {
        // Best-effort: a missing persisted summary is rebuilt on recovery.
        (void)dfs_->WriteFile("/spate/index/day/" + key.substr(0, 8), blob);
      }
    }
  }
  last_day_persisted_ = day;

  Status add = index_.AddLeaf(std::move(leaf));
  last_ingest_.index_seconds = index_timer.ElapsedSeconds();
  if (!add.ok()) {
    // Error-path consistency (surfaced by the failpoint walker): the blob
    // was already stored, but the index refused the leaf — without cleanup
    // it would be an orphan no query, decay or fsck ever reclaims. Deletion
    // is best-effort: a failed delete leaves a harmless orphan, never an
    // index entry without bytes.
    (void)dfs_->DeleteFile(path);
    return add;
  }

  if (options_.auto_decay) RunDecay(snapshot.epoch_start + kEpochSeconds);
  return Status::OK();
}

Status SpateFramework::DecodeLeafWith(const LeafNode& leaf,
                                      const ScanRestriction& restriction,
                                      ThreadPool* decode_pool,
                                      DecodedLeaf* out) const {
  if (leaf.decayed) {
    return Status::NotFound("leaf decayed: " + leaf.dfs_path);
  }
  // Fragment cache: a row leaf's whole decompressed text lives under the
  // "@row" pseudo-chunk. A hit skips the DFS read too and charges no
  // decoded bytes. Columnar leaves cache per chunk instead — their "@row"
  // probe always misses.
  std::string text;
  FragmentCache* const cache = fragment_cache_.get();
  if (cache != nullptr &&
      cache->Lookup(leaf.epoch_start, kRowFragmentName, &text)) {
    ++out->fragment_hits;
    out->fragment_bytes_saved += text.size();
  } else {
    SPATE_ASSIGN_OR_RETURN(std::string blob, dfs_->ReadFile(leaf.dfs_path));
    if (IsColumnarBlob(blob)) {
      // The pushdown proper: decode only the column chunks the projections
      // call for (every chunk for an unrestricted scan), and with a cell
      // restriction only the matching rows, straight into the snapshot.
      // The fragment scope serves/admits individual chunk plaintexts.
      FragmentCacheScope fragments{cache, leaf.epoch_start, 0, 0};
      const Status status = DecodeColumnarLeaf(
          blob, restriction.cdr, restriction.nms, restriction.wanted_cells(),
          &out->snapshot, &out->bytes_decoded, &fragments);
      out->fragment_hits += fragments.hits;
      out->fragment_bytes_saved += fragments.bytes_saved;
      return status;
    }
    // Row leaf (plain or chunked blob); chunk parts may decode on the pool,
    // unless the caller is a scan worker that is itself one arm of a
    // fan-out (then decode_pool is null — no nested fan-out).
    SPATE_RETURN_IF_ERROR(ChunkedDecompress(blob, decode_pool, &text));
    out->bytes_decoded += text.size();
    if (cache != nullptr) {
      cache->Insert(leaf.epoch_start, kRowFragmentName, text);
    }
  }
  if (!restriction.restricted()) return ParseSnapshot(text, &out->snapshot);
  // Row leaf under a projection or box: full parse, then restrict in
  // memory — the reference semantics the columnar reader matches.
  Snapshot full;
  SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &full));
  out->snapshot = restriction.Apply(full);
  return Status::OK();
}

size_t SpateFramework::RunDecay(Timestamp now) {
  return RunDecay(options_.decay, now);
}

size_t SpateFramework::RunDecay(const DecayPolicy& policy, Timestamp now) {
  const size_t evicted = index_.Decay(
      policy, now,
      [this](const LeafNode& leaf) {
        // Decay deletions are idempotent; an already-absent file is fine.
        (void)dfs_->DeleteFile(leaf.dfs_path);
        // The leaf's decoded raw rows go with its blob.
        if (fragment_cache_ != nullptr) {
          fragment_cache_->DropLeaf(leaf.epoch_start);
        }
      },
      [this](const DayNode& day) {
        // Second decay stage: the persisted day summary goes too.
        (void)dfs_->DeleteFile("/spate/index/day/" +
                               FormatCompact(day.day_start).substr(0, 8));
      });
  return evicted;
}

Result<QueryResult> SpateFramework::Execute(const ExplorationQuery& query) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  // Decayed window: no scan can add rows; the covering highlights answer.
  if (!index_.WindowFullyResolved(query.window_begin, query.window_end)) {
    return BuildAnswer(query, std::nullopt);
  }
  // Exact path, as a projected scan: columnar leaves decode only the needed
  // column chunks / rows and box-disjoint leaves are skipped outright; the
  // streamed snapshots are already restricted, and FilterSnapshotRows
  // composes with that restriction to the same bytes the full-decode path
  // produces.
  QueryResult scan;
  SPATE_RETURN_IF_ERROR(
      ScanWindowProjected(query, [&](const Snapshot& snapshot) {
        FilterSnapshotRows(snapshot, query, cells_, &scan.cdr_rows,
                           &scan.nms_rows);
      }));
  scan.skipped_epochs = last_scan_stats().skipped_epochs;
  return BuildAnswer(query, std::move(scan));
}

QueryResult SpateFramework::BuildAnswer(
    const ExplorationQuery& query, std::optional<QueryResult> scan) const {
  QueryResult result;
  if (scan.has_value() && scan->skipped_epochs.empty()) {
    result = *std::move(scan);
    result.exact = true;
    result.served_from = IndexLevel::kEpoch;
    result.summary = RestrictSummaryToBox(
        index_.SummarizeWindow(query.window_begin, query.window_end), query,
        cells_);
  } else {
    if (scan.has_value()) {
      // Storage faults hid at least one leaf (every replica unreadable):
      // drop the partial rows and degrade to the covering summary, exactly
      // as if those leaves had decayed.
      result.degraded = true;
      result.skipped_epochs = std::move(scan->skipped_epochs);
    }
    const CoveringNode covering =
        index_.FindCovering(query.window_begin, query.window_end);
    result.exact = false;
    result.served_from = covering.level;
    result.summary = RestrictSummaryToBox(*covering.summary, query, cells_);
  }
  result.highlights =
      result.summary.ExtractHighlights(HighlightThreshold(result.served_from));
  return result;
}

Status SpateFramework::ScanLeaves(
    const std::vector<const LeafNode*>& leaves,
    const ScanRestriction& restriction, QueryContext* ctx,
    const std::function<void(const Snapshot&)>& fn) const {
  ScanStats& stats = ctx->stats;
  const CancelToken* const cancel = ctx->cancel;
  // Spatial leaf skipping: drop leaves whose summary proves them disjoint
  // from the wanted cells before any DFS read or decompression. The filter
  // runs up front on the calling thread, so the surviving scan — batching,
  // fold order, stats — is identical at every worker count.
  std::vector<const LeafNode*> scan_leaves;
  scan_leaves.reserve(leaves.size());
  for (const LeafNode* leaf : leaves) {
    if (restriction.has_box && options_.spatial_leaf_skip &&
        !LeafIntersectsCells(*leaf, restriction.cells)) {
      ++stats.leaves_skipped_spatial;
    } else {
      scan_leaves.push_back(leaf);
    }
  }
  // Folds one leaf's outcome into the scan, in timestamp order, on the
  // calling thread. A degradable failure — every replica of the leaf
  // unreadable — skips the epoch and records it instead of failing the
  // whole scan.
#ifndef NDEBUG
  // Fold-order hook: the serial fold must visit leaves in strictly
  // increasing epoch order regardless of how the decode fan-out scheduled
  // them — the stats fold and every caller depend on it.
  Timestamp debug_last_folded = -1;
#endif
  auto fold = [&](const LeafNode& leaf, const DecodedLeaf& decoded) {
#ifndef NDEBUG
    SPATE_DCHECK_GT(leaf.epoch_start, debug_last_folded);
    debug_last_folded = leaf.epoch_start;
#endif
    stats.bytes_decoded += decoded.bytes_decoded;
    stats.fragment_hits += decoded.fragment_hits;
    stats.bytes_decoded_saved += decoded.fragment_bytes_saved;
    if (!decoded.status.ok()) {
      if (options_.degraded_reads && DegradableFailure(decoded.status)) {
        stats.skipped_epochs.push_back(leaf.epoch_start);
        return Status::OK();
      }
      return decoded.status;
    }
    fn(decoded.snapshot);
    ++stats.leaves_scanned;
    return Status::OK();
  };

  // Decode in batches, then fold each batch serially in timestamp order.
  // Serially a batch is one leaf, whose chunk parts may fan out on the
  // pool. A scan over enough leaves instead decodes `worker_count * 4`
  // at a time (capping the simultaneously materialized snapshots) across
  // the pool: workers take contiguous leaf ranges with no nested fan-out,
  // and stats are only touched in the fold — no hot-path atomics, and the
  // fold order (hence the stats) is identical to the serial path's.
  const bool parallel =
      pool_ != nullptr && scan_leaves.size() >= kMinParallelLeaves;
  const size_t batch =
      parallel ? static_cast<size_t>(options_.parallelism.worker_count) * 4
               : 1;
  ThreadPool* const decode_pool = parallel ? nullptr : pool_.get();
  for (size_t base = 0; base < scan_leaves.size(); base += batch) {
    // Cancellation between batches on the calling thread; workers also poll
    // per leaf, so a mid-batch expiry stops further decodes and surfaces
    // through the fold as kDeadlineExceeded — not degradable, so the scan
    // aborts instead of marking the rest of the window skipped.
    if (cancel != nullptr) SPATE_RETURN_IF_ERROR(cancel->Check());
    const size_t count = std::min(batch, scan_leaves.size() - base);
    std::vector<DecodedLeaf> slots(count);
    auto decode_range = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (cancel != nullptr) {
          slots[i].status = cancel->Check();
          if (!slots[i].status.ok()) continue;  // skip decode, fold aborts
        }
        slots[i].status =
            DecodeLeafWith(*scan_leaves[base + i], restriction, decode_pool,
                           &slots[i]);
      }
    };
    if (parallel) {
      pool_->ParallelFor(count, decode_range);
    } else {
      decode_range(0, count);
    }
    for (size_t i = 0; i < count; ++i) {
      SPATE_RETURN_IF_ERROR(fold(*scan_leaves[base + i], slots[i]));
    }
  }
  return Status::OK();
}

Status SpateFramework::Scan(const ExplorationQuery& query, QueryContext* ctx,
                            const std::function<void(const Snapshot&)>& fn) {
  return ScanLeaves(
      index_.LeavesInWindow(query.window_begin, query.window_end),
      ResolveScanRestriction(query, cells_), ctx, fn);
}

Result<NodeSummary> SpateFramework::AggregateWindow(Timestamp begin,
                                                    Timestamp end) {
  return index_.SummarizeWindow(begin, end);
}

PlannerStatistics SpateFramework::CollectPlannerStatistics(
    Timestamp begin, Timestamp end) const {
  PlannerStatistics stats;
  // An injected probe failure reports `available = false`; the planner must
  // degrade to the naive full-scan plan, never crash or mis-cost.
  if (SPATE_FAILPOINT_HIT("sql.collect_statistics")) return stats;
  stats.available = true;
  stats.window_fully_resolved = index_.WindowFullyResolved(begin, end);
  stats.spatial_leaf_skip = options_.spatial_leaf_skip;
  const std::vector<const LeafNode*> leaves =
      index_.LeavesInWindow(begin, end);
  stats.leaves.reserve(leaves.size());
  for (const LeafNode* leaf : leaves) {
    PlannerLeafInfo info{leaf->epoch_start, &leaf->decode_stats,
                         &leaf->summary, 0};
    if (fragment_cache_ != nullptr) {
      info.fragment_cached_bytes =
          fragment_cache_->ResidentBytesFor(leaf->epoch_start);
    }
    stats.leaves.push_back(info);
  }
  return stats;
}

uint64_t SpateFramework::StorageBytes() const {
  return dfs_->TotalLogicalBytes();
}

}  // namespace spate
