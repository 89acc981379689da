#include "check/fsck.h"

#include <map>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "common/lockdep.h"
#include "compress/chunked.h"
#include "compress/columnar.h"
#include "core/columnar_leaf.h"
#include "core/spate_framework.h"
#include "dfs/dfs.h"
#include "index/temporal_index.h"
#include "telco/schema.h"
#include "telco/snapshot.h"

namespace spate {
namespace check {

void FsckReport::Add(std::string_view invariant, std::string object,
                     std::string detail) {
  violations.push_back(FsckViolation{std::string(invariant),
                                     std::move(object), std::move(detail)});
}

std::vector<const FsckViolation*> FsckReport::ViolationsFor(
    std::string_view invariant) const {
  std::vector<const FsckViolation*> out;
  for (const FsckViolation& v : violations) {
    if (v.invariant == invariant) out.push_back(&v);
  }
  return out;
}

std::string FsckReport::ToString() const {
  std::ostringstream os;
  os << "fsck: " << blocks_checked << " blocks, " << replicas_checked
     << " replicas, " << files_checked << " files, " << leaves_checked
     << " leaves, " << containers_checked << " containers, "
     << summaries_checked << " summaries";
  if (lock_sites_checked > 0) {
    os << ", " << lock_sites_checked << " lock sites";
  }
  os << " checked\n";
  if (clean()) {
    os << "fsck: clean (0 violations)\n";
    return os.str();
  }
  // Per-invariant tally first (the operator's one-glance classification),
  // then the itemized list.
  std::map<std::string, size_t> tally;
  for (const FsckViolation& v : violations) ++tally[v.invariant];
  os << "fsck: " << violations.size() << " violation(s):\n";
  for (const auto& [invariant, count] : tally) {
    os << "  [" << invariant << "] x" << count << "\n";
  }
  for (const FsckViolation& v : violations) {
    os << "  " << v.invariant << ": " << v.object << ": " << v.detail
       << "\n";
  }
  return os.str();
}

void VerifyDfs(const DistributedFileSystem& dfs, FsckReport* report) {
  const std::vector<BlockInspection> blocks = dfs.InspectBlocks();
  std::map<std::string, uint64_t> file_block_bytes;
  for (const BlockInspection& block : blocks) {
    ++report->blocks_checked;
    const std::string object = "block " + std::to_string(block.block_id) +
                               " of " + block.path;
    file_block_bytes[block.path] += block.size;
    if (block.replicas.empty()) {
      // A block id the namenode metadata names but no datanode holds.
      report->Add(kDfsMetadata, object, "dangling block id (no replicas)");
      report->Add(kReplicationFactor, object,
                  "0 healthy replicas, target " +
                      std::to_string(block.replication_target));
      continue;
    }
    int healthy = 0;
    for (const ReplicaInspection& replica : block.replicas) {
      ++report->replicas_checked;
      if (replica.healthy) {
        ++healthy;
        continue;
      }
      std::string detail =
          replica.length != block.size
              ? "replica length " + std::to_string(replica.length) +
                    " != block size " + std::to_string(block.size)
              : "replica bytes fail the write-time CRC";
      detail += " (datanode " + std::to_string(replica.datanode) +
                (replica.node_down ? ", down)" : ")");
      report->Add(kReplicaIntegrity, object, std::move(detail));
    }
    if (healthy < block.replication_target) {
      report->Add(kReplicationFactor, object,
                  std::to_string(healthy) + " healthy replicas, target " +
                      std::to_string(block.replication_target));
    }
  }
  // Namenode size bookkeeping: a file's logical size must equal the sum of
  // its blocks' logical sizes.
  for (const auto& [path, block_bytes] : file_block_bytes) {
    auto size = dfs.FileSize(path);
    if (!size.ok()) {
      report->Add(kDfsMetadata, path, "blocks without a file entry");
      continue;
    }
    if (*size != block_bytes) {
      report->Add(kDfsMetadata, path,
                  "file size " + std::to_string(*size) +
                      " != block sum " + std::to_string(block_bytes));
    }
  }
}

FsckReport VerifyDfs(const DistributedFileSystem& dfs) {
  FsckReport report;
  VerifyDfs(dfs, &report);
  return report;
}

void AppendLockdep(FsckReport* report) {
  if (!lockdep::Enabled()) return;
  report->lock_sites_checked += lockdep::Stats().size();
  const lockdep::LockdepReport lockdep_report = lockdep::Report();
  for (const lockdep::LockdepViolation& v : lockdep_report.violations) {
    // Preserve the detector's own stable id ("lock-cycle" /
    // "lock-same-rank") in the detail; fsck classifies everything
    // concurrency-related under the one `lock-order` invariant.
    report->Add(kLockOrder, v.object, "[" + v.violation + "] " + v.detail);
  }
}

}  // namespace check

namespace {

/// True when `leaf` should already be decayed under the index's own
/// `decayed_until()` horizon (the decay-monotonicity invariant).
bool MustBeDecayed(const LeafNode& leaf, Timestamp decayed_until) {
  return leaf.epoch_start + kEpochSeconds <= decayed_until;
}

/// Cross-checks the columnar projected-read path on one leaf: a narrow
/// projected decode (one CDR metric + one NMS metric, the shape T1-T5
/// issue) must equal the reference restriction of the full decode.
Status CheckColumnarProjection(Slice blob, const Snapshot& full) {
  const std::vector<std::string> attrs = {"upflux", "rssi"};
  const TableProjection cdr =
      ScanProjection(CdrSchema(), attrs, kCdrTs, kCdrCellId);
  const TableProjection nms =
      ScanProjection(NmsSchema(), attrs, kNmsTs, kNmsCellId);
  Snapshot projected;
  SPATE_RETURN_IF_ERROR(DecodeColumnarLeaf(blob, cdr, nms,
                                           /*wanted_cells=*/nullptr,
                                           &projected,
                                           /*bytes_decoded=*/nullptr));
  const Snapshot expected = RestrictSnapshot(full, cdr, nms, nullptr);
  if (projected.epoch_start != expected.epoch_start ||
      projected.cdr != expected.cdr || projected.nms != expected.nms) {
    return Status::Corruption(
        "projected decode disagrees with the restricted full decode");
  }
  return Status::OK();
}

}  // namespace

check::FsckReport SpateFramework::Fsck() const {
  using check::FsckReport;
  FsckReport report;

  // --- Storage layer: replicas, replication factor, namenode metadata. ---
  check::VerifyDfs(*dfs_, &report);

  // --- Index layer: structural shape. ---
  for (const std::string& problem : index_.ShapeProblems()) {
    report.Add(check::kIndexShape, "index", problem);
  }

  // --- Compression + highlight layers: walk every leaf in time order,
  // verify blob framing and decodability, recompute live-leaf summaries
  // from the decoded bytes, and check decay monotonicity. ---
  const Timestamp decayed_until = index_.decayed_until();
  for (const YearNode& year : index_.years()) {
    for (const MonthNode& month : year.months) {
      for (const DayNode& day : month.days) {
        if (day.sealed) continue;
        for (const LeafNode& leaf : day.leaves) {
          ++report.leaves_checked;
          const std::string object =
              "leaf " + FormatCompact(leaf.epoch_start);
          if (!leaf.decayed && MustBeDecayed(leaf, decayed_until)) {
            report.Add(check::kDecayOrder, object,
                       "live leaf behind the decay horizon " +
                           FormatCompact(decayed_until));
          }
          // Raw data gone by design; only the (retained) summary serves
          // this epoch — and its decoded rows must be gone from memory too.
          if (leaf.decayed) {
            const uint64_t resident =
                fragment_cache_ != nullptr
                    ? fragment_cache_->ResidentBytesFor(leaf.epoch_start)
                    : 0;
            if (resident > 0) {
              report.Add(check::kDecayOrder, object,
                         "decayed leaf keeps " + std::to_string(resident) +
                             " decoded bytes in the fragment cache");
            }
            continue;
          }

          auto blob = dfs_->InspectFile(leaf.dfs_path);
          if (!blob.ok()) {
            report.Add(check::kEnvelopeDecode, object,
                       "unreadable blob: " + blob.status().ToString());
            continue;
          }
          ++report.files_checked;
          if (leaf.stored_bytes != blob->size()) {
            report.Add(check::kDfsMetadata, object,
                       "index says " + std::to_string(leaf.stored_bytes) +
                           " stored bytes, DFS holds " +
                           std::to_string(blob->size()));
          }
          const bool columnar = IsColumnarBlob(*blob);
          if (IsChunkedBlob(*blob) || columnar) ++report.containers_checked;
          Status framing = columnar ? VerifyColumnarFraming(*blob)
                                    : VerifyChunkedFraming(*blob);
          if (!framing.ok()) {
            report.Add(check::kContainerFraming, object,
                       framing.ToString());
          }

          // Columnar leaves reassemble the full snapshot from their chunks;
          // row leaves decompress their text.
          const TableProjection all;
          std::string text;
          Snapshot snapshot;
          const Status decode =
              columnar ? DecodeColumnarLeaf(*blob, all, all,
                                            /*wanted_cells=*/nullptr,
                                            &snapshot,
                                            /*bytes_decoded=*/nullptr)
                       : ChunkedDecompress(*blob, nullptr, &text);
          if (!decode.ok()) {
            report.Add(columnar ? check::kColumnarChunk
                                : check::kEnvelopeDecode,
                       object, decode.ToString());
            continue;
          }
          if (columnar) {
            // Cross-check the projected-read path against the reference
            // restriction — a chunk that decodes but lies (or a reader bug)
            // surfaces here, not just hard decode failures.
            Status projection_check = CheckColumnarProjection(*blob, snapshot);
            if (!projection_check.ok()) {
              report.Add(check::kColumnarChunk, object,
                         projection_check.ToString());
            }
          } else if (Status parse = ParseSnapshot(text, &snapshot);
                     !parse.ok()) {
            report.Add(check::kEnvelopeDecode, object,
                       "decoded text does not parse: " + parse.ToString());
            continue;
          }
          if (snapshot.epoch_start != leaf.epoch_start) {
            report.Add(check::kEnvelopeDecode, object,
                       "decoded snapshot is for epoch " +
                           FormatCompact(snapshot.epoch_start));
          }
          // Live leaves must summarize to exactly what the index holds
          // (bit-exact: AddSnapshot is deterministic over the decoded rows).
          NodeSummary recomputed;
          recomputed.AddSnapshot(snapshot);
          if (!(recomputed == leaf.summary)) {
            report.Add(check::kHighlightConsistency, object,
                       "leaf summary does not match its decoded rows");
          }
        }
      }
    }
  }

  // --- Highlight roll-ups: replay each level's merges in insertion order
  // (floating-point merge is order-sensitive, so the replay mirrors
  // AddLeaf/AddSealedDay exactly) and require bit-exact equality. Decayed
  // leaves retain their summaries, so days with evicted leaves still
  // replay; month/year/root replays are skipped once decay stage 2 pruned
  // whole days (their contributions are irreproducible by design). ---
  NodeSummary root_replay;
  for (const YearNode& year : index_.years()) {
    NodeSummary year_replay;
    for (const MonthNode& month : year.months) {
      NodeSummary month_replay;
      for (const DayNode& day : month.days) {
        const std::string object = "day " + FormatCompact(day.day_start);
        if (day.sealed) {
          // No leaves to replay against; the sealed summary feeds the
          // upper levels as one unit, exactly as AddSealedDay merged it.
          month_replay.Merge(day.summary);
          year_replay.Merge(day.summary);
          root_replay.Merge(day.summary);
          continue;
        }
        NodeSummary day_replay;
        for (const LeafNode& leaf : day.leaves) {
          day_replay.Merge(leaf.summary);
          month_replay.Merge(leaf.summary);
          year_replay.Merge(leaf.summary);
          root_replay.Merge(leaf.summary);
        }
        ++report.summaries_checked;
        if (!(day_replay == day.summary)) {
          report.Add(check::kHighlightConsistency, object,
                     "day summary does not equal the ordered merge of its "
                     "leaf summaries");
        }
      }
      if (index_.num_pruned_days() == 0) {
        ++report.summaries_checked;
        if (!(month_replay == month.summary)) {
          report.Add(check::kHighlightConsistency,
                     "month " + FormatCompact(month.month_start),
                     "month summary does not equal the ordered merge of "
                     "its leaves");
        }
      }
    }
    if (index_.num_pruned_days() == 0) {
      ++report.summaries_checked;
      if (!(year_replay == year.summary)) {
        report.Add(check::kHighlightConsistency,
                   "year " + FormatCompact(year.year_start),
                   "year summary does not equal the ordered merge of its "
                   "leaves");
      }
    }
  }
  if (index_.num_pruned_days() == 0) {
    ++report.summaries_checked;
    if (!(root_replay == index_.root_summary())) {
      report.Add(check::kHighlightConsistency, "root",
                 "root summary does not equal the ordered merge of all "
                 "leaves");
    }
  }

  // --- Persisted day summaries: every /spate/index/day blob must frame,
  // decode and parse; for fully-resident days it must also equal the
  // in-memory day summary (a stale persisted aggregate would poison the
  // next recovery). ---
  for (const std::string& path : dfs_->ListFiles("/spate/index/day/")) {
    const Timestamp day_start =
        ParseCompact(path.substr(path.rfind('/') + 1));
    auto blob = dfs_->InspectFile(path);
    if (!blob.ok()) {
      report.Add(check::kEnvelopeDecode, path,
                 "unreadable blob: " + blob.status().ToString());
      continue;
    }
    ++report.files_checked;
    Status framing = VerifyChunkedFraming(*blob);
    if (!framing.ok()) {
      report.Add(check::kContainerFraming, path, framing.ToString());
    }
    std::string serialized;
    NodeSummary persisted;
    Status decode = ChunkedDecompress(*blob, nullptr, &serialized);
    if (decode.ok()) decode = NodeSummary::Parse(serialized, &persisted);
    if (!decode.ok()) {
      report.Add(check::kEnvelopeDecode, path, decode.ToString());
      continue;
    }
    ++report.summaries_checked;
    if (day_start < 0) continue;
    const CoveringNode covering =
        index_.FindCovering(day_start, day_start + 86400);
    if (covering.level != IndexLevel::kDay || covering.summary == nullptr) {
      continue;  // day pruned (or never indexed) — nothing to compare
    }
    // Only compare fully-resident or cleanly-decayed days: a degraded
    // recovery legitimately rebuilds a weaker in-memory summary than the
    // one persisted before the data loss.
    bool has_placeholder = false;
    for (const YearNode& year : index_.years()) {
      for (const MonthNode& month : year.months) {
        for (const DayNode& day : month.days) {
          if (day.day_start != day_start) continue;
          for (const LeafNode& leaf : day.leaves) {
            if (leaf.decayed && leaf.summary == NodeSummary()) {
              has_placeholder = true;
            }
          }
        }
      }
    }
    if (!has_placeholder && !(persisted == *covering.summary)) {
      report.Add(check::kHighlightConsistency, path,
                 "persisted day summary disagrees with the index");
    }
  }

  // --- Concurrency layer: fold in the runtime lock-order detector's
  // findings (cycles / same-rank inversions observed anywhere in this
  // process). No-op unless the build is lockdep-instrumented. ---
  check::AppendLockdep(&report);

  return report;
}

}  // namespace spate
