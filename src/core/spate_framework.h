#ifndef SPATE_CORE_SPATE_FRAMEWORK_H_
#define SPATE_CORE_SPATE_FRAMEWORK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "core/fragment_cache.h"
#include "core/framework.h"

namespace spate {

namespace check {
struct FsckReport;
}  // namespace check

/// Knobs of the parallel snapshot pipeline (ingest compression fan-out and
/// multi-epoch scan decode fan-out). The stand-in for the implicit Hadoop
/// parallelism the paper's storage layer rides on.
struct ParallelismOptions {
  /// Worker threads shared by ingest and scans. 1 (the default) keeps the
  /// whole pipeline on the calling thread — no pool is created and every
  /// code path executes exactly as the pre-parallel framework did.
  int worker_count = 1;
  /// Serialized-text bytes per independent ingest compression job. The
  /// partition of a snapshot into jobs is a pure function of its text and
  /// this knob — never of `worker_count` — so stored leaf bytes and CRCs
  /// are bit-identical at every worker count (see compress/chunked.h).
  size_t ingest_chunk_bytes = kDefaultChunkBytes;
};

/// On-DFS layout of a leaf (one epoch's snapshot).
enum class LeafLayout {
  /// Serialized row text through the codec envelope / 0xCF chunked
  /// container — the original format, bit-compatible with every existing
  /// store.
  kRow,
  /// 0xCD columnar container (core/columnar_leaf.h): per-attribute column
  /// chunks compressed independently, so projected scans decode only the
  /// columns covering `ExplorationQuery::attributes` and bounding-box
  /// scans jump via the embedded row-position lists.
  kColumnar,
};

/// Configuration of the SPATE framework.
struct SpateOptions {
  /// Storage-layer codec name ("deflate" is the paper's pick, Section IV-C).
  std::string codec = "deflate";
  DfsOptions dfs;
  DecayPolicy decay;
  /// Run the decaying module after every ingest (stream-time driven).
  bool auto_decay = true;

  /// Storage layout of newly written leaves. `kRow` (the default) stays
  /// bit-compatible with existing stores; `kColumnar` enables projection
  /// pushdown in the scan path. Readers dispatch on each blob's leading
  /// byte, so mixed stores (e.g. a recovered row store continued in
  /// columnar mode) work transparently.
  LeafLayout leaf_layout = LeafLayout::kRow;

  /// Whole-leaf spatial skipping: a bounding-box scan consults each leaf's
  /// in-memory summary cell-id set (exact: the summary carries an entry for
  /// every cell appearing in the leaf's rows) and skips leaves proven
  /// disjoint from the box before any DFS read or decompression. Applies
  /// to both leaf layouts; `ScanStats::leaves_skipped_spatial` counts the
  /// wins.
  bool spatial_leaf_skip = true;

  /// Degraded reads: when a leaf's every replica is unreadable (datanodes
  /// down, all copies corrupt), treat it like a decayed leaf — `Execute`
  /// falls back to the covering highlight summary, `Scan` skips it
  /// (reporting the epoch in its context's stats), and `Recover` keeps
  /// going past it. When false, storage faults surface as hard errors.
  bool degraded_reads = true;

  /// Parallel snapshot pipeline (ingest + scan fan-out). Defaults to fully
  /// serial operation.
  ParallelismOptions parallelism;

  /// Byte budget of the decoded-fragment cache (core/fragment_cache.h):
  /// scans serve column chunks / row texts they already decoded from
  /// memory, keyed (leaf epoch, chunk name). A fragment lives as long as
  /// its leaf: the decay that evicts the leaf drops it, and `Recover`
  /// starts empty. 0 (the default) disables the cache entirely — every
  /// existing byte-accounting expectation holds unchanged. Results are
  /// identical either way; only `ScanStats::bytes_decoded` (and its
  /// `fragment_hits`/`bytes_decoded_saved` counters) move.
  size_t fragment_cache_bytes = 0;
};

/// Outcome of `Recover()` (degraded-recovery accounting): what was rebuilt
/// from the surviving DFS files and what had to be skipped.
struct RecoveryReport {
  size_t leaves_recovered = 0;
  /// Leaves whose blob was unreadable/corrupt; each becomes a decayed
  /// placeholder leaf.
  size_t leaves_skipped = 0;
  size_t day_summaries_recovered = 0;
  /// Persisted day summaries that could not be read back.
  size_t day_summaries_skipped = 0;
  /// Epoch starts of the skipped leaves.
  std::vector<Timestamp> skipped_epochs;
};

/// The SPATE framework (the paper's contribution): lossless compression of
/// arriving snapshots on a replicated DFS, a multi-resolution spatiotemporal
/// index with materialized highlights, and decaying of aged raw data.
///
/// Concurrency: the framework parallelizes *internally* (per
/// `ParallelismOptions`). `Scan`s with distinct `QueryContext`s may run
/// concurrently — a scan keeps all its state in its context and reads only
/// const index state — but not alongside a mutator (`Ingest`, `RunDecay`).
/// Mutators and the stats-recording wrappers (`ScanWindow`,
/// `ScanWindowProjected`, `Execute`) are externally synchronized. The
/// fan-out happens below the API: ingest compresses one snapshot's chunks
/// concurrently, and a scan decodes its in-window leaves concurrently and
/// folds their stats into its context before returning. See DESIGN.md
/// "Concurrency model" for the per-class contracts.
class SPATE_EXTERNALLY_SYNCHRONIZED SpateFramework : public Framework {
 public:
  /// `cell_rows` is the static CELL inventory (also persisted to the DFS).
  SpateFramework(SpateOptions options, const std::vector<Record>& cell_rows);

  /// Recovery: rebuilds a framework from an existing DFS (e.g. after a
  /// process restart). The cell inventory is read back from
  /// /spate/meta/cells; resident leaves are decompressed in time order and
  /// their summaries recomputed; fully-decayed days are restored from their
  /// persisted day summaries. Days that were only partially decayed keep
  /// the stats of their resident leaves (the evicted leaves' raw data is
  /// gone by design).
  ///
  /// With `degraded_reads` (the default) recovery also tolerates storage
  /// faults: a leaf whose blob is unreadable (every replica corrupt or on a
  /// dead datanode) is re-inserted as a decayed placeholder instead of
  /// aborting the rebuild, and unreadable persisted day summaries are
  /// dropped. `recovery_report()` itemizes everything skipped. Only the cell
  /// inventory remains load-bearing: if /spate/meta/cells is unreadable the
  /// recovery fails.
  static Result<std::unique_ptr<SpateFramework>> Recover(
      SpateOptions options, std::shared_ptr<DistributedFileSystem> dfs);

  /// What the last `Recover()` skipped (empty for a framework built by the
  /// public constructor).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Shared handle to the underlying DFS (pass to `Recover` to simulate a
  /// restart over surviving storage).
  std::shared_ptr<DistributedFileSystem> shared_dfs() { return dfs_; }

  std::string_view Name() const override { return "SPATE"; }
  Status Ingest(const Snapshot& snapshot) override;
  const IngestStats& last_ingest_stats() const override {
    return last_ingest_;
  }
  Result<QueryResult> Execute(const ExplorationQuery& query) override;
  /// Projection + spatial pushdown: columnar leaves decode only the column
  /// chunks covering the query's attributes (plus ts/cell id for the
  /// predicates) and, with a box, materialize only the matching rows via
  /// the embedded row-position lists; row leaves decode fully and restrict
  /// in memory. Either way the streamed snapshots are byte-identical to
  /// `RestrictSnapshot`'s, except that leaves proven disjoint from the box
  /// are skipped outright (`fn` not called; `leaves_skipped_spatial`
  /// counts them). The token is polled between leaf decodes (serial path)
  /// and between batches and inside workers (parallel path); its
  /// `kDeadlineExceeded` is deliberately *not* a degradable failure, so an
  /// expired scan aborts instead of skipping the rest of its window.
  Status Scan(const ExplorationQuery& query, QueryContext* ctx,
              const std::function<void(const Snapshot&)>& fn) override;
  Result<NodeSummary> AggregateWindow(Timestamp begin,
                                      Timestamp end) override;
  /// Planner statistics straight from the temporal index: one entry per
  /// non-decayed in-window leaf with its layout, exact per-chunk decode
  /// costs (recorded at ingest / recovery) and spatial summary.
  PlannerStatistics CollectPlannerStatistics(Timestamp begin,
                                             Timestamp end) const override;
  uint64_t StorageBytes() const override;
  DistributedFileSystem& dfs() override { return *dfs_; }
  const CellDirectory& cells() const override { return cells_; }
  const std::vector<Record>& cell_rows() const override {
    return cell_rows_;
  }

  /// The underlying temporal index (inspection / advanced exploration).
  const TemporalIndex& index() const { return index_; }

  /// Manually triggers the decaying module at stream time `now`; returns
  /// the number of leaves evicted.
  size_t RunDecay(Timestamp now);

  /// Same, with an explicit policy (operator-driven decay, Section V-C:
  /// "operators chose the rate at which the temporal decaying policy
  /// becomes effective").
  size_t RunDecay(const DecayPolicy& policy, Timestamp now);

  const SpateOptions& options() const { return options_; }

  /// The one place an exploration answer is assembled: `Execute` and the
  /// shared-scan scheduler both finish through it. `scan` holds what a
  /// scan of the fully resolved window folded — the filtered rows, plus
  /// the epochs storage faults hid in `skipped_epochs` — and is empty when
  /// the window is not fully resolved, so no scan ran. A complete scan
  /// answers exactly, with the window's summary; otherwise the rows are
  /// dropped and the smallest covering node's highlights answer, marked
  /// `degraded` when faults (not decay) forced it. Reads only const index
  /// state.
  QueryResult BuildAnswer(const ExplorationQuery& query,
                          std::optional<QueryResult> scan) const;

  /// The pipeline's shared worker pool (nullptr when `worker_count == 1`).
  /// Exposed so analytics tasks can reuse it instead of spawning their own;
  /// see DESIGN.md "Concurrency model" for what may run on it concurrently.
  ThreadPool* pool() { return pool_.get(); }

  /// The decoded-fragment cache (nullptr when `fragment_cache_bytes == 0`).
  /// Scans consult and feed it below the decode funnel; `RunDecay` drops
  /// the fragments of each leaf it evicts, and nothing else invalidates.
  /// Exposed for stats surfacing (`spate_cli scan-stats`, the serving
  /// tier), the planner probe and fsck's lifetime audit.
  FragmentCache* fragment_cache() const { return fragment_cache_.get(); }

  /// Deep cross-layer verifier (`spate_cli fsck`): replica integrity and
  /// replication factor on the DFS, container framing and decodability of
  /// every stored blob, index shape, highlight roll-up consistency and
  /// decay monotonicity (which includes no decayed leaf keeping cached
  /// fragments). See src/check/fsck.h for the invariant catalog.
  /// Defined in the `spate_check` library — link it to call this.
  check::FsckReport Fsck() const;

 private:
  /// DFS path of the raw (compressed) snapshot for an epoch.
  static std::string LeafPath(Timestamp epoch_start);

  /// One leaf as a scan decoded it, folded into `ScanStats` in leaf order.
  struct DecodedLeaf {
    Status status;
    Snapshot snapshot;
    /// Decompressed bytes produced (fragment-cache hits add nothing).
    uint64_t bytes_decoded = 0;
    /// Fragment-cache wins and the decompressed bytes they avoided.
    uint64_t fragment_hits = 0;
    uint64_t fragment_bytes_saved = 0;
  };

  /// Decodes one leaf into `out` per `restriction`. Columnar blobs decode
  /// exactly the chunks the restriction calls for, straight into the
  /// snapshot; row blobs decompress their full text (cached whole under
  /// "@row"), parse it and restrict in memory. `decode_pool` (may be null)
  /// is where a row blob's chunk parts may fan out — null for the workers
  /// of a parallel scan, which fans out across leaves OR across chunk
  /// parts, never both nested. Touches nothing but `out`, the (thread-safe)
  /// DFS and fragment cache, so concurrent scans and their workers call it
  /// freely.
  Status DecodeLeafWith(const LeafNode& leaf,
                        const ScanRestriction& restriction,
                        ThreadPool* decode_pool, DecodedLeaf* out) const;

  /// The one scan funnel: decodes every leaf in `leaves` per `restriction`
  /// and hands each snapshot to `fn` on the calling thread, in timestamp
  /// order. With a box and `spatial_leaf_skip`, leaves whose summary shares
  /// no cell with it are dropped up front. Fans the decode out on the pool
  /// when it exists and the window spans enough leaves to pay for it;
  /// degradable decode failures skip their epoch. Everything feeds
  /// `ctx->stats`, folded in leaf order; no framework member is written.
  Status ScanLeaves(const std::vector<const LeafNode*>& leaves,
                    const ScanRestriction& restriction, QueryContext* ctx,
                    const std::function<void(const Snapshot&)>& fn) const;

  /// Shared construction guts for the public ctor and `Recover`.
  SpateFramework(SpateOptions options,
                 std::shared_ptr<DistributedFileSystem> dfs,
                 const std::vector<Record>& cell_rows, bool write_meta);

  SpateOptions options_;
  const Codec* codec_;  // owned by the registry
  std::shared_ptr<DistributedFileSystem> dfs_;
  /// Shared worker pool of the parallel pipeline (null when serial).
  std::unique_ptr<ThreadPool> pool_;
  CellDirectory cells_;
  std::vector<Record> cell_rows_;
  TemporalIndex index_;
  IngestStats last_ingest_;
  RecoveryReport recovery_report_;
  Timestamp last_day_persisted_ = -1;
  /// Decoded-fragment cache (null when `fragment_cache_bytes == 0`). The
  /// cache object is internally synchronized; `RunDecay` drops an evicted
  /// leaf's fragments before any later scan can run, per the framework's
  /// external synchronization.
  std::unique_ptr<FragmentCache> fragment_cache_;
};

}  // namespace spate

#endif  // SPATE_CORE_SPATE_FRAMEWORK_H_
