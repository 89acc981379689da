#ifndef SPATE_CHECK_FSCK_H_
#define SPATE_CHECK_FSCK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spate {

class DistributedFileSystem;

namespace check {

/// Stable invariant identifiers. Tests assert on these exact strings and
/// the DESIGN.md invariant catalog documents one row per id — treat them
/// as a wire format.
///
/// Storage layer (DFS):
inline constexpr std::string_view kReplicaIntegrity = "replica-integrity";
inline constexpr std::string_view kReplicationFactor = "replication-factor";
inline constexpr std::string_view kDfsMetadata = "dfs-metadata";
/// Compression layer:
inline constexpr std::string_view kContainerFraming = "container-framing";
inline constexpr std::string_view kEnvelopeDecode = "envelope-decode";
/// Columnar leaves only: a 0xCD container frames correctly but a column
/// chunk fails to decode, the reassembled snapshot is inconsistent, or a
/// projected decode disagrees with the restriction of the full decode.
inline constexpr std::string_view kColumnarChunk = "columnar-chunk";
/// Index layer:
inline constexpr std::string_view kIndexShape = "index-shape";
inline constexpr std::string_view kHighlightConsistency =
    "highlight-consistency";
/// Decay: no live leaf behind the decay horizon, and no decayed leaf with
/// decoded fragments still resident in the fragment cache.
inline constexpr std::string_view kDecayOrder = "decay-order";
/// Concurrency layer (only ever emitted in lockdep-instrumented builds;
/// mirrors spate::lockdep's own `lock-cycle` / `lock-same-rank` ids —
/// see AppendLockdep and docs/LOCK_ORDER.md):
inline constexpr std::string_view kLockOrder = "lock-order";

/// One detected invariant violation.
struct FsckViolation {
  /// One of the invariant ids above.
  std::string invariant;
  /// The object the violation anchors to: a DFS path, "block <id>",
  /// "leaf <epoch>", "day <epoch>", "index", ...
  std::string object;
  /// Human-readable specifics (expected vs observed).
  std::string detail;
};

/// Structured outcome of a verification pass. `clean()` on a healthy store;
/// otherwise every violation is classified by invariant id so tests (and
/// operators) can tell a flipped replica byte from a broken roll-up.
struct FsckReport {
  std::vector<FsckViolation> violations;

  // Coverage counters (what the pass actually looked at).
  uint64_t blocks_checked = 0;
  uint64_t replicas_checked = 0;
  uint64_t files_checked = 0;
  uint64_t leaves_checked = 0;
  uint64_t containers_checked = 0;
  uint64_t summaries_checked = 0;
  /// Mutex sites whose acquisition history the lockdep pass examined
  /// (0 in uninstrumented builds — the pass is then a no-op).
  uint64_t lock_sites_checked = 0;

  bool clean() const { return violations.empty(); }

  void Add(std::string_view invariant, std::string object,
           std::string detail);

  /// Violations recorded against one invariant id.
  std::vector<const FsckViolation*> ViolationsFor(
      std::string_view invariant) const;

  /// True if at least one violation carries this invariant id.
  bool Detected(std::string_view invariant) const {
    return !ViolationsFor(invariant).empty();
  }

  /// Multi-line operator-facing rendering (what `spate_cli fsck` prints).
  std::string ToString() const;
};

/// DFS-only deep verify: every replica of every block CRC-checked against
/// the write-time metadata (replica-integrity), healthy-copy counts against
/// the replication target (replication-factor), and namenode bookkeeping —
/// dangling block ids, file sizes vs block sums (dfs-metadata). Appends to
/// `*report`; charges no simulated I/O. The fault-injection tests use this
/// as the detection oracle for every seeded storage corruption.
void VerifyDfs(const DistributedFileSystem& dfs, FsckReport* report);

/// Convenience wrapper returning a fresh report.
FsckReport VerifyDfs(const DistributedFileSystem& dfs);

/// Folds the runtime lock-order detector's findings (spate::lockdep) into
/// `*report`: every cycle or same-rank inversion observed since process
/// start (or the last `lockdep::ResetForTest`) becomes a `lock-order`
/// violation whose detail preserves the detector's stable violation id and
/// acquisition path. No-op in uninstrumented builds beyond leaving
/// `lock_sites_checked` at 0. Called by `SpateFramework::Fsck()` so a
/// routine fsck surfaces deadlock potential alongside data corruption.
void AppendLockdep(FsckReport* report);

}  // namespace check
}  // namespace spate

#endif  // SPATE_CHECK_FSCK_H_
