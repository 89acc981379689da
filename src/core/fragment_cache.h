#ifndef SPATE_CORE_FRAGMENT_CACHE_H_
#define SPATE_CORE_FRAGMENT_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spate {

/// Pseudo-chunk name under which a row-layout leaf's whole decompressed
/// text is cached (columnar leaves cache per real chunk name instead; the
/// '@' prefix cannot collide with the "c:"/"n:" column chunk names).
inline constexpr char kRowFragmentName[] = "@row";

/// Counters of one `FragmentCache` (also surfaced per scan through
/// `ScanStats::fragment_hits` / `bytes_decoded_saved`).
struct FragmentCacheStats {
  uint64_t fragment_hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Decompressed bytes the hits avoided producing again — the same
  /// currency as `ScanStats::bytes_decoded`, so "decode work removed by the
  /// cache" and "decode work done" subtract directly.
  uint64_t bytes_decoded_saved = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_entries = 0;
};

/// Bounded, byte-budgeted LRU of *decoded leaf fragments*, keyed on
/// (leaf epoch, fragment name). A fragment is the unit the decode path
/// actually produces: one column chunk's plaintext for a columnar leaf
/// ("@meta", "@spidx", "c:<attr>", "n:<attr>" — the 0xCD chunk names), or
/// the whole decompressed row text of a row-layout leaf under the
/// pseudo-chunk name "@row". Because the key is a fragment and not a query,
/// partially-overlapping and later queries hit at fragment granularity
/// where the whole-query `ResultCache` would miss.
///
/// A fragment lives as long as its leaf: a leaf's bytes never change after
/// `TemporalIndex::AddLeaf` (which accepts only strictly newer epochs), so
/// an ingest invalidates nothing, and the decay that evicts a leaf drops its
/// fragments through `DropLeaf`. `Recover` builds a fresh, empty cache. See
/// DESIGN.md "Shared scans & fragment cache"; fsck's `decay-order` pass
/// audits that no decayed leaf keeps resident bytes.
///
/// Thread-safety: fully thread-safe. Rank "FragmentCache.mu"
/// (docs/LOCK_ORDER.md) is a leaf lock — held only across the map/LRU
/// bookkeeping of one call, never across DFS reads, decompression or any
/// other SPATE lock.
class FragmentCache {
 public:
  /// `byte_budget` bounds the sum of resident fragment payload bytes; an
  /// insert evicts from the LRU tail until the new entry fits. A fragment
  /// larger than the whole budget is not admitted at all.
  explicit FragmentCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  FragmentCache(const FragmentCache&) = delete;
  FragmentCache& operator=(const FragmentCache&) = delete;

  /// Drops every resident fragment of one leaf (the decay that evicted it
  /// calls this), counting each as an eviction. Returns at once when the
  /// leaf has nothing resident; otherwise walks the LRU.
  void DropLeaf(Timestamp leaf_epoch) EXCLUDES(mu_);

  /// Copies the fragment into `*value` and returns true on a hit (which
  /// also front-moves the entry and counts `bytes_decoded_saved`).
  bool Lookup(Timestamp leaf_epoch, std::string_view fragment,
              std::string* value) EXCLUDES(mu_);

  /// Admits one decoded fragment. Silently ignored when the fragment is
  /// empty (it saves nothing) or alone exceeds the byte budget, so a leaf
  /// with resident fragments always has resident bytes. Re-inserting an
  /// existing key refreshes its LRU position without double-counting.
  void Insert(Timestamp leaf_epoch, std::string_view fragment,
              std::string value) EXCLUDES(mu_);

  /// Sum of resident fragment bytes for one leaf — the SQL planner's
  /// costing probe (decoded bytes the next scan of this leaf will *not*
  /// pay; a cached fragment prices at ~0) and fsck's lifetime audit (a
  /// decayed leaf must have none).
  uint64_t ResidentBytesFor(Timestamp leaf_epoch) const EXCLUDES(mu_);

  FragmentCacheStats stats() const EXCLUDES(mu_);

  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::string key;
    Timestamp leaf_epoch = 0;
    std::string value;
  };

  static std::string MakeKey(Timestamp leaf_epoch, std::string_view fragment);

  /// Drops LRU-tail entries until `need` more bytes fit in the budget.
  void EvictFor(size_t need) REQUIRES(mu_);

  const size_t byte_budget_;
  /// Rank "FragmentCache.mu" (docs/LOCK_ORDER.md): leaf lock over the
  /// LRU/map state below; never held across I/O, decode work or another
  /// SPATE lock.
  mutable Mutex mu_{"FragmentCache.mu"};
  /// Front = most recently used.
  std::list<Entry> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
  uint64_t resident_bytes_ GUARDED_BY(mu_) = 0;
  /// Resident payload bytes per leaf epoch (the planner probe, O(1)); an
  /// epoch has an entry iff it has a resident fragment.
  std::unordered_map<Timestamp, uint64_t> epoch_bytes_ GUARDED_BY(mu_);
  FragmentCacheStats stats_ GUARDED_BY(mu_);
};

/// Per-scan view of a `FragmentCache` that the decode helpers thread down
/// to the single per-chunk decode funnel (`DecodeChunk` in
/// core/columnar_leaf.cc and the row-text materialization in
/// core/spate_framework.cc): the cache handle, the leaf to key under, and
/// hit counters the scan folds into its `ScanStats`. A null `cache` (the
/// default everywhere) disables caching with zero behavior change. Not
/// thread-safe — one scope per (worker, leaf).
struct FragmentCacheScope {
  FragmentCache* cache = nullptr;
  Timestamp leaf_epoch = 0;
  uint64_t hits = 0;
  uint64_t bytes_saved = 0;
};

}  // namespace spate

#endif  // SPATE_CORE_FRAGMENT_CACHE_H_
