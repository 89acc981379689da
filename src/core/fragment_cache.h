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
  uint64_t generation = 0;
};

/// Bounded, byte-budgeted LRU of *decoded leaf fragments*, keyed on
/// (leaf epoch, fragment name, store generation). A fragment is the unit
/// the decode path actually produces: one column chunk's plaintext for a
/// columnar leaf ("@meta", "@spidx", "c:<attr>", "n:<attr>" — the 0xCD
/// chunk names), or the whole decompressed row text of a row-layout leaf
/// under the pseudo-chunk name "@row". Because the key is a fragment and
/// not a query, partially-overlapping and later queries hit at fragment
/// granularity where the whole-query `ResultCache` would miss.
///
/// Generations are the invalidation mechanism: every mutator that can
/// change what a leaf's bytes decode to (`Ingest`, `Decay` evictions,
/// `Recover`) bumps the store generation, which *eagerly drops every
/// resident entry* — the cache invariant is that all resident fragments
/// carry the current generation (see DESIGN.md "Shared scans & fragment
/// cache" and the Fsck invariant-catalog discussion). The generation also
/// rides in the key, so a stale reader holding a pre-bump generation can
/// neither hit nor insert against the new store state.
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

  /// The current store generation. Readers capture it once per scan (no
  /// mutator can run during a scan) and pass it to `Lookup`/`Insert`.
  uint64_t generation() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return generation_;
  }

  /// Advances the store generation and drops every resident entry
  /// (invalidate-by-generation; eager, so resident bytes never serve a
  /// superseded store state).
  void BumpGeneration() EXCLUDES(mu_);

  /// Copies the fragment into `*value` and returns true on a hit (which
  /// also front-moves the entry and counts `bytes_decoded_saved`); a
  /// generation mismatch is a miss.
  bool Lookup(Timestamp leaf_epoch, std::string_view fragment,
              uint64_t generation, std::string* value) EXCLUDES(mu_);

  /// Admits one decoded fragment. Silently ignored when `generation` is no
  /// longer current (a scan that raced a mutator must not resurrect stale
  /// bytes) or when the fragment alone exceeds the byte budget. Re-inserting
  /// an existing key refreshes its LRU position without double-counting.
  void Insert(Timestamp leaf_epoch, std::string_view fragment,
              uint64_t generation, std::string value) EXCLUDES(mu_);

  /// Sum of resident fragment bytes for one leaf at `generation` — the SQL
  /// planner's costing probe: decoded bytes the next scan of this leaf will
  /// *not* pay (a cached fragment prices at ~0).
  uint64_t ResidentBytesFor(Timestamp leaf_epoch, uint64_t generation) const
      EXCLUDES(mu_);

  FragmentCacheStats stats() const EXCLUDES(mu_);

  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::string key;
    Timestamp leaf_epoch = 0;
    std::string value;
  };

  static std::string MakeKey(Timestamp leaf_epoch, std::string_view fragment,
                             uint64_t generation);

  /// Drops LRU-tail entries until `need` more bytes fit in the budget.
  void EvictFor(size_t need) REQUIRES(mu_);

  const size_t byte_budget_;
  /// Rank "FragmentCache.mu" (docs/LOCK_ORDER.md): leaf lock over the
  /// LRU/map state below; never held across I/O, decode work or another
  /// SPATE lock.
  mutable Mutex mu_{"FragmentCache.mu"};
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  /// Front = most recently used.
  std::list<Entry> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
  uint64_t resident_bytes_ GUARDED_BY(mu_) = 0;
  /// Resident payload bytes per leaf epoch (the planner probe, O(1)).
  std::unordered_map<Timestamp, uint64_t> epoch_bytes_ GUARDED_BY(mu_);
  FragmentCacheStats stats_ GUARDED_BY(mu_);
};

/// Per-scan view of a `FragmentCache` that the decode helpers thread down
/// to the single per-chunk decode funnel (`DecodeChunk` in
/// core/columnar_leaf.cc and the row-text materialization in
/// core/spate_framework.cc): the cache handle, the leaf/generation to key
/// under, and hit counters the scan folds into its `ScanStats`. A null
/// `cache` (the default everywhere) disables caching with zero behavior
/// change. Not thread-safe — one scope per (worker, leaf).
struct FragmentCacheScope {
  FragmentCache* cache = nullptr;
  Timestamp leaf_epoch = 0;
  uint64_t generation = 0;
  uint64_t hits = 0;
  uint64_t bytes_saved = 0;
};

}  // namespace spate

#endif  // SPATE_CORE_FRAGMENT_CACHE_H_
