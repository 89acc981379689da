#ifndef SPATE_QUERY_RESULT_CACHE_H_
#define SPATE_QUERY_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>

#include "common/mutex.h"
#include "core/framework.h"

namespace spate {

/// LRU cache of exploration results with sub-window/sub-box containment —
/// the paper's UI cache (Section VI-A): SPATE deliberately retrieves a
/// larger period than requested as implicit prefetching, and "when users
/// decide to focus on a smaller window within w, it is ... served directly
/// from the cache of the user interface".
///
/// A cached *exact* result serves any query whose temporal window and
/// bounding box are contained in the cached ones; the cached rows are then
/// re-filtered to the narrower predicate (cheap, in-memory) and, when the
/// incoming query selects attributes, projected to them. Aggregate-only
/// results are served for identical queries only. A cached *projected*
/// result (the cached query itself selected attributes) lacks the predicate
/// columns, so it is served verbatim for identical queries only.
///
/// An exact entry stays true only while its window keeps every row: the
/// owner must not insert a window the store may still add epochs to, and
/// reports each decay horizon through `SetDecayedUntil`, which drops the
/// entries whose window reaches before it.
///
/// Each entry remembers the decompressed bytes its original execution cost
/// (`ScanStats::bytes_decoded`); every hit credits them to
/// `CacheStats::bytes_decoded_saved`, so cache wins and projection wins are
/// observable side by side (`spate_cli` stats prints both).
///
/// Thread-safety: fully thread-safe. The web tier serves many user sessions
/// at once, so the LRU list and hit counters live behind one internal
/// mutex (`GUARDED_BY(mu_)`, proven by the static-analysis CI job); each
/// `Lookup`/`Insert` is atomic with respect to the others; the owner runs
/// the framework between a missed `Lookup` and its `Insert`, under the
/// framework's own contract.
class ResultCache {
 public:
  /// Hit accounting, including the decode work hits avoided: the sum of
  /// `bytes_decoded` recorded at insert time over every hit served.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bytes_decoded_saved = 0;
  };

  explicit ResultCache(size_t capacity = 16) : capacity_(capacity) {}

  /// Returns the narrowed result if some cached entry covers `query`.
  std::optional<QueryResult> Lookup(const ExplorationQuery& query,
                                    const CellDirectory& cells) EXCLUDES(mu_);

  /// Pure peek for the SQL planner's cost model: true when a `Lookup` of
  /// `query` would hit right now. Touches no LRU order and no counters, so
  /// planning a query does not perturb the cache it is costing.
  bool WouldServe(const ExplorationQuery& query) const EXCLUDES(mu_);

  /// Caches `result` for `query` (evicting the least recently used entry).
  /// `bytes_decoded` is what executing the query cost in decompressed bytes
  /// (`ScanStats::bytes_decoded`); hits on this entry credit it to
  /// `stats().bytes_decoded_saved`. A window starting before the decay
  /// horizon is refused: its rows were computed before that decay.
  void Insert(const ExplorationQuery& query, const QueryResult& result,
              uint64_t bytes_decoded = 0) EXCLUDES(mu_);

  /// Raw data before `decayed_until` has decayed
  /// (`TemporalIndex::decayed_until`): drops every entry whose window
  /// starts before it, and refuses such inserts from now on. The horizon
  /// only moves forward.
  void SetDecayedUntil(Timestamp decayed_until) EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    entries_.clear();
    hits_ = misses_ = 0;
    bytes_decoded_saved_ = 0;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return entries_.size();
  }
  uint64_t hits() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return hits_;
  }
  uint64_t misses() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return misses_;
  }
  CacheStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return CacheStats{hits_, misses_, bytes_decoded_saved_};
  }

 private:
  struct Entry {
    ExplorationQuery query;
    QueryResult result;
    /// Decompressed bytes the original execution cost (0 if unknown).
    uint64_t bytes_decoded = 0;
  };

  /// True if `outer` (an entry's query) covers `inner`.
  static bool Covers(const ExplorationQuery& outer,
                     const ExplorationQuery& inner);

  size_t capacity_;
  /// Rank "ResultCache.mu" (docs/LOCK_ORDER.md): the web tier's outermost
  /// lock. Today's code never holds it across a framework call, but the
  /// manifest reserves cache-above-storage so a future write-through path
  /// cannot invert it.
  mutable Mutex mu_ ACQUIRED_BEFORE("ThreadPool.mu", "Dfs.mu")
      {"ResultCache.mu"};
  std::list<Entry> entries_ GUARDED_BY(mu_);  // front = most recently used
  /// The decay horizon last reported through `SetDecayedUntil`.
  Timestamp decayed_until_ GUARDED_BY(mu_) = INT64_MIN;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_decoded_saved_ GUARDED_BY(mu_) = 0;
};

}  // namespace spate

#endif  // SPATE_QUERY_RESULT_CACHE_H_
