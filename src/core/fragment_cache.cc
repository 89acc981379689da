#include "core/fragment_cache.h"

#include <utility>

namespace spate {

std::string FragmentCache::MakeKey(Timestamp leaf_epoch,
                                   std::string_view fragment) {
  std::string key = std::to_string(leaf_epoch);
  key.push_back('\x1f');
  key.append(fragment.data(), fragment.size());
  return key;
}

void FragmentCache::DropLeaf(Timestamp leaf_epoch) {
  MutexLock lock(&mu_);
  const auto eb = epoch_bytes_.find(leaf_epoch);
  if (eb == epoch_bytes_.end()) return;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->leaf_epoch != leaf_epoch) {
      ++it;
      continue;
    }
    resident_bytes_ -= it->value.size();
    index_.erase(it->key);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
  epoch_bytes_.erase(eb);
}

bool FragmentCache::Lookup(Timestamp leaf_epoch, std::string_view fragment,
                           std::string* value) {
  MutexLock lock(&mu_);
  const auto it = index_.find(MakeKey(leaf_epoch, fragment));
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *value = it->second->value;
  ++stats_.fragment_hits;
  stats_.bytes_decoded_saved += value->size();
  return true;
}

void FragmentCache::Insert(Timestamp leaf_epoch, std::string_view fragment,
                           std::string value) {
  MutexLock lock(&mu_);
  if (value.empty() || value.size() > byte_budget_) return;
  std::string key = MakeKey(leaf_epoch, fragment);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    resident_bytes_ -= it->second->value.size();
    epoch_bytes_[leaf_epoch] -= it->second->value.size();
    resident_bytes_ += value.size();
    epoch_bytes_[leaf_epoch] += value.size();
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictFor(0);
    return;
  }
  EvictFor(value.size());
  lru_.push_front(Entry{key, leaf_epoch, std::move(value)});
  resident_bytes_ += lru_.front().value.size();
  epoch_bytes_[leaf_epoch] += lru_.front().value.size();
  index_.emplace(std::move(key), lru_.begin());
  ++stats_.insertions;
}

void FragmentCache::EvictFor(size_t need) {
  while (!lru_.empty() && resident_bytes_ + need > byte_budget_) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.value.size();
    const auto eb = epoch_bytes_.find(victim.leaf_epoch);
    eb->second -= victim.value.size();
    if (eb->second == 0) epoch_bytes_.erase(eb);
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

uint64_t FragmentCache::ResidentBytesFor(Timestamp leaf_epoch) const {
  MutexLock lock(&mu_);
  const auto it = epoch_bytes_.find(leaf_epoch);
  return it == epoch_bytes_.end() ? 0 : it->second;
}

FragmentCacheStats FragmentCache::stats() const {
  MutexLock lock(&mu_);
  FragmentCacheStats out = stats_;
  out.resident_bytes = resident_bytes_;
  out.resident_entries = lru_.size();
  return out;
}

}  // namespace spate
