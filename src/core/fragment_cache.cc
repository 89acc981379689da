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
                           std::string* value, bool claim) {
  const std::string key = MakeKey(leaf_epoch, fragment);
  MutexLock lock(&mu_);
  for (;;) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      *value = it->second->value;
      ++stats_.fragment_hits;
      stats_.bytes_decoded_saved += value->size();
      return true;
    }
    if (!claim || claims_.insert(key).second) break;
    // Another reader is decoding this fragment: wait for its Insert or
    // Release, then look again. The wait spans one fragment decode.
    claim_released_.Wait(&mu_);
  }
  ++stats_.misses;
  return false;
}

void FragmentCache::Insert(Timestamp leaf_epoch, std::string_view fragment,
                           std::string value) {
  std::string key = MakeKey(leaf_epoch, fragment);
  MutexLock lock(&mu_);
  ReleaseClaimLocked(key);
  if (value.empty() || value.size() > byte_budget_) return;
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

void FragmentCache::Release(Timestamp leaf_epoch, std::string_view fragment) {
  const std::string key = MakeKey(leaf_epoch, fragment);
  MutexLock lock(&mu_);
  ReleaseClaimLocked(key);
}

void FragmentCache::ReleaseClaimLocked(const std::string& key) {
  if (claims_.erase(key) != 0) claim_released_.NotifyAll();
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

bool FragmentCacheScope::Lookup(std::string_view fragment,
                                std::string* value) {
  if (cache_ == nullptr) return false;
  // One claim at a time: a scope never waits while it holds a claim.
  Release();
  if (cache_->Lookup(leaf_epoch_, fragment, value, claim_)) {
    ++hits_;
    bytes_saved_ += value->size();
    return true;
  }
  if (claim_) claimed_.assign(fragment);
  return false;
}

void FragmentCacheScope::Insert(std::string_view fragment, std::string value) {
  if (cache_ == nullptr) return;
  if (claimed_ == fragment) claimed_.clear();
  cache_->Insert(leaf_epoch_, fragment, std::move(value));
}

void FragmentCacheScope::Release() {
  if (claimed_.empty()) return;
  cache_->Release(leaf_epoch_, claimed_);
  claimed_.clear();
}

}  // namespace spate
