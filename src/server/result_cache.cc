#include "server/result_cache.h"

#include <algorithm>
#include <utility>

namespace ah::server {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards,
                         std::chrono::milliseconds ttl)
    : ttl_(ttl) {
  // Rounded up to a power of two so the per-lookup shard pick is a mask,
  // not an integer division — ShardFor sits on the cache-hit hot path.
  std::size_t shard_count = 1;
  while (shard_count < std::max<std::size_t>(1, shards)) shard_count <<= 1;
  per_shard_capacity_ =
      capacity == 0 ? 0 : (capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ResultCache::Lookup(const CacheKey& key, std::uint64_t generation,
                         CachedResult* out) {
  if (!Enabled()) return false;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  return LookupInShard(shard, key, generation, out);
}

std::size_t ResultCache::LookupMany(const std::vector<CacheKey>& keys,
                                    std::uint64_t generation,
                                    std::vector<CachedResult>* out,
                                    std::vector<char>* hits) {
  if (!Enabled()) return 0;
  // Group key positions by shard with a counting sort — three linear passes
  // and two flat allocations, instead of a vector-of-vectors whose inner
  // reallocations would dominate a warm batch.
  const std::size_t mask = shards_.size() - 1;
  std::vector<std::uint32_t> shard_of(keys.size());
  std::vector<std::uint32_t> bounds(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    shard_of[i] = static_cast<std::uint32_t>(KeyHash{}(keys[i]) & mask);
    ++bounds[shard_of[i] + 1];
  }
  for (std::size_t s = 1; s <= mask; ++s) bounds[s + 1] += bounds[s];
  std::vector<std::uint32_t> order(keys.size());
  {
    std::vector<std::uint32_t> next(bounds.begin(), bounds.end() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      order[next[shard_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  std::size_t hit_count = 0;
  for (std::size_t s = 0; s <= mask; ++s) {
    if (bounds[s] == bounds[s + 1]) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (std::uint32_t p = bounds[s]; p < bounds[s + 1]; ++p) {
      const std::uint32_t i = order[p];
      if (LookupInShard(shard, keys[i], generation, &(*out)[i])) {
        (*hits)[i] = 1;
        ++hit_count;
      }
    }
  }
  return hit_count;
}

bool ResultCache::LookupInShard(Shard& shard, const CacheKey& key,
                                std::uint64_t generation, CachedResult* out) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return false;
  }
  // Drop-on-sight for entries a swap has retired (entry older than the
  // reader's generation): the entry is erased so it cannot shadow a fresh
  // insert, and the drop is counted so operators can see swap-driven
  // invalidation happening without Clear(). The opposite skew — a reader
  // still leased to a retired epoch finding a *newer* entry — is a plain
  // miss: erasing fresh data on behalf of a stale reader would churn the
  // cache during exactly the reload window it is meant to smooth.
  if (it->second->generation != generation) {
    if (it->second->generation < generation) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      ++shard.stats.invalidations;
    }
    ++shard.stats.misses;
    return false;
  }
  // The clock is only read when a TTL is configured — TTL-free deployments
  // (the default) keep the hit path free of steady_clock calls.
  if (ttl_.count() != 0 && Clock::now() >= it->second->expiry) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.stats.expirations;
    ++shard.stats.misses;
    return false;
  }
  if (it->second != shard.lru.begin()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  ++shard.stats.hits;
  *out = it->second->value;
  return true;
}

void ResultCache::Insert(const CacheKey& key, std::uint64_t generation,
                         CachedResult value) {
  if (!Enabled()) return;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Never downgrade: a writer still leased to a retired epoch must not
    // overwrite an entry a fresher epoch already computed.
    if (generation < it->second->generation) return;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->value = std::move(value);
    it->second->generation = generation;
    it->second->expiry = ExpiryFromNow();
    return;
  }
  shard.lru.push_front(
      Entry{key, std::move(value), generation, ExpiryFromNow()});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.insertions;
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

void ResultCache::Clear() {
  for (const auto& entry : shards_) {
    Shard& shard = *entry;
    MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    ++shard.stats.clears;
  }
}

std::size_t ResultCache::Size() const {
  std::size_t total = 0;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

CacheStats ResultCache::Totals() const {
  CacheStats totals;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    MutexLock lock(shard.mu);
    totals.hits += shard.stats.hits;
    totals.misses += shard.stats.misses;
    totals.insertions += shard.stats.insertions;
    totals.evictions += shard.stats.evictions;
    totals.invalidations += shard.stats.invalidations;
    totals.expirations += shard.stats.expirations;
  }
  // Clear() bumps every shard's clear counter; report calls, not
  // shard-calls.
  const Shard& first = *shards_.front();
  MutexLock lock(first.mu);
  totals.clears = first.stats.clears;
  return totals;
}

}  // namespace ah::server
