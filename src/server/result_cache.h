// Sharded LRU cache of query results, sitting between the protocol layer
// and the ConcurrentEngine: repeated (src, dst, kind) requests — the shape
// of real road-network traffic, where popular origin/destination pairs
// recur heavily — are answered without touching the index at all.
//
// Keys are (src, dst, kind, backend); every entry additionally carries the
// *generation* of the index epoch it was computed on plus an optional TTL
// expiry. A lookup passes the backend's current generation: an entry from a
// retired generation is dropped on sight and counted as an invalidation, so
// an epoch swap implicitly invalidates exactly the stale backend's entries
// — no global flush, and entries of other backends (or the fresh
// generation) keep serving hits. Clear() remains as the operator-facing
// `inv` verb (counted separately as a clear).
//
// The key space is split across N shards, each an independently locked LRU
// list + hash map, so concurrent connections rarely contend on the same
// mutex. Capacity is a global entry budget split evenly across shards.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"
#include "util/types.h"

namespace ah::server {

/// Which answer a cache entry holds. Distance and path answers for the same
/// (s, t) are distinct entries — a path reply cannot be served from a
/// distance-only entry.
enum class CachedKind : std::uint8_t { kDistance = 0, kPath = 1 };

struct CacheKey {
  NodeId s = 0;
  NodeId t = 0;
  CachedKind kind = CachedKind::kDistance;
  /// Registry backend id (0 for single-backend deployments).
  std::uint32_t backend = 0;

  bool operator==(const CacheKey&) const = default;
};

/// A cached answer: `dist` always (kInfDist = unreachable); `nodes` only
/// for kPath entries (empty when unreachable).
struct CachedResult {
  Dist dist = kInfDist;
  std::vector<NodeId> nodes;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  ///< Stale-generation entries dropped.
  std::uint64_t expirations = 0;    ///< TTL-expired entries dropped.
  std::uint64_t clears = 0;         ///< Clear() calls (the `inv` verb).

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ResultCache {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capacity` is the total entry budget (0 disables the cache: every
  /// Lookup misses, Insert is a no-op). `shards` is rounded up to the next
  /// power of two (at least 1); each shard gets ceil(capacity / shards)
  /// entries. `ttl` bounds every
  /// entry's lifetime (0 = entries never expire) — the freshness backstop
  /// for deployments that take weight updates without reloading promptly.
  explicit ResultCache(std::size_t capacity, std::size_t shards = 16,
                       std::chrono::milliseconds ttl = {});

  bool Enabled() const { return per_shard_capacity_ > 0; }
  std::size_t NumShards() const { return shards_.size(); }
  std::chrono::milliseconds Ttl() const { return ttl_; }

  /// On hit (entry tagged with exactly `generation` — the generation of the
  /// epoch the caller leased), copies the entry into *out, promotes it to
  /// most-recently-used, and returns true. An entry tagged with an *older*
  /// generation is erased (counted as an invalidation) and reported as a
  /// miss, as is a TTL-expired entry (counted as an expiration); an entry
  /// tagged *newer* — a reader still leased to a retired epoch — is a plain
  /// miss and the fresh entry is left untouched. Thread-safe.
  bool Lookup(const CacheKey& key, std::uint64_t generation,
              CachedResult* out);

  /// Bulk Lookup for batch requests: probes every key with the same
  /// semantics as Lookup, but groups the keys by shard and locks each
  /// shard once per call instead of once per key — on a warm batch the
  /// per-key mutex round trip is the dominant cost. On hit, hits[i] is set
  /// and out[i] filled; misses leave out[i] untouched. Returns the hit
  /// count. The vectors must all have keys.size() elements. Thread-safe.
  std::size_t LookupMany(const std::vector<CacheKey>& keys,
                         std::uint64_t generation,
                         std::vector<CachedResult>* out,
                         std::vector<char>* hits);

  /// Inserts or refreshes an entry tagged with `generation`
  /// (most-recently-used position), evicting the shard's least-recently-
  /// used entry when over budget. A refresh never downgrades: if the
  /// existing entry carries a newer generation, the insert is dropped.
  /// Thread-safe.
  void Insert(const CacheKey& key, std::uint64_t generation,
              CachedResult value);

  /// Operator-facing full invalidation (the `inv` verb): drops every entry
  /// of every backend. Hit/miss counters persist; the clear counter
  /// increments. Epoch swaps do NOT call this — generation tags already
  /// retire stale entries per backend. Thread-safe.
  void Clear();

  /// Entries currently cached (sums shard sizes; approximate under
  /// concurrent mutation, and stale/expired entries linger until looked up
  /// or evicted). Thread-safe.
  std::size_t Size() const;

  /// Aggregated counters across all shards. Thread-safe.
  CacheStats Totals() const;

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // SplitMix64 finalizer over the packed key.
      std::uint64_t z = (static_cast<std::uint64_t>(k.s) << 32) | k.t;
      z ^= static_cast<std::uint64_t>(k.kind) << 1;
      z ^= static_cast<std::uint64_t>(k.backend) * 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  struct Entry {
    CacheKey key;
    CachedResult value;
    std::uint64_t generation = 0;
    Clock::time_point expiry = Clock::time_point::max();
  };

  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru AH_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index
        AH_GUARDED_BY(mu);
    CacheStats stats AH_GUARDED_BY(mu);
  };

  /// The Lookup hit/miss/invalidate logic with the shard lock already
  /// held; shared by Lookup and LookupMany.
  bool LookupInShard(Shard& shard, const CacheKey& key,
                     std::uint64_t generation, CachedResult* out)
      AH_REQUIRES(shard.mu);

  Shard& ShardFor(const CacheKey& key) {
    // shards_.size() is a power of two (see the constructor), so this is a
    // mask rather than a division.
    return *shards_[KeyHash{}(key) & (shards_.size() - 1)];
  }

  Clock::time_point ExpiryFromNow() const {
    return ttl_.count() == 0 ? Clock::time_point::max() : Clock::now() + ttl_;
  }

  std::size_t per_shard_capacity_ = 0;
  std::chrono::milliseconds ttl_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ah::server
