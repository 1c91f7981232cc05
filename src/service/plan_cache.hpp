/**
 * @file
 * Content-keyed, in-memory plan cache with single-flight semantics.
 *
 * Keys are canonical content hashes (service/compile_service.hpp
 * computes them from chip + workload + compiler id + options), values
 * are immutable compiled artifacts behind shared_ptr<const>. The cache
 * guarantees that for any key at most ONE compute runs at a time:
 * concurrent requesters of an in-flight key block on the owner's
 * shared_future instead of duplicating minutes of compilation.
 *
 * Eviction is LRU over *completed* entries only, bounded by a capacity
 * in entries; in-flight computations are never evicted. Hit counting
 * treats a join of an in-flight compute as a hit, so as long as
 * nothing is evicted (capacity >= unique keys in play) hit/miss totals
 * are deterministic (misses == unique keys) regardless of thread
 * interleaving — the batch determinism tests rely on this. Once
 * eviction kicks in, a repeated key may recompute and the split
 * becomes load-dependent.
 */

#ifndef CMSWITCH_SERVICE_PLAN_CACHE_HPP
#define CMSWITCH_SERVICE_PLAN_CACHE_HPP

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/common.hpp"

namespace cmswitch {

struct CompileArtifact;
using ArtifactPtr = std::shared_ptr<const CompileArtifact>;

/** Monotonic counters; snapshot via PlanCache::stats(). */
struct PlanCacheStats
{
    s64 hits = 0;      ///< ready-entry hits + in-flight joins
    s64 misses = 0;    ///< computes actually run (== unique keys seen)
    s64 evictions = 0; ///< completed entries dropped by the LRU bound
};

class PlanCache
{
  public:
    /** @p capacity: max *completed* entries kept; must be >= 1. */
    explicit PlanCache(s64 capacity = 256);

    /**
     * Return the artifact for @p key, running @p compute in the calling
     * thread iff no other thread has computed or is computing it.
     * Concurrent callers with the same key block until the owner
     * finishes and then share the same artifact pointer. If @p compute
     * throws, the entry is removed (later calls retry) and every waiter
     * rethrows.
     */
    ArtifactPtr getOrCompute(const std::string &key,
                             const std::function<ArtifactPtr()> &compute);

    /** Completed entries currently resident. */
    s64 size() const;

    PlanCacheStats stats() const;

  private:
    struct Entry
    {
        std::shared_future<ArtifactPtr> future;
        bool ready = false;
        /** Position in lru_ (valid only when ready). */
        std::list<std::string>::iterator lruPos;
    };

    /** Drop least-recently-used completed entries over capacity.
     *  Caller holds mutex_. */
    void evictOverCapacity();

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< completed keys, least recent first
    s64 capacity_;
    PlanCacheStats stats_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_PLAN_CACHE_HPP
