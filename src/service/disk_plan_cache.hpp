/**
 * @file
 * Persistent, cross-process plan cache: one `<requestKey>.plan` file
 * per compiled artifact in a user-chosen directory, in the versioned
 * cmswitch-plan-v1 format (service/artifact_io.hpp).
 *
 * Sits *under* the in-memory PlanCache: the compile service looks up
 * memory -> disk -> neighbor -> cold, so separate `cmswitchc` runs,
 * batch jobs and CI stages share plans through the filesystem.
 *
 * Concurrency model: many processes may read and write one cache
 * directory at once. Writes go to a process-unique temporary file and
 * are published with an atomic rename, so a reader never observes a
 * torn artifact — it sees either the old file, the new file, or no
 * file. Losing a store() race is harmless: racing writers of one key
 * publish *equivalent* plans (same request, same schedule, identical
 * JSON report) though not byte-identical files — the serialized
 * artifact embeds the wall-clock compileSeconds of whichever compile
 * produced it. Do not build file-digest dedup or plan-file equality
 * checks on top of this; compare reports, not plan files.
 *
 * Robustness: artifacts whose format tag, length, digest, payload, or
 * embedded request key do not check out are treated as misses (counted
 * as `rejected`) and the request recompiles — a stale or corrupt cache
 * can cost time, never correctness.
 */

#ifndef CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP
#define CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP

#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "service/plan_cache.hpp"

namespace cmswitch {

class JsonWriter;

/** How an incremental compile's neighbor lookup resolved (see
 *  service/incremental/incremental_compile.hpp for the semantics). */
enum class NeighborOutcome {
    kHit,     ///< neighbor found and its warm state did real work
    kPartial, ///< neighbor found but nothing was reusable
    kMiss,    ///< no retained state in the request's family
};

/** Monotonic counters; snapshot via DiskPlanCache::stats(). Every
 *  field has one row in kDiskStatFields below, and every report, the
 *  stats sidecar and the obs mirror render from that table. */
struct DiskPlanCacheStats
{
    s64 hits = 0;     ///< artifacts served from disk
    s64 misses = 0;   ///< keys with no plan file
    s64 stores = 0;   ///< artifacts written (and published) to disk
    s64 rejected = 0; ///< corrupt / truncated / wrong-version / wrong-key
                      ///< files ignored (each also counts as a miss)
    s64 touchFailed = 0; ///< hits whose LRU mtime refresh failed (e.g. a
                         ///< read-only cache dir); the hit still serves
    /** @{ Incremental-compilation neighbor lookups (recordNeighbor). */
    s64 neighborHits = 0;
    s64 neighborPartials = 0;
    s64 neighborMisses = 0;
    /** @} */

    bool operator==(const DiskPlanCacheStats &) const = default;

    /** Emit one `<prefix><name>` field per kDiskStatFields row into
     *  the currently open object. */
    void writeJsonFields(JsonWriter &w, std::string_view prefix) const;
};

/** One disk-tier counter: its snake_case name (the JSON key stem and
 *  the sidecar name), its DiskPlanCacheStats field, and the obs
 *  counter that mirrors it in-process. */
struct DiskStatField
{
    std::string_view name;
    s64 DiskPlanCacheStats::*member;
    obs::Met mirror;
};

/**
 * Every disk-tier counter, in report order. The legacy positional
 * sidecars (v1/v2/v3) hold a leading run of these rows, so new rows go
 * at the end. Adding a counter is one field above, one row here and
 * one line in docs/schemas.md.
 */
inline constexpr DiskStatField kDiskStatFields[] = {
    {"hits", &DiskPlanCacheStats::hits, obs::Met::kDiskCacheHits},
    {"misses", &DiskPlanCacheStats::misses, obs::Met::kDiskCacheMisses},
    {"stores", &DiskPlanCacheStats::stores, obs::Met::kDiskCacheStores},
    {"rejected", &DiskPlanCacheStats::rejected,
     obs::Met::kDiskCacheRejected},
    {"touch_failed", &DiskPlanCacheStats::touchFailed,
     obs::Met::kDiskCacheTouchFailed},
    {"neighbor_hits", &DiskPlanCacheStats::neighborHits,
     obs::Met::kIncrementalNeighborHits},
    {"neighbor_partials", &DiskPlanCacheStats::neighborPartials,
     obs::Met::kIncrementalNeighborPartials},
    {"neighbor_misses", &DiskPlanCacheStats::neighborMisses,
     obs::Met::kIncrementalNeighborMisses},
};

class DiskPlanCache
{
  public:
    /** Creates @p directory (and parents) if missing; fatals when that
     *  fails or the path exists and is not a directory (user error). */
    explicit DiskPlanCache(std::string directory);

    /** Flushes unreported stats into the cross-process sidecar. */
    ~DiskPlanCache();

    /**
     * Load the artifact for @p key, or nullptr when no usable plan file
     * exists. Unreadable/invalid files are rejected silently (the
     * caller recompiles); rejection reasons are logged at verbose level
     * only.
     */
    ArtifactPtr load(const std::string &key);

    /**
     * Serialise @p artifact and publish it under @p key via a
     * temp-file + atomic-rename pair. I/O failures warn and drop the
     * store (the cache is an accelerator, not a durability contract).
     */
    void store(const std::string &key, const ArtifactPtr &artifact);

    /**
     * Count one incremental-compilation neighbor lookup against this
     * cache directory's stats (and, through the sidecar, its lifetime
     * totals) and its obs mirror. Called by the neighbor compile path
     * for requests that missed both the memory and disk caches.
     */
    void recordNeighbor(NeighborOutcome outcome);

    /** Absolute or user-relative plan file path for @p key. */
    std::string planPath(const std::string &key) const;

    DiskPlanCacheStats stats() const;

    /**
     * Merge the stats accumulated since the last flush into the
     * cross-process sidecar file (service/stats_sidecar.hpp) and return
     * the merged lifetime totals. Idempotent — a second flush with no
     * new activity adds nothing. Runs automatically on destruction, so
     * short-lived processes still contribute their counters.
     */
    DiskPlanCacheStats flushSidecar();

  private:
    /** Count one event: bump @p field and its kDiskStatFields obs
     *  mirror together. */
    void count(s64 DiskPlanCacheStats::*field);

    std::string directory_;

    mutable std::mutex mutex_; ///< guards stats_/flushed_; I/O unlocked
    DiskPlanCacheStats stats_;
    DiskPlanCacheStats flushed_; ///< snapshot already merged to sidecar
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP
