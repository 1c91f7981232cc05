#include "service/disk_plan_cache.hpp"

#include <filesystem>
#include <system_error>

#include "obs/obs.hpp"
#include "service/artifact_io.hpp"
#include "service/stats_sidecar.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

void
DiskPlanCacheStats::writeJsonFields(JsonWriter &w,
                                    std::string_view prefix) const
{
    for (const DiskStatField &row : kDiskStatFields)
        w.field(concat(prefix, row.name), this->*row.member);
}

DiskPlanCache::DiskPlanCache(std::string directory)
    : directory_(std::move(directory))
{
    cmswitch_fatal_if(directory_.empty(),
                      "plan cache directory must not be empty");
    std::error_code ec;
    fs::create_directories(directory_, ec);
    cmswitch_fatal_if(ec, "cannot create plan cache directory ",
                      directory_, ": ", ec.message());
    cmswitch_fatal_if(!fs::is_directory(directory_),
                      "plan cache path ", directory_,
                      " exists and is not a directory");
}

DiskPlanCache::~DiskPlanCache()
{
    bool dirty;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dirty = stats_ != flushed_;
    }
    // Nothing new since the last flush (e.g. batch mode flushed for its
    // summary moments ago): skip the sidecar I/O entirely.
    if (dirty)
        flushSidecar();
}

std::string
DiskPlanCache::planPath(const std::string &key) const
{
    return (fs::path(directory_) / (key + ".plan")).string();
}

ArtifactPtr
DiskPlanCache::load(const std::string &key)
{
    obs::Span span("disk_cache.load", "cache");
    std::string path = planPath(key);
    std::string error;
    bool missing = false;
    ArtifactPtr artifact = readPlanFile(path, key, &error, &missing);
    if (missing) { // absent: a plain miss, not a rejection
        count(&DiskPlanCacheStats::misses);
        return nullptr;
    }
    if (!artifact) {
        informVerbose("ignoring plan file ", path, ": ", error);
        count(&DiskPlanCacheStats::misses);
        count(&DiskPlanCacheStats::rejected);
        return nullptr;
    }
    // Refresh the plan file's mtime so `cmswitchc cache gc` (LRU by
    // mtime) treats reads as uses, not just writes. Best effort: a
    // read-only cache directory still serves hits; the failure is
    // counted (touchFailed) so operators can see GC's LRU order is
    // running on stale read times.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    count(&DiskPlanCacheStats::hits);
    if (ec) {
        informVerbose("plan cache hit ", path,
                      " but mtime refresh failed: ", ec.message());
        count(&DiskPlanCacheStats::touchFailed);
    }
    return artifact;
}

void
DiskPlanCache::store(const std::string &key, const ArtifactPtr &artifact)
{
    cmswitch_assert(artifact != nullptr, "cannot store a null artifact");
    cmswitch_assert(artifact->key == key,
                    "artifact key does not match store key");
    obs::Span span("disk_cache.store", "cache");
    std::string image = serializeCompileArtifact(*artifact);

    // Temp-file + atomic-rename publication (support/atomic_file.hpp):
    // concurrent readers see the old plan, the new plan, or nothing —
    // never a torn file. A failed publication is a dropped store, not
    // an error — the cache is an accelerator, not a durability
    // contract.
    if (publishFileAtomically(planPath(key), image))
        count(&DiskPlanCacheStats::stores);
}

void
DiskPlanCache::recordNeighbor(NeighborOutcome outcome)
{
    switch (outcome) {
    case NeighborOutcome::kHit:
        count(&DiskPlanCacheStats::neighborHits);
        break;
    case NeighborOutcome::kPartial:
        count(&DiskPlanCacheStats::neighborPartials);
        break;
    case NeighborOutcome::kMiss:
        count(&DiskPlanCacheStats::neighborMisses);
        break;
    }
}

void
DiskPlanCache::count(s64 DiskPlanCacheStats::*field)
{
    for (const DiskStatField &row : kDiskStatFields)
        if (row.member == field)
            obs::count(row.mirror);
    std::lock_guard<std::mutex> lock(mutex_);
    ++(stats_.*field);
}

DiskPlanCacheStats
DiskPlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

DiskPlanCacheStats
DiskPlanCache::flushSidecar()
{
    DiskPlanCacheStats delta;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const DiskStatField &row : kDiskStatFields)
            delta.*row.member = stats_.*row.member - flushed_.*row.member;
        flushed_ = stats_;
    }
    if (delta == DiskPlanCacheStats{})
        return readStatsSidecar(directory_);
    return mergeStatsSidecar(directory_, delta);
}

} // namespace cmswitch
