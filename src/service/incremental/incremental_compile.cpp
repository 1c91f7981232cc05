#include "service/incremental/incremental_compile.hpp"

#include "obs/obs.hpp"
#include "service/disk_plan_cache.hpp"

namespace cmswitch {

ArtifactPtr
compileArtifactIncremental(const CompileRequest &request, std::string key,
                           WarmStateStore &store, DiskPlanCache *disk,
                           NeighborOutcome *outcomeOut)
{
    StructuralDigest digest = requestStructuralDigest(request);
    WarmStateStore::Neighbor neighbor;
    {
        obs::Span span("incremental.neighbor_lookup", "service");
        neighbor = store.findNeighbor(digest);
    }

    WarmCompileContext warm;
    warm.neighbor = neighbor.state;
    ArtifactPtr artifact = compileArtifact(request, std::move(key), &warm);

    // Classify after the compile: a found neighbor only counts as a hit
    // when its state did real work for this request.
    NeighborOutcome outcome;
    if (!neighbor.state)
        outcome = NeighborOutcome::kMiss;
    else if (warm.stats.reuseScore() > 0)
        outcome = NeighborOutcome::kHit;
    else
        outcome = NeighborOutcome::kPartial;
    if (warm.stats.dpRowsReused > 0)
        obs::count(obs::Met::kIncrementalDpRowsReused,
                   warm.stats.dpRowsReused);
    if (warm.stats.sigImports > 0)
        obs::count(obs::Met::kIncrementalSigImports, warm.stats.sigImports);
    if (disk)
        disk->recordNeighbor(outcome);
    if (outcomeOut)
        *outcomeOut = outcome;

    // Retain this compile's own state (null for compilers that do not
    // implement warm compilation, e.g. reference-search builds).
    if (warm.retained && !warm.retained->empty())
        store.put(digest, std::move(warm.retained));
    return artifact;
}

} // namespace cmswitch
