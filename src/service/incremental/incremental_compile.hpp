/**
 * @file
 * The incremental compile path: compileArtifact() routed through the
 * warm-state store.
 *
 * This is the third step of the service lookup chain
 * (memory -> disk -> *neighbor* -> cold): when both caches miss, the
 * request's structural digest selects the best retained neighbor state
 * and the compiler warm-starts from it — importing segmenter DP rows,
 * positional allocations and bisection brackets, and
 * re-searching only the changed window. The compile's own search state
 * is retained back into the store for the next neighbor.
 *
 * Invariant (pinned by tests/incremental_diff_test.cpp and the
 * IncrementalDiffFuzz battery): the returned artifact's CompileResult
 * is byte-identical to a cold compileArtifact() of the same request —
 * warm state accelerates the search, it never changes the plan.
 *
 * Every call classifies its neighbor lookup for observability:
 *   hit     — a neighbor was found and its state did real work
 *             (WarmReuseStats::reuseScore() > 0);
 *   partial — a neighbor was found but nothing could be reused
 *             (structures diverged beyond the differ's alignment);
 *   miss    — the family has no retained state.
 * When @p disk is given, DiskPlanCache::recordNeighbor counts the
 * outcome in its stats (and from there the cross-process sidecar) and
 * in the matching obs:: `incremental.neighbor_*` counter.
 */

#ifndef CMSWITCH_SERVICE_INCREMENTAL_INCREMENTAL_COMPILE_HPP
#define CMSWITCH_SERVICE_INCREMENTAL_INCREMENTAL_COMPILE_HPP

#include "service/compile_service.hpp"
#include "service/incremental/warm_state_store.hpp"

namespace cmswitch {

/**
 * Compile @p request warm-started from the best neighbor in @p store,
 * retaining this compile's state for future neighbors. @p disk (may be
 * null) receives the neighbor hit/partial/miss classification;
 * @p outcome (may be null) receives the same classification so callers
 * (the serve daemon's per-request cache-outcome field) can report it
 * without diffing stats snapshots.
 */
ArtifactPtr compileArtifactIncremental(const CompileRequest &request,
                                       std::string key,
                                       WarmStateStore &store,
                                       DiskPlanCache *disk,
                                       NeighborOutcome *outcomeOut = nullptr);

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_INCREMENTAL_INCREMENTAL_COMPILE_HPP
