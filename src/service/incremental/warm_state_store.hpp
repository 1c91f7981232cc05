/**
 * @file
 * Warm-state store: retained plan-search state keyed by structural
 * digest, in memory and (optionally) on disk next to the plan cache.
 *
 * The plan cache answers "have we compiled exactly this request?"; the
 * warm-state store answers the weaker, more valuable serving question
 * "have we compiled a *neighbor* of this request?". A neighbor is any
 * earlier compile in the same structural family (structural_digest.hpp)
 * — typically the adjacent KV bucket of a generative decode sweep, or
 * the same request after its plan artifact was evicted. findNeighbor()
 * prefers an exact structural match (full search-state reuse: the
 * compiler imports every DP row and skips the boundary search) and
 * falls back to the best same-family candidate (delta compile: the
 * differ re-searches only the changed window). Lookups are memory
 * first: the directory is scanned for a family only while memory holds
 * none of it, so a decode sweep reads no `.warm` file after its first
 * bucket.
 *
 * Disk layout: one `w-<familyhex>-<exacthex>.warm` file per retained
 * state in the cache directory, a wrapEnvelope() document (tag +
 * length + FNV-1a digest) over the digest header and
 * CompilerWarmState::writeBinary. Warm files are sidecars of the plan
 * cache: `cmswitchc cache gc/verify/stats` ignore them (they walk
 * `*.plan` only), damaged files read as absent (the compile goes cold —
 * a corrupt sidecar can cost time, never correctness), and publication
 * uses the same tmp-file + atomic-rename protocol as plan artifacts.
 *
 * Thread safety: all members are safe for concurrent use; the mutex
 * guards the in-memory index only, file I/O runs unlocked.
 */

#ifndef CMSWITCH_SERVICE_INCREMENTAL_WARM_STATE_STORE_HPP
#define CMSWITCH_SERVICE_INCREMENTAL_WARM_STATE_STORE_HPP

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "compiler/warm_state.hpp"
#include "service/incremental/structural_digest.hpp"

namespace cmswitch {

/** Envelope tag of `.warm` sidecar files (versioned: readers reject
 *  other tags and the compile falls back to cold). */
inline constexpr std::string_view kWarmStateTag = "cmswitch-warm-state-v2\n";

/** Retained states kept per family in memory: a decode sweep needs its
 *  few most recent KV buckets, not an unbounded history. */
inline constexpr s64 kWarmFamilyCapacity = 4;

class WarmStateStore
{
  public:
    /** @p directory may be empty: the store then lives in memory only
     *  (no cross-process reuse, still reuse within one service). */
    explicit WarmStateStore(std::string directory);

    /** findNeighbor() result: the state plus how it matched. */
    struct Neighbor
    {
        std::shared_ptr<const CompilerWarmState> state;
        bool exact = false; ///< structurally identical (full reuse)
    };

    /**
     * Best retained neighbor for @p digest, or a null state when the
     * family is unseen. Exact structural matches win; same-family
     * candidates are ranked by shared prefix/suffix window digests,
     * then by recency. Order: memory, the exact `.warm` file, then —
     * only when memory holds nothing of the family — the newest
     * same-family files on disk.
     */
    Neighbor findNeighbor(const StructuralDigest &digest);

    /** Retain @p state for future neighbors: insert into the family's
     *  in-memory MRU slots and publish the `.warm` sidecar (best
     *  effort — an I/O failure drops the file, not the process). */
    void put(const StructuralDigest &digest,
             std::shared_ptr<const CompilerWarmState> state);

    /** `<directory>/w-<familyhex>-<exacthex>.warm`, or "" for a
     *  memory-only store. */
    std::string warmPath(const StructuralDigest &digest) const;

  private:
    struct Entry
    {
        StructuralDigest digest;
        std::shared_ptr<const CompilerWarmState> state;
    };

    /** Candidate quality under @p digest: 3 exact, 2 prefix+suffix,
     *  1 one window, 0 family only. */
    static int matchScore(const StructuralDigest &digest,
                          const StructuralDigest &candidate);

    /** Insert into the family bucket, MRU-first, capacity-capped.
     *  Caller holds mutex_. */
    void insertLocked(const StructuralDigest &digest,
                      std::shared_ptr<const CompilerWarmState> state);

    /** Parse + validate one `.warm` file; null on any damage. Counts
     *  `incremental.warm_files_read` for every file it reads. */
    std::shared_ptr<const CompilerWarmState>
    loadFile(const std::string &path, StructuralDigest *digest_out);

    std::string directory_;

    std::mutex mutex_; ///< guards families_ only
    std::unordered_map<u64, std::vector<Entry>> families_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_INCREMENTAL_WARM_STATE_STORE_HPP
