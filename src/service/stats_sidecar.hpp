/**
 * @file
 * Cross-process stats sidecar for the persistent plan cache.
 *
 * DiskPlanCache's counters are per-process; a fleet of cmswitchc runs
 * sharing one --cache-dir needs *lifetime* totals to judge cache
 * efficacy. Each DiskPlanCache merges its unflushed counter deltas into
 * `<dir>/cache-stats.sidecar` when it is destroyed (or on an explicit
 * flush), using the same tmp-file + atomic-rename publication protocol
 * as plan artifacts: a reader never sees a torn sidecar. The file is a
 * wrapEnvelope() document (`cmswitch-cache-stats-v4` tag + length +
 * FNV-1a digest) over a name -> value counter list: an s64 pair count,
 * then that many (string name, s64 value) pairs in strictly ascending
 * name order. The names are the kDiskStatFields rows; a name this
 * build does not know (written by a newer build) is kept through a
 * merge, so adding a counter needs no new envelope. Readers also accept
 * the positional v3/v2/v1 layouts of older builds, which hold the
 * first 8/5/4 kDiskStatFields rows as bare s64s (absent rows read as
 * zero), so a shared cache directory upgrades in place.
 *
 * Accuracy contract: the read-modify-write merge is not transactional
 * across processes — two processes flushing at the same instant can
 * lose one delta. Totals are observability, not accounting; losing an
 * increment under a rare race is acceptable, serving a torn file is
 * not. A missing or damaged sidecar reads as all-zero and is simply
 * rewritten by the next merge. `cmswitchc cache gc` never deletes the
 * sidecar (it only reaps *.plan artifacts).
 */

#ifndef CMSWITCH_SERVICE_STATS_SIDECAR_HPP
#define CMSWITCH_SERVICE_STATS_SIDECAR_HPP

#include <map>
#include <string>
#include <string_view>

#include "service/disk_plan_cache.hpp"

namespace cmswitch {

/** File name of the stats sidecar inside a cache directory. */
inline constexpr std::string_view kStatsSidecarName = "cache-stats.sidecar";

/** Format tag written by this build (wrapEnvelope document). */
inline constexpr std::string_view kStatsSidecarTag =
    "cmswitch-cache-stats-v4\n";

/** @{ Legacy positional layouts (8, 5 and 4 leading kDiskStatFields
 *  rows); still readable, never written. */
inline constexpr std::string_view kStatsSidecarTagV3 =
    "cmswitch-cache-stats-v3\n";
inline constexpr std::string_view kStatsSidecarTagV2 =
    "cmswitch-cache-stats-v2\n";
inline constexpr std::string_view kStatsSidecarTagV1 =
    "cmswitch-cache-stats-v1\n";
/** @} */

/** Sidecar counters by name, in the v4 file's (sorted) order. */
using SidecarCounters = std::map<std::string, s64, std::less<>>;

/** `<directory>/cache-stats.sidecar`. */
std::string statsSidecarPath(const std::string &directory);

/**
 * Decode a sidecar file image in any supported layout into
 * @p counters. Returns false, with @p counters empty and a one-line
 * reason in @p error (when non-null), for anything damaged: a bad
 * envelope, a truncated or oversized payload, or v4 names that are not
 * strictly ascending. A v4 image that decodes re-encodes to the same
 * bytes.
 */
bool decodeStatsSidecar(std::string_view image, SidecarCounters *counters,
                        std::string *error = nullptr);

/** The v4 file image of @p counters. */
std::string encodeStatsSidecar(const SidecarCounters &counters);

/**
 * Read the sidecar totals. A missing, truncated, or corrupt sidecar
 * yields all-zero totals with @p present (when non-null) set false —
 * stats degrade, they never fail.
 */
DiskPlanCacheStats readStatsSidecar(const std::string &directory,
                                    bool *present = nullptr);

/**
 * Fold @p delta into the sidecar (read current totals, add, publish via
 * tmp + rename) and return the merged totals. Best effort: an I/O
 * failure warns, drops the publication, and still returns the sum.
 */
DiskPlanCacheStats mergeStatsSidecar(const std::string &directory,
                                     const DiskPlanCacheStats &delta);

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_STATS_SIDECAR_HPP
