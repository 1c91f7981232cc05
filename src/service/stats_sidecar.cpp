#include "service/stats_sidecar.hpp"

#include <filesystem>
#include <utility>

#include "support/atomic_file.hpp"
#include "support/logging.hpp"
#include "support/serialize.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

namespace {

/** Each legacy tag and how many leading kDiskStatFields rows it holds. */
constexpr std::pair<std::string_view, std::size_t> kLegacyLayouts[] = {
    {kStatsSidecarTagV3, 8},
    {kStatsSidecarTagV2, 5},
    {kStatsSidecarTagV1, 4},
};

/** Smallest v4 pair: an empty name's u64 length plus the s64 value. */
constexpr std::size_t kMinPairBytes = 16;

void
decodeV4(std::string_view payload, SidecarCounters *counters)
{
    BinaryReader r(payload);
    s64 pairs = r.readBounded(static_cast<s64>(r.remaining() / kMinPairBytes),
                              "sidecar counter count");
    for (s64 i = 0; i < pairs; ++i) {
        std::string name = r.readString();
        s64 value = r.readS64();
        if (!counters->empty() && name <= counters->rbegin()->first)
            throw SerializeError("sidecar counter names out of order");
        counters->emplace_hint(counters->end(), std::move(name), value);
    }
    r.expectEnd();
}

DiskPlanCacheStats
statsFromCounters(const SidecarCounters &counters)
{
    DiskPlanCacheStats stats;
    for (const DiskStatField &row : kDiskStatFields)
        if (auto it = counters.find(row.name); it != counters.end())
            stats.*row.member = it->second;
    return stats;
}

/** Read and decode the sidecar; false (and no counters) when it is
 *  missing or damaged. */
bool
readSidecarCounters(const std::string &directory, SidecarCounters *counters)
{
    std::string data;
    if (!readFileBytes(statsSidecarPath(directory), &data))
        return false;
    std::string error;
    if (decodeStatsSidecar(data, counters, &error))
        return true;
    informVerbose("ignoring damaged stats sidecar in ", directory, ": ",
                  error);
    return false;
}

} // namespace

std::string
statsSidecarPath(const std::string &directory)
{
    return (fs::path(directory) / std::string(kStatsSidecarName)).string();
}

bool
decodeStatsSidecar(std::string_view image, SidecarCounters *counters,
                   std::string *error)
{
    counters->clear();
    std::string_view payload;
    try {
        if (unwrapEnvelope(kStatsSidecarTag, image, &payload, error)) {
            decodeV4(payload, counters);
            return true;
        }
        for (auto [tag, rows] : kLegacyLayouts) {
            if (!unwrapEnvelope(tag, image, &payload, error))
                continue;
            BinaryReader r(payload);
            for (std::size_t i = 0; i < rows; ++i)
                (*counters)[std::string(kDiskStatFields[i].name)] =
                    r.readS64();
            r.expectEnd();
            return true;
        }
    } catch (const SerializeError &e) {
        if (error)
            *error = e.what();
    }
    counters->clear();
    return false;
}

std::string
encodeStatsSidecar(const SidecarCounters &counters)
{
    BinaryWriter payload;
    payload.writeS64(static_cast<s64>(counters.size()));
    for (const auto &[name, value] : counters)
        payload.writeString(name).writeS64(value);
    return wrapEnvelope(kStatsSidecarTag, payload.bytes());
}

DiskPlanCacheStats
readStatsSidecar(const std::string &directory, bool *present)
{
    SidecarCounters counters;
    bool ok = readSidecarCounters(directory, &counters);
    if (present)
        *present = ok;
    return statsFromCounters(counters);
}

DiskPlanCacheStats
mergeStatsSidecar(const std::string &directory,
                  const DiskPlanCacheStats &delta)
{
    SidecarCounters counters;
    readSidecarCounters(directory, &counters);
    for (const DiskStatField &row : kDiskStatFields) {
        // Unsigned add: a hostile total wraps instead of overflowing.
        s64 &total = counters[std::string(row.name)];
        total = static_cast<s64>(static_cast<u64>(total)
                                 + static_cast<u64>(delta.*row.member));
    }

    // Same temp-file + atomic-rename publication as plan artifacts
    // (support/atomic_file.hpp); a failed flush is dropped, not fatal.
    publishFileAtomically(statsSidecarPath(directory),
                          encodeStatsSidecar(counters));
    return statsFromCounters(counters);
}

} // namespace cmswitch
