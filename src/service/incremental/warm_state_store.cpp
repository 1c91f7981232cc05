#include "service/incremental/warm_state_store.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "obs/obs.hpp"
#include "support/atomic_file.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/serialize.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

namespace {

/** Same-family disk candidates examined per family scan: the newest
 *  few files cover a decode sweep's live buckets without turning a
 *  cross-process warm start into a directory-sized read. */
constexpr s64 kDiskScanCap = 8;

} // namespace

WarmStateStore::WarmStateStore(std::string directory)
    : directory_(std::move(directory))
{
    // An empty directory string selects the memory-only mode; a
    // non-empty one is the plan-cache directory, which DiskPlanCache
    // has already created and validated.
}

std::string
WarmStateStore::warmPath(const StructuralDigest &digest) const
{
    if (directory_.empty())
        return {};
    return (fs::path(directory_)
            / ("w-" + hexDigest(digest.family) + "-"
               + hexDigest(digest.exact) + ".warm"))
        .string();
}

int
WarmStateStore::matchScore(const StructuralDigest &digest,
                           const StructuralDigest &candidate)
{
    if (candidate.exact == digest.exact)
        return 3;
    int score = 0;
    if (candidate.prefix == digest.prefix)
        ++score;
    if (candidate.suffix == digest.suffix)
        ++score;
    return score;
}

void
WarmStateStore::insertLocked(const StructuralDigest &digest,
                             std::shared_ptr<const CompilerWarmState> state)
{
    std::vector<Entry> &bucket = families_[digest.family];
    // Replace an existing exact entry in place (a recompile of the same
    // structure retains fresher state); otherwise push MRU-first and
    // drop the oldest past capacity.
    for (Entry &entry : bucket) {
        if (entry.digest.exact == digest.exact) {
            entry.digest = digest;
            entry.state = std::move(state);
            return;
        }
    }
    bucket.insert(bucket.begin(), Entry{digest, std::move(state)});
    if (static_cast<s64>(bucket.size()) > kWarmFamilyCapacity)
        bucket.pop_back();
}

std::shared_ptr<const CompilerWarmState>
WarmStateStore::loadFile(const std::string &path,
                         StructuralDigest *digest_out)
{
    std::string data;
    if (!readFileBytes(path, &data))
        return nullptr;
    obs::count(obs::Met::kIncrementalWarmFilesRead);
    std::string_view payload;
    std::string error;
    if (!unwrapEnvelope(kWarmStateTag, data, &payload, &error)) {
        informVerbose("ignoring warm-state file ", path, ": ", error);
        return nullptr;
    }
    try {
        BinaryReader r(payload);
        StructuralDigest digest;
        digest.family = r.readU64();
        digest.exact = r.readU64();
        digest.prefix = r.readU64();
        digest.suffix = r.readU64();
        auto state =
            std::make_shared<CompilerWarmState>(CompilerWarmState::readBinary(r));
        r.expectEnd();
        if (digest_out)
            *digest_out = digest;
        return state;
    } catch (const std::exception &e) {
        informVerbose("ignoring warm-state file ", path, ": ", e.what());
        return nullptr;
    }
}

WarmStateStore::Neighbor
WarmStateStore::findNeighbor(const StructuralDigest &digest)
{
    Neighbor best;
    int best_score = -1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = families_.find(digest.family);
        if (it != families_.end()) {
            for (const Entry &entry : it->second) {
                int score = matchScore(digest, entry.digest);
                if (score > best_score) { // MRU order breaks score ties
                    best_score = score;
                    best.state = entry.state;
                }
                if (best_score == 3)
                    break;
            }
        }
    }
    if (best_score == 3) {
        best.exact = true;
        return best;
    }
    if (directory_.empty())
        return best;

    // Disk: the exact file first (same structure compiled by an earlier
    // process — e.g. its plan artifact was gc'ed but the sidecar
    // survived; a missing file costs one failed open).
    StructuralDigest loaded_digest;
    if (auto state = loadFile(warmPath(digest), &loaded_digest)) {
        if (loaded_digest.family == digest.family
            && loaded_digest.exact == digest.exact) {
            std::lock_guard<std::mutex> lock(mutex_);
            insertLocked(loaded_digest, state);
            return Neighbor{std::move(state), /*exact=*/true};
        }
    }
    // Memory first: once this store holds state of the family, its
    // family members on disk are ones it wrote or already loaded, so
    // the directory scan below is only the cross-process warm start (a
    // fresh process over an old cache directory).
    if (best.state)
        return best;
    const std::string family_prefix = "w-" + hexDigest(digest.family) + "-";
    struct Candidate
    {
        fs::path path;
        fs::file_time_type mtime;
    };
    std::vector<Candidate> candidates;
    std::error_code walk_ec;
    fs::directory_iterator it(directory_, walk_ec);
    for (; !walk_ec && it != fs::directory_iterator();
         it.increment(walk_ec)) {
        std::error_code ec;
        if (!it->is_regular_file(ec) || ec)
            continue;
        std::string name = it->path().filename().string();
        if (!std::string_view(name).starts_with(family_prefix)
            || !std::string_view(name).ends_with(".warm"))
            continue;
        fs::file_time_type mtime = it->last_write_time(ec);
        if (ec)
            continue;
        candidates.push_back(Candidate{it->path(), mtime});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.mtime != b.mtime ? a.mtime > b.mtime
                                            : a.path < b.path;
              });
    if (static_cast<s64>(candidates.size()) > kDiskScanCap)
        candidates.resize(static_cast<std::size_t>(kDiskScanCap));
    for (const Candidate &candidate : candidates) {
        StructuralDigest candidate_digest;
        auto state = loadFile(candidate.path.string(), &candidate_digest);
        if (!state || candidate_digest.family != digest.family)
            continue;
        int score = matchScore(digest, candidate_digest);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            insertLocked(candidate_digest, state);
        }
        if (score > best_score) {
            best_score = score;
            best.state = std::move(state);
            best.exact = score == 3;
            if (best.exact)
                break;
        }
    }
    return best;
}

void
WarmStateStore::put(const StructuralDigest &digest,
                    std::shared_ptr<const CompilerWarmState> state)
{
    if (!state || state->empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(digest, state);
    }
    if (directory_.empty())
        return;
    BinaryWriter payload;
    payload.writeU64(digest.family)
        .writeU64(digest.exact)
        .writeU64(digest.prefix)
        .writeU64(digest.suffix);
    state->writeBinary(payload);
    // Same tmp-file + atomic-rename publication as plan artifacts; a
    // failed publish drops the sidecar, the store stays memory-warm.
    publishFileAtomically(warmPath(digest),
                          wrapEnvelope(kWarmStateTag, payload.bytes()));
}

} // namespace cmswitch
