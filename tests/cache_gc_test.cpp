/**
 * @file
 * Unit gate for the cache lifecycle subsystem: gc LRU/byte-budget/age
 * semantics, verify's damage detection, the cross-process stats
 * sidecar, and the build/algorithm fingerprint.
 *
 * gc and stats operate on the *directory*, not on plan contents, so
 * most tests drive them with synthetic `*.plan` files of chosen sizes
 * and mtimes — no compiles, which keeps this suite tier1-fast. verify
 * does parse artifacts; it gets a real (default-constructed) artifact
 * through DiskPlanCache::store, which exercises the same
 * cmswitch-plan-v1 writer as production stores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "service/cache_maintenance.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"
#include "service/plan_fingerprint.hpp"
#include "service/stats_sidecar.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/serialize.hpp"

namespace {

/** @{ Largest single operator-new request while gAllocWatch is set: the
 *  sidecar mutation loop checks that no decode allocates beyond the
 *  bytes it was handed. The replacements stay out of line so GCC does
 *  not pair an inlined free() with the caller's new expression. */
std::atomic<bool> gAllocWatch{false};
std::atomic<std::size_t> gLargestAlloc{0};
/** @} */

} // namespace

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (gAllocWatch.load(std::memory_order_relaxed)
        && size > gLargestAlloc.load(std::memory_order_relaxed))
        gLargestAlloc.store(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cmswitch {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under gtest's temp root, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::path(::testing::TempDir())
                / ("cmswitch_" + tag + "_"
                   + std::to_string(
                         ::testing::UnitTest::GetInstance()->random_seed())
                   + "_"
                   + std::to_string(
                         reinterpret_cast<std::uintptr_t>(this))))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** Write @p bytes of filler to @p name and backdate its mtime. */
void
writeFakePlan(const ScratchDir &dir, const std::string &name, s64 bytes,
              std::chrono::seconds age)
{
    fs::path path = dir.path() / name;
    std::ofstream(path, std::ios::binary)
        << std::string(static_cast<std::size_t>(bytes), 'x');
    fs::last_write_time(path, fs::file_time_type::clock::now() - age);
}

using std::chrono::minutes;
using std::chrono::seconds;

TEST(CacheGc, EvictsOldestMtimeFirstDownToByteBudget)
{
    ScratchDir dir("gc_lru");
    writeFakePlan(dir, "aaaa.plan", 100, minutes(40)); // oldest
    writeFakePlan(dir, "bbbb.plan", 100, minutes(30));
    writeFakePlan(dir, "cccc.plan", 100, minutes(20));
    writeFakePlan(dir, "dddd.plan", 100, minutes(10)); // newest

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 250});

    EXPECT_EQ(report.scannedFiles, 4);
    EXPECT_EQ(report.scannedBytes, 400);
    EXPECT_EQ(report.deletedFiles, 2);
    EXPECT_EQ(report.deletedBytes, 200);
    EXPECT_EQ(report.keptFiles, 2);
    EXPECT_EQ(report.keptBytes, 200);

    // Provably LRU: the two *oldest* went, oldest first.
    ASSERT_EQ(report.deleted.size(), 2u);
    EXPECT_EQ(report.deleted[0].file, "aaaa.plan");
    EXPECT_EQ(report.deleted[1].file, "bbbb.plan");
    EXPECT_EQ(report.deleted[0].reason, "evicted");
    EXPECT_FALSE(fs::exists(dir.path() / "aaaa.plan"));
    EXPECT_FALSE(fs::exists(dir.path() / "bbbb.plan"));
    EXPECT_TRUE(fs::exists(dir.path() / "cccc.plan"));
    EXPECT_TRUE(fs::exists(dir.path() / "dddd.plan"));
}

TEST(CacheGc, MaxAgeExpiresBeforeTheByteBudget)
{
    ScratchDir dir("gc_age");
    writeFakePlan(dir, "old.plan", 100, minutes(120));
    writeFakePlan(dir, "new.plan", 100, seconds(30));

    CacheGcReport report = gcPlanCache(
        {.directory = dir.str(), .maxBytes = -1, .maxAgeSeconds = 3600});

    EXPECT_EQ(report.deletedFiles, 1);
    ASSERT_EQ(report.deleted.size(), 1u);
    EXPECT_EQ(report.deleted[0].file, "old.plan");
    EXPECT_EQ(report.deleted[0].reason, "expired");
    EXPECT_TRUE(fs::exists(dir.path() / "new.plan"));
}

TEST(CacheGc, NoBoundsDeletesNothing)
{
    ScratchDir dir("gc_nobounds");
    writeFakePlan(dir, "aaaa.plan", 100, minutes(40));
    CacheGcReport report = gcPlanCache({.directory = dir.str()});
    EXPECT_EQ(report.deletedFiles, 0);
    EXPECT_EQ(report.keptFiles, 1);
    EXPECT_TRUE(fs::exists(dir.path() / "aaaa.plan"));
}

TEST(CacheGc, NeverDeletesTheStatsSidecar)
{
    ScratchDir dir("gc_sidecar");
    DiskPlanCacheStats delta;
    delta.hits = 7;
    delta.stores = 3;
    mergeStatsSidecar(dir.str(), delta);
    writeFakePlan(dir, "aaaa.plan", 100, minutes(10));
    writeFakePlan(dir, "bbbb.plan", 100, minutes(5));

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 0});

    // Everything *.plan is gone, the sidecar and its totals survive.
    EXPECT_EQ(report.deletedFiles, 2);
    EXPECT_EQ(report.keptFiles, 0);
    EXPECT_TRUE(fs::exists(statsSidecarPath(dir.str())));
    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 7);
    EXPECT_EQ(totals.stores, 3);
}

TEST(CacheGc, ReapsOnlyStaleWriterTempFiles)
{
    ScratchDir dir("gc_temps");
    writeFakePlan(dir, "aaaa.plan.tmp.123.1", 50, minutes(60)); // orphan
    writeFakePlan(dir, "bbbb.plan.tmp.456.2", 50, seconds(1));  // live writer
    writeFakePlan(dir, "cccc.plan", 100, minutes(1));

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 1000});

    EXPECT_EQ(report.staleTempFiles, 1);
    EXPECT_FALSE(fs::exists(dir.path() / "aaaa.plan.tmp.123.1"));
    EXPECT_TRUE(fs::exists(dir.path() / "bbbb.plan.tmp.456.2"));
    // Temp files are not artifacts: they never count against the budget.
    EXPECT_EQ(report.scannedFiles, 1);
    EXPECT_EQ(report.deletedFiles, 0);
}

TEST(CacheVerify, FlagsCorruptionAndKeyMismatchAndOptionallyDeletes)
{
    ScratchDir dir("verify");
    const std::string key(16, '1');
    {
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        DiskPlanCache cache(dir.str());
        cache.store(key, artifact);
    }
    // Damage one copy's bytes and alias another under a foreign key.
    std::ofstream(dir.path() / "deadbeefdeadbeef.plan", std::ios::binary)
        << "cmswitch-plan-v1\nnot really";
    fs::copy_file(dir.path() / (key + ".plan"),
                  dir.path() / (std::string(16, '2') + ".plan"));

    CacheVerifyReport report = verifyPlanCache({.directory = dir.str()});
    EXPECT_EQ(report.scannedFiles, 3);
    EXPECT_EQ(report.validFiles, 1);
    EXPECT_EQ(report.damagedFiles, 2);
    EXPECT_EQ(report.removedFiles, 0);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.damaged.size(), 2u);
    for (const CacheVerifyDamage &damage : report.damaged)
        EXPECT_FALSE(damage.reason.empty());
    // Reporting alone must not delete anything.
    EXPECT_TRUE(fs::exists(dir.path() / "deadbeefdeadbeef.plan"));

    CacheVerifyReport removal =
        verifyPlanCache({.directory = dir.str(), .removeDamaged = true});
    EXPECT_EQ(removal.damagedFiles, 2);
    EXPECT_EQ(removal.removedFiles, 2);
    EXPECT_TRUE(removal.clean());
    EXPECT_FALSE(fs::exists(dir.path() / "deadbeefdeadbeef.plan"));
    EXPECT_FALSE(fs::exists(dir.path() / (std::string(16, '2') + ".plan")));
    EXPECT_TRUE(fs::exists(dir.path() / (key + ".plan")));
}

TEST(DiskCacheTouch, ReadOnlyDirectoryStillServesHits)
{
    // gc's LRU wants every hit to refresh the plan's mtime, but a
    // read-only cache directory (e.g. a shared CI artifact mount) must
    // stay a working cache: the hit serves, whatever happens to the
    // touch. The owner can still update timestamps of its own file, so
    // this pins the serve-anyway behaviour; the privilege-dropping test
    // below forces the touch to actually fail.
    ScratchDir dir("touch_readonly");
    const std::string key(16, '4');
    DiskPlanCache cache(dir.str());
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = key;
    cache.store(key, artifact);

    fs::permissions(dir.path(), fs::perms::owner_read | fs::perms::owner_exec
                                    | fs::perms::group_read
                                    | fs::perms::group_exec
                                    | fs::perms::others_read
                                    | fs::perms::others_exec);
    ArtifactPtr hit = cache.load(key);
    fs::permissions(dir.path(), fs::perms::owner_all);

    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->key, key);
    DiskPlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.rejected, 0);
}

#ifdef __unix__
TEST(DiskCacheTouch, FailedMtimeRefreshCountsAndStillServes)
{
    // utimensat with explicit timestamps needs file ownership or write
    // access, so a genuine touch failure requires dropping privileges:
    // root stores a read-only plan, then loads it as an unprivileged
    // euid. Skipped when not root (CI test users cannot chown/seteuid);
    // the read-only-directory test above still runs there.
    if (geteuid() != 0)
        GTEST_SKIP() << "needs root to drop privileges for a failing touch";

    ScratchDir dir("touch_failed");
    const std::string key(16, '5');
    DiskPlanCache cache(dir.str());
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = key;
    cache.store(key, artifact);

    const fs::perms read_only = fs::perms::owner_read | fs::perms::group_read
                              | fs::perms::others_read;
    fs::permissions(cache.planPath(key), read_only);
    fs::permissions(dir.path(), read_only | fs::perms::owner_exec
                                    | fs::perms::group_exec
                                    | fs::perms::others_exec);

    ASSERT_EQ(seteuid(65534), 0); // nobody: can read, cannot touch
    ArtifactPtr hit = cache.load(key);
    EXPECT_EQ(seteuid(0), 0);
    fs::permissions(dir.path(), fs::perms::owner_all);

    ASSERT_NE(hit, nullptr) << "a failed touch must not drop the hit";
    EXPECT_EQ(hit->key, key);
    DiskPlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.touchFailed, 1);
    EXPECT_EQ(stats.rejected, 0);

    // A touchable plan keeps the counter still.
    ArtifactPtr again = cache.load(key);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(cache.stats().touchFailed, 1);
}
#endif

TEST(StatsSidecar, AccumulatesAcrossCacheInstances)
{
    ScratchDir dir("sidecar_accumulate");
    const std::string key(16, '3');
    {
        // "Process" 1: one miss, one store; destructor flushes.
        DiskPlanCache first(dir.str());
        EXPECT_EQ(first.load(key), nullptr);
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        first.store(key, artifact);
    }
    {
        // "Process" 2: one hit. An explicit flush returns the merged
        // lifetime totals; the destructor's second flush adds nothing.
        DiskPlanCache second(dir.str());
        EXPECT_NE(second.load(key), nullptr);
        DiskPlanCacheStats totals = second.flushSidecar();
        EXPECT_EQ(totals.hits, 1);
        EXPECT_EQ(totals.misses, 1);
        EXPECT_EQ(totals.stores, 1);
        EXPECT_EQ(totals.rejected, 0);
    }
    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 1);
    EXPECT_EQ(totals.misses, 1);
    EXPECT_EQ(totals.stores, 1);

    CacheStatsReport report = statsPlanCache(dir.str());
    EXPECT_TRUE(report.sidecarPresent);
    EXPECT_EQ(report.totals.hits, 1);
    EXPECT_EQ(report.planFiles, 1);
    EXPECT_GT(report.planBytes, 0);
    EXPECT_EQ(report.fingerprint, buildFingerprintHex());
}

TEST(StatsSidecar, DamagedSidecarReadsAsZeroAndIsRewritten)
{
    ScratchDir dir("sidecar_damaged");
    std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
        << "garbage, not an envelope";
    bool present = true;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_FALSE(present);
    EXPECT_EQ(totals.hits + totals.misses + totals.stores + totals.rejected,
              0);

    DiskPlanCacheStats delta;
    delta.hits = 5;
    mergeStatsSidecar(dir.str(), delta);
    totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 5);
}

TEST(StatsSidecar, V2RoundtripsTouchFailed)
{
    ScratchDir dir("sidecar_v2");
    DiskPlanCacheStats delta;
    delta.hits = 2;
    delta.touchFailed = 3;
    mergeStatsSidecar(dir.str(), delta);

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 2);
    EXPECT_EQ(totals.touchFailed, 3);

    // Merges accumulate the fifth counter like the first four.
    DiskPlanCacheStats more;
    more.touchFailed = 4;
    totals = mergeStatsSidecar(dir.str(), more);
    EXPECT_EQ(totals.touchFailed, 7);

    // And `cache stats` surfaces it in the JSON report.
    CacheStatsReport report = statsPlanCache(dir.str());
    JsonWriter w;
    report.writeJson(w);
    EXPECT_NE(w.str().find("\"touch_failed\": 7"), std::string::npos)
        << w.str();
}

TEST(StatsSidecar, ReadsV1FormatAndUpgradesOnMerge)
{
    ScratchDir dir("sidecar_v1");
    // A sidecar as an older build wrote it: the v1 tag, four counters.
    BinaryWriter payload;
    payload.writeS64(10).writeS64(20).writeS64(30).writeS64(40);
    std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
        << wrapEnvelope(kStatsSidecarTagV1, payload.bytes());

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 10);
    EXPECT_EQ(totals.misses, 20);
    EXPECT_EQ(totals.stores, 30);
    EXPECT_EQ(totals.rejected, 40);
    EXPECT_EQ(totals.touchFailed, 0); // v1 has no fifth counter

    // The first merge preserves the v1 totals and rewrites the file in
    // the current envelope.
    DiskPlanCacheStats delta;
    delta.hits = 1;
    delta.touchFailed = 2;
    totals = mergeStatsSidecar(dir.str(), delta);
    EXPECT_EQ(totals.hits, 11);
    EXPECT_EQ(totals.rejected, 40);
    EXPECT_EQ(totals.touchFailed, 2);

    std::string data;
    ASSERT_TRUE(readFileBytes(statsSidecarPath(dir.str()), &data));
    std::string_view upgraded;
    std::string error;
    EXPECT_TRUE(unwrapEnvelope(kStatsSidecarTag, data, &upgraded, &error))
        << error;
    totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.touchFailed, 2);
}

TEST(StatsSidecar, V3RoundtripsNeighborCounters)
{
    ScratchDir dir("sidecar_v3");
    DiskPlanCacheStats delta;
    delta.neighborHits = 3;
    delta.neighborPartials = 2;
    delta.neighborMisses = 1;
    mergeStatsSidecar(dir.str(), delta);

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.neighborHits, 3);
    EXPECT_EQ(totals.neighborPartials, 2);
    EXPECT_EQ(totals.neighborMisses, 1);

    // DiskPlanCache::recordNeighbor feeds the same counters through the
    // flush path other totals use.
    {
        DiskPlanCache cache(dir.str());
        cache.recordNeighbor(NeighborOutcome::kHit);
        cache.recordNeighbor(NeighborOutcome::kMiss);
        EXPECT_EQ(cache.stats().neighborHits, 1);
        EXPECT_EQ(cache.stats().neighborMisses, 1);
    }
    totals = readStatsSidecar(dir.str(), &present);
    EXPECT_EQ(totals.neighborHits, 4);
    EXPECT_EQ(totals.neighborPartials, 2);
    EXPECT_EQ(totals.neighborMisses, 2);

    // And `cache stats` surfaces them in the JSON report.
    CacheStatsReport report = statsPlanCache(dir.str());
    JsonWriter w;
    report.writeJson(w);
    EXPECT_NE(w.str().find("\"neighbor_hits\": 4"), std::string::npos)
        << w.str();
    EXPECT_NE(w.str().find("\"neighbor_misses\": 2"), std::string::npos)
        << w.str();
}

TEST(StatsSidecar, ReadsV2FormatWithZeroNeighborCounters)
{
    ScratchDir dir("sidecar_v2_legacy");
    // A sidecar as the previous build wrote it: v2 tag, five counters.
    BinaryWriter payload;
    payload.writeS64(1).writeS64(2).writeS64(3).writeS64(4).writeS64(5);
    std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
        << wrapEnvelope(kStatsSidecarTagV2, payload.bytes());

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 1);
    EXPECT_EQ(totals.touchFailed, 5);
    EXPECT_EQ(totals.neighborHits, 0); // v2 has no neighbor counters
    EXPECT_EQ(totals.neighborPartials, 0);
    EXPECT_EQ(totals.neighborMisses, 0);

    // The first merge upgrades the file to the current envelope in place.
    DiskPlanCacheStats delta;
    delta.neighborHits = 7;
    totals = mergeStatsSidecar(dir.str(), delta);
    EXPECT_EQ(totals.hits, 1);
    EXPECT_EQ(totals.neighborHits, 7);
    std::string data;
    ASSERT_TRUE(readFileBytes(statsSidecarPath(dir.str()), &data));
    std::string_view upgraded;
    std::string error;
    EXPECT_TRUE(unwrapEnvelope(kStatsSidecarTag, data, &upgraded, &error))
        << error;
}

TEST(StatsSidecar, ReadsV3FormatAndUpgradesOnMerge)
{
    ScratchDir dir("sidecar_v3_legacy");
    // A sidecar as the previous build wrote it: v3 tag, eight counters
    // in kDiskStatFields order.
    BinaryWriter payload;
    for (s64 value = 1; value <= 8; ++value)
        payload.writeS64(value);
    std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
        << wrapEnvelope(kStatsSidecarTagV3, payload.bytes());

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 1);
    EXPECT_EQ(totals.misses, 2);
    EXPECT_EQ(totals.stores, 3);
    EXPECT_EQ(totals.rejected, 4);
    EXPECT_EQ(totals.touchFailed, 5);
    EXPECT_EQ(totals.neighborHits, 6);
    EXPECT_EQ(totals.neighborPartials, 7);
    EXPECT_EQ(totals.neighborMisses, 8);

    // The first merge keeps every v3 total and rewrites the file as v4.
    DiskPlanCacheStats delta;
    delta.stores = 10;
    delta.neighborMisses = 10;
    totals = mergeStatsSidecar(dir.str(), delta);
    EXPECT_EQ(totals.stores, 13);
    EXPECT_EQ(totals.neighborMisses, 18);
    std::string data;
    ASSERT_TRUE(readFileBytes(statsSidecarPath(dir.str()), &data));
    std::string_view upgraded;
    std::string error;
    EXPECT_TRUE(unwrapEnvelope(kStatsSidecarTag, data, &upgraded, &error))
        << error;
    DiskPlanCacheStats reread = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(reread, totals);
    EXPECT_EQ(reread.neighborPartials, 7);
}

TEST(StatsSidecar, MergeKeepsCountersThisBuildDoesNotKnow)
{
    ScratchDir dir("sidecar_future");
    // A newer build added a counter; this build must carry it along.
    std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
        << encodeStatsSidecar({{"future_counter", 41}, {"hits", 2}});

    DiskPlanCacheStats delta;
    delta.hits = 1;
    delta.neighborHits = 4;
    DiskPlanCacheStats totals = mergeStatsSidecar(dir.str(), delta);
    EXPECT_EQ(totals.hits, 3);
    EXPECT_EQ(totals.neighborHits, 4);

    std::string data;
    ASSERT_TRUE(readFileBytes(statsSidecarPath(dir.str()), &data));
    SidecarCounters counters;
    std::string error;
    ASSERT_TRUE(decodeStatsSidecar(data, &counters, &error)) << error;
    EXPECT_EQ(counters.at("future_counter"), 41);
    EXPECT_EQ(counters.at("hits"), 3);
    EXPECT_EQ(counters.at("neighbor_hits"), 4);
    // Every row of this build's table is written, known or not before.
    EXPECT_EQ(counters.size(), std::size(kDiskStatFields) + 1);
}

/** Byte offsets of every name-length field in a v4 payload written by
 *  encodeStatsSidecar (after the s64 pair count). */
std::vector<std::size_t>
nameLengthOffsets(const SidecarCounters &counters)
{
    std::vector<std::size_t> offsets;
    std::size_t at = 8;
    for (const auto &[name, value] : counters) {
        offsets.push_back(at);
        at += 8 + name.size() + 8;
    }
    return offsets;
}

/** Overwrite the 8 bytes at @p at with @p value, little-endian. */
void
pokeU64(std::string *bytes, std::size_t at, u64 value)
{
    for (int i = 0; i < 8; ++i)
        (*bytes)[at + static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xff);
}

/**
 * Seeded mutation fuzz of the v4 decoder (ROADMAP item 4's property):
 * every mutated image either decodes and re-encodes to the same bytes,
 * or is rejected and reads as all-zero, not present. It never crashes
 * and never allocates more than the image it was handed, however the
 * pair count and name lengths are inflated. Payload mutations are
 * rewrapped in a valid envelope so they reach the decoder past the
 * digest check; a share of raw-image mutations covers the envelope.
 */
TEST(StatsSidecar, MutatedV4ImagesDecodeCanonicallyOrReadAsZero)
{
    ScratchDir dir("sidecar_fuzz");
    SidecarCounters seed;
    s64 value = -3;
    for (const DiskStatField &row : kDiskStatFields)
        seed[std::string(row.name)] = value += 1000003;
    seed["future_counter"] = -1;
    const std::string image = encodeStatsSidecar(seed);
    std::string_view seedPayload;
    ASSERT_TRUE(unwrapEnvelope(kStatsSidecarTag, image, &seedPayload));
    const std::string payload(seedPayload);
    const std::vector<std::size_t> lengthFields = nameLengthOffsets(seed);

    std::mt19937_64 rng(0x5eed5eedULL);
    // A length just past the payload, or any 64-bit value.
    auto inflated = [&]() -> u64 {
        return rng() % 2 ? rng() : payload.size() + rng() % 64;
    };
    int decoded = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        std::string mutated = payload;
        bool rewrap = true;
        switch (rng() % 5) {
        case 0: { // bit flip
            std::size_t at = rng() % mutated.size();
            mutated[at] ^= static_cast<char>(1u << (rng() % 8));
            break;
        }
        case 1: // truncation
            mutated.resize(rng() % mutated.size());
            break;
        case 2: // inflated pair count
            pokeU64(&mutated, 0, inflated());
            break;
        case 3: { // inflated name length
            std::size_t at = lengthFields[rng() % lengthFields.size()];
            pokeU64(&mutated, at, inflated());
            break;
        }
        default: // raw image: flip or cut past the envelope's digest
            mutated = image;
            if (rng() % 2)
                mutated[rng() % image.size()] ^= 0x10;
            else
                mutated.resize(rng() % mutated.size());
            rewrap = false;
            break;
        }
        if (rewrap)
            mutated = wrapEnvelope(kStatsSidecarTag, mutated);
        SCOPED_TRACE("iteration " + std::to_string(iter));

        SidecarCounters counters;
        gLargestAlloc.store(0);
        gAllocWatch.store(true);
        bool ok = decodeStatsSidecar(mutated, &counters);
        gAllocWatch.store(false);
        // Error text is the one allocation not sized by the input.
        EXPECT_LE(gLargestAlloc.load(),
                  std::max<std::size_t>(mutated.size(), 64));
        if (ok) {
            ++decoded;
            EXPECT_EQ(encodeStatsSidecar(counters), mutated);
        } else {
            EXPECT_TRUE(counters.empty());
        }

        // The file path agrees: a rejected image reads as all-zero.
        if (iter % 50 == 0) {
            std::ofstream(statsSidecarPath(dir.str()),
                          std::ios::binary | std::ios::trunc)
                << mutated;
            bool present = true;
            DiskPlanCacheStats totals =
                readStatsSidecar(dir.str(), &present);
            EXPECT_EQ(present, ok);
            if (!ok) {
                EXPECT_EQ(totals, DiskPlanCacheStats{});
            }
        }
    }
    // Bit flips inside values (and order-keeping flips inside names)
    // decode: the loop exercised the accepting path, not only rejects.
    EXPECT_GT(decoded, 0);
}

/** Member names of the JSON object @p text, in document order. */
std::vector<std::string>
objectKeys(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    std::vector<std::string> keys;
    for (const auto &member : doc.members)
        keys.push_back(member.first);
    return keys;
}

TEST(StatsSidecar, CacheStatsReportKeysArePinned)
{
    ScratchDir dir("stats_keys");
    JsonWriter w;
    statsPlanCache(dir.str()).writeJson(w);
    EXPECT_EQ(objectKeys(w.str()),
              (std::vector<std::string>{
                  "schema", "dir", "sidecar_present", "hits", "misses",
                  "stores", "rejected", "touch_failed", "neighbor_hits",
                  "neighbor_partials", "neighbor_misses", "plan_files",
                  "plan_bytes", "walk_error", "fingerprint"}));
}

/** The batch summary's `cache` object renders its disk_* and sidecar_*
 *  keys through writeJsonFields with these two prefixes. */
TEST(StatsSidecar, BatchSummaryDiskAndSidecarKeysArePinned)
{
    DiskPlanCacheStats stats;
    JsonWriter w;
    w.beginObject();
    stats.writeJsonFields(w, "disk_");
    stats.writeJsonFields(w, "sidecar_");
    w.endObject();
    EXPECT_EQ(objectKeys(w.str()),
              (std::vector<std::string>{
                  "disk_hits",
                  "disk_misses",
                  "disk_stores",
                  "disk_rejected",
                  "disk_touch_failed",
                  "disk_neighbor_hits",
                  "disk_neighbor_partials",
                  "disk_neighbor_misses",
                  "sidecar_hits",
                  "sidecar_misses",
                  "sidecar_stores",
                  "sidecar_rejected",
                  "sidecar_touch_failed",
                  "sidecar_neighbor_hits",
                  "sidecar_neighbor_partials",
                  "sidecar_neighbor_misses",
              }));
}

TEST(PlanFingerprint, RevisionBumpChangesAndRevertRestoresTheDigest)
{
    const std::string original = buildFingerprintHex();
    bumpAlgorithmRevisionForTesting("segmenter", 1);
    const std::string bumped = buildFingerprintHex();
    EXPECT_NE(bumped, original);
    // A different pass's bump lands on a different digest again.
    bumpAlgorithmRevisionForTesting("allocator", 1);
    EXPECT_NE(buildFingerprintHex(), bumped);
    bumpAlgorithmRevisionForTesting("allocator", -1);
    bumpAlgorithmRevisionForTesting("segmenter", -1);
    EXPECT_EQ(buildFingerprintHex(), original);
}

TEST(PlanFingerprint, RevisionTableCoversTheCompilerPasses)
{
    // The table is the maintenance surface: losing a row silently
    // weakens invalidation, so pin the passes that must stay covered.
    const std::vector<AlgorithmRevision> &table = algorithmRevisions();
    auto has = [&table](const std::string &pass) {
        for (const AlgorithmRevision &entry : table)
            if (pass == entry.pass)
                return true;
        return false;
    };
    for (const char *pass :
         {"frontend-passes", "partitioner", "segmenter", "allocator",
          "codegen", "cost-model", "baselines", "energy-model"})
        EXPECT_TRUE(has(pass)) << pass;
    for (const AlgorithmRevision &entry : table)
        EXPECT_GE(entry.revision, 1) << entry.pass;
}

TEST(CacheReports, JsonDocumentsCarryTheirSchemas)
{
    ScratchDir dir("report_json");
    writeFakePlan(dir, "aaaa.plan", 10, minutes(1));

    JsonWriter gc_doc;
    gcPlanCache({.directory = dir.str(), .maxBytes = 1000}).writeJson(gc_doc);
    EXPECT_NE(gc_doc.str().find("cmswitch-cache-gc-v1"), std::string::npos);

    JsonWriter stats_doc;
    statsPlanCache(dir.str()).writeJson(stats_doc);
    EXPECT_NE(stats_doc.str().find("cmswitch-cache-stats-report-v2"),
              std::string::npos);

    JsonWriter verify_doc;
    verifyPlanCache({.directory = dir.str()}).writeJson(verify_doc);
    EXPECT_NE(verify_doc.str().find("cmswitch-cache-verify-v1"),
              std::string::npos);
}

} // namespace
} // namespace cmswitch
