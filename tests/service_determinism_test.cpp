/**
 * @file
 * Multi-thread determinism of the compilation service: an N-thread
 * batch over the scenario matrix must produce byte-identical JSON
 * reports to the serial run, and repeated request keys must always hit
 * the plan cache. This is the in-process version of the `cmswitchc
 * batch` acceptance gate (tests/batch_smoke.cmake drives the CLI).
 */

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <string>
#include <vector>

#include "service/json_report.hpp"
#include "scenario_util.hpp"

namespace cmswitch {
namespace {

using ::cmswitch::testing::scenarioChip;
using ::cmswitch::testing::scenarioChipNames;
using ::cmswitch::testing::scenarioCompilerNames;
using ::cmswitch::testing::scenarioWorkload;
using ::cmswitch::testing::scenarioWorkloadNames;

std::vector<CompileRequest>
matrixRequests()
{
    std::vector<CompileRequest> requests;
    for (const std::string &chip : scenarioChipNames()) {
        for (const std::string &workload : scenarioWorkloadNames()) {
            for (const std::string &compiler : scenarioCompilerNames()) {
                CompileRequest r;
                r.chip = scenarioChip(chip);
                r.workload = scenarioWorkload(workload);
                r.compilerId = compiler;
                requests.push_back(std::move(r));
            }
        }
    }
    return requests;
}

/** Run @p requests through a fresh service; return per-job reports. */
std::vector<std::string>
runBatch(const std::vector<CompileRequest> &requests, s64 threads)
{
    CompileService service({.threads = threads, .cacheCapacity = 256, .cacheDir = ""});
    std::vector<std::future<ArtifactPtr>> futures;
    futures.reserve(requests.size());
    for (const CompileRequest &r : requests)
        futures.push_back(service.submit(r));
    std::vector<std::string> reports;
    reports.reserve(requests.size());
    for (auto &f : futures) {
        ArtifactPtr artifact = f.get();
        EXPECT_TRUE(artifact->validation.ok())
            << artifact->validation.summary();
        reports.push_back(renderCompileReport(*artifact));
    }
    return reports;
}

TEST(ServiceDeterminism, FourThreadMatrixMatchesSerialByteForByte)
{
    std::vector<CompileRequest> requests = matrixRequests();
    // Duplicate a slice of the matrix so the cache sees repeats under
    // contention (same-key requests racing across workers).
    for (std::size_t k = 0; k < 8; ++k)
        requests.push_back(requests[k * 5 % requests.size()]);

    std::vector<std::string> serial = runBatch(requests, 1);
    std::vector<std::string> parallel = runBatch(requests, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t k = 0; k < serial.size(); ++k)
        EXPECT_EQ(serial[k], parallel[k]) << "job " << k
                                          << " diverged across thread counts";
}

TEST(ServiceDeterminism, RepeatedKeysAlwaysHitTheCache)
{
    std::vector<CompileRequest> requests = matrixRequests();
    std::vector<CompileRequest> doubled = requests;
    doubled.insert(doubled.end(), requests.begin(), requests.end());

    CompileService service({.threads = 4, .cacheCapacity = 256, .cacheDir = ""});
    std::vector<std::future<ArtifactPtr>> futures;
    for (const CompileRequest &r : doubled)
        futures.push_back(service.submit(r));
    std::map<std::string, ArtifactPtr> byKey;
    for (std::size_t k = 0; k < futures.size(); ++k) {
        ArtifactPtr artifact = futures[k].get();
        auto [it, inserted] = byKey.emplace(artifact->key, artifact);
        if (!inserted) {
            EXPECT_EQ(it->second.get(), artifact.get())
                << "repeated key must share one artifact";
        }
    }

    CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, static_cast<s64>(requests.size()))
        << "every unique key compiles exactly once";
    EXPECT_EQ(stats.cache.hits, static_cast<s64>(requests.size()))
        << "every repeated key reports a cache hit";
}

} // namespace
} // namespace cmswitch
