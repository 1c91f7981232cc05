/**
 * @file
 * Scenario-matrix vocabulary: named chips, workloads and compilers the
 * cross-cutting sweeps iterate over (tests/scenario_matrix_test.cpp).
 * Lives apart from test_util.hpp so the fast unit suites do not inherit
 * the whole compiler/baselines/model-zoo header stack.
 *
 * Workloads are test-scale versions of the paper's benchmarks: CNNs at
 * batch 1, transformers truncated to a few layers. Transformer depth is
 * a knob: the e2e sweeps run kE2eTransformerLayers (4) for a deeper
 * inter-segment schedule, the cheap/tier1 callers keep
 * kTier1TransformerLayers (2).
 *
 * When CMSWITCH_SCENARIO_CACHE_DIR is set in the environment,
 * scenarioCompile() layers a persistent DiskPlanCache under its
 * process-wide PlanCache, so the scenario suites of different test
 * binaries (and repeated ctest runs) share compiled plans on disk
 * instead of recompiling the matrix per process.
 */

#ifndef CMSWITCH_TESTS_SCENARIO_UTIL_HPP
#define CMSWITCH_TESTS_SCENARIO_UTIL_HPP

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.hpp"
#include "models/model_zoo.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace cmswitch::testing {

/** Transformer depth of the tier1-scale scenario workloads. */
inline constexpr s64 kTier1TransformerLayers = 2;

/** Transformer depth of the e2e-labelled scenario sweeps. */
inline constexpr s64 kE2eTransformerLayers = 4;

inline std::vector<std::string>
scenarioChipNames()
{
    return {"dynaplasia", "prime", "tiny"};
}

inline ChipConfig
scenarioChip(const std::string &name)
{
    if (name == "dynaplasia")
        return ChipConfig::dynaplasia();
    if (name == "prime")
        return ChipConfig::prime();
    // 16 arrays of 128x128: big enough that an opt-6.7b matmul tiles in
    // the thousands (not millions), tiny enough to stress multiplexing.
    if (name == "tiny")
        return tinyChip(16, 128);
    cmswitch_fatal("unknown scenario chip '", name, "'");
}

inline std::vector<std::string>
scenarioWorkloadNames()
{
    return {"resnet18", "mobilenetv2", "bert-base-prefill",
            "opt-6.7b-decode"};
}

inline Graph
scenarioWorkload(const std::string &name,
                 s64 transformer_layers = kTier1TransformerLayers)
{
    if (name == "resnet18")
        return buildResNet18(1);
    if (name == "mobilenetv2")
        return buildMobileNetV2(1);
    if (name == "bert-base-prefill") {
        TransformerConfig cfg = TransformerConfig::bertBase();
        cfg.layers = transformer_layers;
        return buildTransformerPrefill(cfg, 1, 64);
    }
    if (name == "opt-6.7b-decode") {
        TransformerConfig cfg = TransformerConfig::opt6_7b();
        cfg.layers = transformer_layers;
        return buildTransformerDecodeStep(cfg, 1, 256);
    }
    cmswitch_fatal("unknown scenario workload '", name, "'");
}

/** Every registered compiler, so new baselines join the matrix free. */
inline std::vector<std::string>
scenarioCompilerNames()
{
    std::vector<std::string> names;
    for (const auto &compiler : makeAllCompilers(tinyChip()))
        names.push_back(compiler->name());
    return names;
}

/**
 * Compile one scenario cell through a process-wide plan cache, so the
 * cross-cutting sweeps (validator cells, dominance, mode pressure)
 * reuse each (chip, workload, compiler) plan instead of compiling it
 * once per sweep. Artifacts are immutable and shared — do not mutate.
 *
 * With CMSWITCH_SCENARIO_CACHE_DIR set, in-process misses consult the
 * named persistent cache first and publish fresh compiles back, so the
 * whole scenario matrix warm-runs from disk across processes.
 */
inline ArtifactPtr
scenarioCompile(const std::string &chip_name,
                const std::string &workload_name,
                const std::string &compiler_name,
                s64 transformer_layers = kTier1TransformerLayers)
{
    // A bare PlanCache (no worker pool — everything compiles in the
    // calling thread), big enough that one full matrix (48 cells) at
    // both transformer depths never evicts: every repeat in-process is
    // a guaranteed hit.
    static PlanCache cache(256);
    static DiskPlanCache *disk = []() -> DiskPlanCache * {
        const char *dir = std::getenv("CMSWITCH_SCENARIO_CACHE_DIR");
        return dir && *dir ? new DiskPlanCache(dir) : nullptr;
    }();
    CompileRequest request;
    request.chip = scenarioChip(chip_name);
    request.workload = scenarioWorkload(workload_name, transformer_layers);
    request.compilerId = compiler_name;
    std::string key = requestKey(request);
    return cache.getOrCompute(key, [&request, &key] {
        ArtifactPtr artifact = disk ? disk->load(key) : nullptr;
        if (!artifact) {
            artifact = compileArtifact(request, key);
            if (disk)
                disk->store(key, artifact);
        }
        return artifact;
    });
}

} // namespace cmswitch::testing

#endif // CMSWITCH_TESTS_SCENARIO_UTIL_HPP
