/**
 * @file
 * Differential battery for incremental (delta) compilation: a warm
 * compile seeded with a structurally similar neighbor's retained state
 * must produce a CompileResult byte-identical to a cold compile of the
 * same graph — always, for every reuse level from full DP import
 * (exact structural match) down to cross-KV-bucket delta reuse and the
 * no-neighbor cold fallback.
 *
 * The sweep mirrors the fig18 bench's generative replay: for each
 * generative zoo model (llama2-7b, opt-13b, trimmed to 2 layers) it
 * compiles the prefill program plus each per-KV-bucket decode step,
 * chaining every compile's retained state into a WarmStateStore so the
 * next bucket warm-starts from its nearest structural neighbor. The
 * whole battery runs at search widths 1 and 8 because warm import must
 * not perturb the sharded DP any more than the cold path does.
 *
 * Byte-compare convention: CompileResult::writeBinary with
 * compileSeconds zeroed first — wall-clock is the one field that
 * legitimately differs between a cold and a warm compile (that
 * difference is the whole point).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.hpp"
#include "compiler/warm_state.hpp"
#include "eval/evaluation.hpp"
#include "models/model_zoo.hpp"
#include "obs/obs.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"
#include "service/incremental/incremental_compile.hpp"
#include "service/incremental/structural_digest.hpp"
#include "service/incremental/warm_state_store.hpp"
#include "support/serialize.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

namespace fs = std::filesystem;
using testing::tinyChip;

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

/** Serialized result with compileSeconds zeroed (see file comment). */
std::string
resultBytes(const CompileResult &result)
{
    CompileResult copy = result;
    copy.compileSeconds = 0.0;
    BinaryWriter w;
    copy.writeBinary(w);
    return w.take();
}

/** The fig18 generative replay: prefill + per-KV-bucket decode steps
 *  (batch 1, 64+64 tokens, 2 buckets), trimmed to 2 layers. */
std::vector<Graph>
generativeGraphs(const std::string &model_name)
{
    TransformerConfig cfg = transformerConfigByName(model_name);
    cfg.layers = 2;
    const s64 input_len = 64, output_len = 64, buckets = 2;
    std::vector<Graph> graphs;
    graphs.push_back(buildTransformerPrefill(cfg, 1, input_len));
    for (s64 b = 0; b < buckets; ++b) {
        s64 tokens_lo = b * output_len / buckets;
        s64 tokens_hi = (b + 1) * output_len / buckets;
        s64 kv_len = input_len + (tokens_lo + tokens_hi) / 2 + 1;
        graphs.push_back(buildTransformerDecodeStep(cfg, 1, kv_len));
    }
    return graphs;
}

/** A longer decode sweep: llama2-7b (2 layers, batch 1) at KV lengths
 *  128, 160, ... — @p buckets consecutive 32-token buckets. */
std::vector<Graph>
decodeSweep(s64 buckets)
{
    TransformerConfig cfg = transformerConfigByName("llama2-7b");
    cfg.layers = 2;
    std::vector<Graph> graphs;
    for (s64 b = 0; b < buckets; ++b)
        graphs.push_back(buildTransformerDecodeStep(cfg, 1, 128 + 32 * b));
    return graphs;
}

CompileRequest
makeRequest(const ChipConfig &chip, Graph graph)
{
    CompileRequest request;
    request.chip = chip;
    request.workload = std::move(graph);
    request.compilerId = "cmswitch";
    return request;
}

class IncrementalDiffThreads : public ::testing::TestWithParam<int>
{
};

/**
 * The core differential: chain the generative replay through a
 * WarmStateStore exactly the way the compile service does, and demand
 * byte-identity against the cold compile at every link. Along the way
 * pin the neighbor topology the store must produce: the first graph of
 * a family compiles cold, the second KV bucket warm-starts from the
 * first (same family, different exact), and a same-graph relookup is
 * an exact hit that reuses the full DP table.
 */
TEST_P(IncrementalDiffThreads, GenerativeKvSweepIsByteIdentical)
{
    const s64 threads = GetParam();
    ChipConfig chip = ChipConfig::dynaplasia();
    auto compiler = makeCmSwitchCompiler(chip, false, threads);

    for (const char *model : {"llama2-7b", "opt-13b"}) {
        SCOPED_TRACE(model);
        std::vector<Graph> graphs = generativeGraphs(model);
        ASSERT_EQ(graphs.size(), 3u); // prefill + 2 decode buckets

        // Cold truth, compiled with no warm machinery in sight.
        std::vector<std::string> cold;
        for (const Graph &g : graphs)
            cold.push_back(resultBytes(compiler->compile(g)));

        WarmStateStore store(""); // memory-only
        std::vector<StructuralDigest> digests;
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            SCOPED_TRACE("graph " + std::to_string(i));
            CompileRequest request = makeRequest(chip, graphs[i]);
            StructuralDigest digest = requestStructuralDigest(request);
            digests.push_back(digest);

            WarmStateStore::Neighbor neighbor = store.findNeighbor(digest);
            if (i == 2) {
                // Second decode bucket: same ops as the first, shifted
                // KV shapes -> same family, non-exact neighbor.
                ASSERT_NE(neighbor.state, nullptr);
                EXPECT_FALSE(neighbor.exact);
                EXPECT_EQ(digests[2].family, digests[1].family);
                EXPECT_NE(digests[2].exact, digests[1].exact);
            }

            std::shared_ptr<CompilerWarmState> retained;
            WarmReuseStats stats;
            CompileResult warm = compiler->compileWarm(
                request.workload, neighbor.state, &retained, &stats);
            EXPECT_EQ(resultBytes(warm), cold[i])
                << "warm result diverged from cold compile";
            if (i == 2) {
                EXPECT_GT(stats.reuseScore(), 0)
                    << "cross-bucket neighbor did no work";
            }

            ASSERT_NE(retained, nullptr);
            store.put(digest, std::move(retained));
        }

        // Same-graph relookup: exact hit, full DP import, same bytes.
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            SCOPED_TRACE("exact relookup " + std::to_string(i));
            WarmStateStore::Neighbor neighbor =
                store.findNeighbor(digests[i]);
            ASSERT_NE(neighbor.state, nullptr);
            EXPECT_TRUE(neighbor.exact);
            WarmReuseStats stats;
            CompileResult warm = compiler->compileWarm(
                graphs[i], neighbor.state, nullptr, &stats);
            EXPECT_EQ(resultBytes(warm), cold[i]);
            EXPECT_GT(stats.dpRowsReused, 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SearchThreads, IncrementalDiffThreads,
                         ::testing::Values(1, 8));

/**
 * The .warm sidecar must survive a full disk round-trip: a second
 * store instance (fresh memory, same directory) finds the first
 * instance's retained state as an exact neighbor, and the warm compile
 * it seeds is still byte-identical.
 */
TEST(IncrementalDiff, WarmStateSurvivesDiskRoundtrip)
{
    ScratchDir dir("warm_roundtrip");
    ChipConfig chip = ChipConfig::dynaplasia();
    auto compiler = makeCmSwitchCompiler(chip);
    Graph graph = generativeGraphs("llama2-7b")[1]; // first decode bucket
    CompileRequest request = makeRequest(chip, graph);
    StructuralDigest digest = requestStructuralDigest(request);

    std::string cold = resultBytes(compiler->compile(graph));
    {
        WarmStateStore store(dir.str());
        std::shared_ptr<CompilerWarmState> retained;
        compiler->compileWarm(graph, nullptr, &retained, nullptr);
        ASSERT_NE(retained, nullptr);
        store.put(digest, std::move(retained));
        EXPECT_TRUE(fs::exists(store.warmPath(digest)));
    }

    WarmStateStore reloaded(dir.str());
    WarmStateStore::Neighbor neighbor = reloaded.findNeighbor(digest);
    ASSERT_NE(neighbor.state, nullptr);
    EXPECT_TRUE(neighbor.exact);
    WarmReuseStats stats;
    CompileResult warm =
        compiler->compileWarm(graph, neighbor.state, nullptr, &stats);
    EXPECT_EQ(resultBytes(warm), cold);
    EXPECT_GT(stats.dpRowsReused, 0);
}

/**
 * Lookups are memory first: a same-process decode sweep over a
 * directory-backed store reads no .warm file at all — every bucket
 * after the first finds its neighbor in memory, and the exact-file
 * probe of a never-compiled bucket finds nothing to read. The
 * directory scan stays the cross-process warm start: a fresh store
 * over the same directory must still find a family-only neighbor on
 * disk, and the compile it seeds must match cold byte for byte.
 */
TEST(IncrementalDiff, DecodeSweepReadsNoWarmFilesInProcess)
{
    ScratchDir dir("memory_first");
    ChipConfig chip = ChipConfig::dynaplasia();
    auto compiler = makeCmSwitchCompiler(chip);
    std::vector<Graph> graphs = decodeSweep(9);
    const Graph next = graphs.back(); // never compiled by the sweep
    graphs.pop_back();

    obs::MetricsRegistry registry;
    obs::install(&registry, nullptr);
    const obs::Counter &filesRead =
        registry.counter(obs::Met::kIncrementalWarmFilesRead);
    {
        WarmStateStore store(dir.str());
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            SCOPED_TRACE("bucket " + std::to_string(i));
            StructuralDigest digest =
                requestStructuralDigest(makeRequest(chip, graphs[i]));
            WarmStateStore::Neighbor neighbor = store.findNeighbor(digest);
            EXPECT_EQ(neighbor.state == nullptr, i == 0);
            EXPECT_EQ(filesRead.get(), 0);
            std::shared_ptr<CompilerWarmState> retained;
            compiler->compileWarm(graphs[i], neighbor.state, &retained,
                                  nullptr);
            // EXPECT, not ASSERT: an early return would leave the
            // registry installed past its lifetime.
            EXPECT_NE(retained, nullptr);
            store.put(digest, std::move(retained));
        }
    }

    WarmStateStore fresh(dir.str());
    StructuralDigest digest = requestStructuralDigest(makeRequest(chip, next));
    WarmStateStore::Neighbor neighbor = fresh.findNeighbor(digest);
    const s64 scanned = filesRead.get();
    obs::uninstall();
    ASSERT_NE(neighbor.state, nullptr);
    EXPECT_FALSE(neighbor.exact);
    EXPECT_GT(scanned, 0);
    WarmReuseStats stats;
    CompileResult warm =
        compiler->compileWarm(next, neighbor.state, nullptr, &stats);
    EXPECT_EQ(resultBytes(warm), resultBytes(compiler->compile(next)));
    EXPECT_GT(stats.reuseScore(), 0);
}

/**
 * Retained state is bounded by one compile: the pool keeps what the run
 * priced plus the imports that served a range, so chaining a long
 * decode sweep through the service path must not grow it. The last
 * bucket retains no more signatures than a cold compile of the same
 * graph, and every link stays byte-identical to cold.
 */
TEST(IncrementalDiff, RetainedStateDoesNotGrowAlongSweep)
{
    ChipConfig chip = ChipConfig::dynaplasia();
    std::vector<Graph> graphs = decodeSweep(8);
    WarmStateStore store(""); // memory-only
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        CompileRequest request = makeRequest(chip, graphs[i]);
        std::string key = requestKey(request);
        std::string cold =
            resultBytes(compileArtifact(request, key)->result);
        ArtifactPtr warm = compileArtifactIncremental(request, key, store,
                                                      nullptr);
        EXPECT_EQ(resultBytes(warm->result), cold);
    }

    const Graph &last = graphs.back();
    WarmStateStore::Neighbor retained =
        store.findNeighbor(requestStructuralDigest(makeRequest(chip, last)));
    ASSERT_NE(retained.state, nullptr);
    ASSERT_TRUE(retained.exact);
    std::shared_ptr<CompilerWarmState> cold;
    makeCmSwitchCompiler(chip)->compileWarm(last, nullptr, &cold, nullptr);
    ASSERT_NE(cold, nullptr);
    EXPECT_LE(retained.state->sigs.size(), cold->sigs.size());
}

/**
 * A truncated .warm file must read as "no neighbor": the lookup falls
 * back to a cold compile instead of importing garbage.
 */
TEST(IncrementalDiff, DamagedWarmFileFallsBackToCold)
{
    ScratchDir dir("warm_damage");
    ChipConfig chip = tinyChip();
    auto compiler = makeCmSwitchCompiler(chip);
    Graph graph = buildResNet18(1);
    CompileRequest request = makeRequest(chip, graph);
    StructuralDigest digest = requestStructuralDigest(request);
    {
        WarmStateStore store(dir.str());
        std::shared_ptr<CompilerWarmState> retained;
        compiler->compileWarm(graph, nullptr, &retained, nullptr);
        store.put(digest, std::move(retained));
        fs::resize_file(store.warmPath(digest), 16);
    }
    WarmStateStore reloaded(dir.str());
    EXPECT_EQ(reloaded.findNeighbor(digest).state, nullptr);
}

/**
 * Service-level pin over a CNN: compileArtifactIncremental's first
 * call records a neighbor miss and publishes a .warm sidecar; the
 * second call is an exact hit whose artifact is byte-identical. CNNs
 * take a different segmentation shape than the transformer sweeps
 * above, so this also widens the byte-identity coverage.
 */
TEST(IncrementalDiff, ServiceNeighborRecompileIsByteIdentical)
{
    ScratchDir dir("service_neighbor");
    CompileRequest request = makeRequest(tinyChip(), buildResNet18(1));
    std::string key = requestKey(request);
    std::string cold = resultBytes(compileArtifact(request, key)->result);

    DiskPlanCache disk(dir.str());
    WarmStateStore store(dir.str());
    ArtifactPtr first = compileArtifactIncremental(request, key, store,
                                                   &disk);
    ArtifactPtr second = compileArtifactIncremental(request, key, store,
                                                    &disk);
    EXPECT_EQ(resultBytes(first->result), cold);
    EXPECT_EQ(resultBytes(second->result), cold);

    DiskPlanCacheStats stats = disk.stats();
    EXPECT_EQ(stats.neighborMisses, 1);
    EXPECT_EQ(stats.neighborHits, 1);
    EXPECT_EQ(stats.neighborPartials, 0);

    StructuralDigest digest = requestStructuralDigest(request);
    EXPECT_TRUE(fs::exists(store.warmPath(digest)));
}

/**
 * The baseline compilers are CmSwitchCompiler configurations (greedy
 * segmentation, restricted modes, ...), so they ride the same warm
 * path. The byte-identity invariant must hold for them too — cim-mlc
 * runs with useDp=false, which exercises the warm levers under a
 * segmenter configuration the generative sweeps above never hit.
 */
TEST(IncrementalDiff, BaselineCompilerWarmPathIsByteIdentical)
{
    ChipConfig chip = tinyChip();
    auto baseline = makeCimMlcCompiler(chip);
    Graph graph = buildMobileNetV2(1);
    std::string cold = resultBytes(baseline->compile(graph));

    std::shared_ptr<CompilerWarmState> retained;
    CompileResult first =
        baseline->compileWarm(graph, nullptr, &retained, nullptr);
    EXPECT_EQ(resultBytes(first), cold);

    WarmReuseStats stats;
    CompileResult warm =
        baseline->compileWarm(graph, retained, nullptr, &stats);
    EXPECT_EQ(resultBytes(warm), cold);
}

} // namespace
} // namespace cmswitch
