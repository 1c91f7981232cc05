/**
 * @file
 * Parameterized property sweeps over randomly generated inputs:
 * monotonicity of the Eq. 10 latency model, allocator resource
 * invariants (Eqs. 5-8), DP-vs-greedy dominance, and serializer
 * round-trips. These complement the targeted unit tests with
 * breadth.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "compiler/segmenter.hpp"
#include "graph/serialize.hpp"
#include "models/model_zoo.hpp"
#include "scenario_util.hpp"
#include "service/incremental/structural_digest.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

/** Random small DAG of ScheduledOps: workloads sized for the tiny
 *  chips, dependency edges reaching up to three ops back. */
std::vector<ScheduledOp>
randomScheduledOps(Rng &rng, const ChipConfig &chip, s64 n)
{
    std::vector<ScheduledOp> ops;
    ops.reserve(static_cast<std::size_t>(n));
    for (s64 i = 0; i < n; ++i) {
        ScheduledOp op;
        op.work = testing::randomWorkload(rng, chip, 3);
        op.work.opId = static_cast<OpId>(i);
        op.liveOutBytes = rng.nextInt(0, 4096);
        for (s64 p = std::max<s64>(0, i - 3); p < i; ++p) {
            if (rng.nextInt(0, 2) == 0) {
                op.preds.push_back(p);
                op.reuseBytes.push_back(rng.nextInt(64, 8192));
            }
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

class Seeded : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<u64>(GetParam()) * 1099511628211ull + 5};
};

using CostMonotonicity = Seeded;

TEST_P(CostMonotonicity, LatencyNonIncreasingInResources)
{
    Deha deha(testing::tinyChip(16));
    CostModel cost(deha);
    for (int trial = 0; trial < 20; ++trial) {
        OpWorkload w = testing::randomWorkload(rng_, deha.config(), 4);
        // Compute axis (at fixed memory).
        Cycles prev = kInfCycles;
        for (s64 c = w.weightTiles; c <= 4 * w.weightTiles;
             c += w.weightTiles) {
            Cycles l = cost.opLatency(w, OpAllocation{c, 1, 1});
            EXPECT_LE(l, prev);
            prev = l;
        }
        // Memory axis (at fixed compute).
        prev = kInfCycles;
        for (s64 m = 0; m <= 12; ++m) {
            Cycles l = cost.opLatency(w, OpAllocation{w.weightTiles, m, 0});
            EXPECT_LE(l, prev);
            prev = l;
        }
        // A smaller D_main share can never make an op faster.
        Cycles full = cost.opLatency(w, OpAllocation{w.weightTiles, 2, 2},
                                     1.0);
        Cycles half = cost.opLatency(w, OpAllocation{w.weightTiles, 2, 2},
                                     0.5);
        EXPECT_LE(full, half);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicity, ::testing::Range(0, 8));

using AllocatorInvariants = Seeded;

TEST_P(AllocatorInvariants, ResourceAndConsistency)
{
    Deha deha(testing::tinyChip(static_cast<s64>(rng_.nextInt(8, 16))));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});

    for (int trial = 0; trial < 10; ++trial) {
        std::vector<OpWorkload> ws;
        s64 n = rng_.nextInt(1, 4);
        for (s64 i = 0; i < n; ++i) {
            ws.push_back(testing::randomWorkload(rng_, deha.config(), 3));
            ws.back().opId = static_cast<OpId>(i);
        }
        SegmentView view;
        for (const OpWorkload &w : ws)
            view.ops.push_back(&w);
        for (s64 i = 1; i < n; ++i) {
            if (rng_.nextInt(0, 1)) {
                view.edges.push_back(SegmentView::Edge{
                    i - 1, i, rng_.nextInt(64, 8192)});
            }
        }

        SegmentAllocation a = alloc.allocate(view);
        if (!a.feasible())
            continue;

        // Eq. 8: the packed segment fits the chip.
        EXPECT_LE(a.plan.total(), deha.config().numSwitchArrays);
        s64 gross = 0;
        for (std::size_t i = 0; i < a.allocs.size(); ++i) {
            // Weights always fit their compute arrays.
            EXPECT_GE(a.allocs[i].computeArrays, ws[i].weightTiles);
            EXPECT_GE(a.allocs[i].memInArrays, 0);
            EXPECT_GE(a.allocs[i].memOutArrays, 0);
            gross += a.allocs[i].total();
        }
        EXPECT_EQ(gross - a.reusedArrays, a.plan.total());

        // The claimed latency is exactly what the cost model computes.
        std::vector<OpAllocation> as = a.allocs;
        EXPECT_EQ(a.intraLatency, cost.segmentLatency(ws, as));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorInvariants, ::testing::Range(0, 8));

using DpDominance = Seeded;

TEST_P(DpDominance, DpNeverWorseThanGreedy)
{
    Deha deha(testing::tinyChip(10));
    CostModel cost(deha);
    Graph g = testing::chainMlp(static_cast<s64>(rng_.nextInt(3, 7)),
                                8 * rng_.nextInt(2, 5),
                                rng_.nextInt(1, 3));
    auto ops = flattenGraph(g, deha);

    for (bool memory_mode : {true, false}) {
        SegmenterOptions opt;
        opt.alloc.allowMemoryMode = memory_mode;
        opt.useDp = true;
        Segmenter dp(cost, opt);
        opt.useDp = false;
        Segmenter greedy(cost, opt);
        Cycles a = dp.run(ops).latency.total();
        Cycles b = greedy.run(ops).latency.total();
        EXPECT_LE(a, b) << "memory_mode=" << memory_mode;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpDominance, ::testing::Range(0, 10));

using RangeCacheConsistency = Seeded;

TEST_P(RangeCacheConsistency, CachedAllocationsEqualFreshRecomputes)
{
    // The segmenter's two-level cache (flat-hash range keys over the
    // cross-run signature cache) must be semantically invisible: for
    // any range of any random DAG, the cached allocation equals what a
    // fresh allocator computes from scratch.
    Deha deha(testing::tinyChip(static_cast<s64>(rng_.nextInt(8, 16))));
    CostModel cost(deha);
    SegmenterOptions opt;
    Segmenter segmenter(cost, opt);
    DualModeAllocator fresh(cost, opt.alloc);

    const s64 n = rng_.nextInt(4, 12);
    std::vector<ScheduledOp> ops = randomScheduledOps(rng_, deha.config(), n);
    segmenter.run(ops); // populates the caches along the DP's ranges
    EXPECT_GT(segmenter.cacheMisses(), 0);

    for (int probe = 0; probe < 25; ++probe) {
        s64 lo = rng_.nextInt(0, n - 1);
        s64 hi = rng_.nextInt(lo + 1, n);
        const SegmentAllocation &cached =
            segmenter.allocationForRange(ops, lo, hi);
        // Probe again: the second lookup is a guaranteed range-cache
        // hit and must alias the same allocation.
        s64 hits_before = segmenter.cacheHits();
        const SegmentAllocation &rehit =
            segmenter.allocationForRange(ops, lo, hi);
        EXPECT_EQ(&cached, &rehit);
        EXPECT_GT(segmenter.cacheHits(), hits_before);
        SCOPED_TRACE(concat("range [", lo, ", ", hi, ")"));
        testing::expectSameAllocation(
            cached, fresh.allocate(makeSegmentView(ops, lo, hi)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCacheConsistency,
                         ::testing::Range(0, 10));

using RangeKeyPacking = Seeded;

TEST_P(RangeKeyPacking, PackedKeysRoundTripWithoutCollision)
{
    // The per-run range cache packs (lo, hi) as lo * (n + 1) + hi.
    // Round-tripping the key through / and % proves injectivity; the
    // sweep covers n from tiny up to Segmenter::kMaxOps (the packing
    // guard asserted by Segmenter::run).
    const s64 sizes[] = {1, 2, 63, 64, 4096, 1 << 20,
                         Segmenter::kMaxOps};
    for (s64 n : sizes) {
        for (int trial = 0; trial < 50; ++trial) {
            s64 lo = rng_.nextInt(0, n - 1);
            s64 hi = rng_.nextInt(lo + 1, n);
            s64 key = lo * (n + 1) + hi;
            ASSERT_GE(key, 0) << "overflow at n=" << n;
            EXPECT_EQ(key / (n + 1), lo) << "n=" << n;
            EXPECT_EQ(key % (n + 1), hi) << "n=" << n;
        }
    }
    // Small n: exhaustive distinctness over every legal (lo, hi).
    const s64 n = 40;
    std::unordered_set<s64> seen;
    for (s64 lo = 0; lo < n; ++lo) {
        for (s64 hi = lo + 1; hi <= n; ++hi)
            EXPECT_TRUE(seen.insert(lo * (n + 1) + hi).second)
                << "collision at (" << lo << ", " << hi << ")";
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n * (n + 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeKeyPacking, ::testing::Range(0, 4));

using SerializeFuzz = Seeded;

TEST_P(SerializeFuzz, RandomChainsRoundTrip)
{
    Graph g = testing::chainMlp(static_cast<s64>(rng_.nextInt(1, 8)),
                                8 * rng_.nextInt(1, 8),
                                rng_.nextInt(1, 5));
    Graph back = parseGraph(serializeGraph(g));
    EXPECT_EQ(serializeGraph(back), serializeGraph(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz, ::testing::Range(0, 10));

using PartitionConservation = Seeded;

TEST_P(PartitionConservation, SlicesPreserveTotals)
{
    Deha deha(testing::tinyChip(6));
    PartitionOptions opts;
    opts.maxTilesPerSubOp = static_cast<s64>(rng_.nextInt(1, 4));
    s64 dim = 16 * rng_.nextInt(2, 6);
    Graph g = testing::chainMlp(2, dim, 2);
    auto ops = flattenGraph(g, deha, opts);

    s64 macs = 0, weight_bytes = 0;
    for (const ScheduledOp &s : ops) {
        EXPECT_LE(s.work.weightTiles, opts.maxTilesPerSubOp);
        macs += s.work.macs;
        weight_bytes += s.work.weightBytes;
    }
    // Column splits partition MACs and weights exactly.
    EXPECT_EQ(macs, 2 * 2 * dim * dim);
    EXPECT_EQ(weight_bytes, 2 * dim * dim);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionConservation,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// Structural digests (incremental compilation's neighbor index).
// ---------------------------------------------------------------------

/**
 * Every cell of the scenario matrix (3 chips x 4 workloads x 4
 * compilers), plus a shape-mutated variant of each workload, must map
 * to a distinct exact digest and a distinct family — and rebuilding
 * the identical request must reproduce all four digest components
 * bit-for-bit (the builders append ops in one deterministic order, so
 * digest stability is order stability).
 */
TEST(StructuralDigestProperties, MatrixCellsDistinctAndOrderStable)
{
    std::unordered_set<u64> exacts, families;
    s64 cells = 0;
    for (const std::string &chip : testing::scenarioChipNames()) {
        for (const std::string &workload :
             testing::scenarioWorkloadNames()) {
            for (const std::string &compiler :
                 testing::scenarioCompilerNames()) {
                CompileRequest request;
                request.chip = testing::scenarioChip(chip);
                request.workload = testing::scenarioWorkload(workload);
                request.compilerId = compiler;
                StructuralDigest a = requestStructuralDigest(request);

                CompileRequest rebuilt;
                rebuilt.chip = testing::scenarioChip(chip);
                rebuilt.workload = testing::scenarioWorkload(workload);
                rebuilt.compilerId = compiler;
                StructuralDigest b = requestStructuralDigest(rebuilt);
                EXPECT_TRUE(a == b)
                    << chip << "/" << workload << "/" << compiler;

                EXPECT_TRUE(exacts.insert(a.exact).second)
                    << "exact collision at " << chip << "/" << workload
                    << "/" << compiler;
                EXPECT_TRUE(families.insert(a.family).second)
                    << "family collision at " << chip << "/" << workload
                    << "/" << compiler;
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 48);

    // Mutated variants: one extra transformer layer is an op insert —
    // a *structural* change, so the family moves and cannot collide
    // with any unmutated cell's.
    for (const char *workload : {"bert-base-prefill", "opt-6.7b-decode"}) {
        CompileRequest request;
        request.chip = testing::scenarioChip("tiny");
        request.workload = testing::scenarioWorkload(
            workload, testing::kTier1TransformerLayers + 1);
        request.compilerId = "cmswitch";
        StructuralDigest d = requestStructuralDigest(request);
        EXPECT_TRUE(families.insert(d.family).second) << workload;
        EXPECT_TRUE(exacts.insert(d.exact).second) << workload;
    }
}

/**
 * KV-bucket variants are the neighbor lookup's bread and butter: the
 * same decode program at two cache lengths shares a family (shape-free
 * structure) while every shape-inclusive component separates them.
 */
TEST(StructuralDigestProperties, KvVariantsShareFamilyNotExact)
{
    TransformerConfig cfg = TransformerConfig::opt6_7b();
    cfg.layers = 2;
    CompileRequest a, b;
    a.chip = b.chip = testing::scenarioChip("tiny");
    a.compilerId = b.compilerId = "cmswitch";
    a.workload = buildTransformerDecodeStep(cfg, 1, 81);
    b.workload = buildTransformerDecodeStep(cfg, 1, 113);
    StructuralDigest da = requestStructuralDigest(a);
    StructuralDigest db = requestStructuralDigest(b);
    EXPECT_EQ(da.family, db.family);
    EXPECT_NE(da.exact, db.exact);

    // The same graph under a different compiler id (or chip) is a
    // different family: warm state never leaks across configurations.
    CompileRequest c = a;
    c.compilerId = "cim-mlc";
    EXPECT_NE(requestStructuralDigest(c).family, da.family);
}

/** Deterministic matmul chain: op i maps dims[i] -> dims[i+1]. */
Graph
chainGraph(const std::vector<s64> &dims)
{
    Graph g("digest-chain");
    TensorId cursor = g.addTensor("x", Shape{1, dims[0]}, DType::kInt8,
                                  TensorKind::kInput);
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        TensorId w = g.addTensor(concat("w", i),
                                 Shape{dims[i], dims[i + 1]}, DType::kInt8,
                                 TensorKind::kWeight);
        TensorId y = g.addTensor(concat("y", i), Shape{1, dims[i + 1]});
        Operator mm;
        mm.name = "mm" + std::to_string(i);
        mm.kind = OpKind::kMatMul;
        mm.inputs = {cursor, w};
        mm.outputs = {y};
        g.addOp(mm);
        cursor = y;
    }
    g.tensor(cursor).kind = TensorKind::kOutput;
    g.validate();
    return g;
}

class StructuralDigestWindows : public ::testing::TestWithParam<int>
{
};

/**
 * The prefix/suffix windows are what ranks same-family candidates, so
 * pin their blast radius exactly: a shape bump strictly between the
 * two windows leaves both intact (exact alone moves); a bump inside
 * one window dirties that window and only that window. Random chain
 * lengths and dims; the family never moves on a pure shape change.
 */
TEST_P(StructuralDigestWindows, ShapeBumpDirtiesOnlyItsWindow)
{
    Rng rng(static_cast<u64>(GetParam()) * 1099511628211ull + 5);
    const s64 n = rng.nextInt(3 * kDigestWindow, 4 * kDigestWindow);
    std::vector<s64> dims;
    for (s64 i = 0; i <= n; ++i)
        dims.push_back(8 * rng.nextInt(2, 6));
    const u64 seed = 0x5eedu + static_cast<u64>(GetParam());
    StructuralDigest base = graphStructuralDigest(chainGraph(dims), seed);

    // Same graph, different context seed: nothing survives.
    StructuralDigest other = graphStructuralDigest(chainGraph(dims),
                                                   seed + 1);
    EXPECT_NE(other.family, base.family);
    EXPECT_NE(other.exact, base.exact);

    auto bumped = [&](s64 index) {
        std::vector<s64> copy = dims;
        copy[static_cast<std::size_t>(index)] += 8;
        return graphStructuralDigest(chainGraph(copy), seed);
    };

    // Strictly between the windows. Op i touches dims[i] and
    // dims[i+1], so a bump at index k dirties ops k-1 and k: keep k-1
    // inside [kDigestWindow, n - kDigestWindow).
    StructuralDigest mid = bumped(
        rng.nextInt(kDigestWindow + 1, n - kDigestWindow));
    EXPECT_EQ(mid.family, base.family);
    EXPECT_EQ(mid.prefix, base.prefix);
    EXPECT_EQ(mid.suffix, base.suffix);
    EXPECT_NE(mid.exact, base.exact);

    // Inside the prefix window only.
    StructuralDigest head = bumped(rng.nextInt(0, kDigestWindow - 1));
    EXPECT_EQ(head.family, base.family);
    EXPECT_NE(head.prefix, base.prefix);
    EXPECT_EQ(head.suffix, base.suffix);
    EXPECT_NE(head.exact, base.exact);

    // Inside the suffix window only.
    StructuralDigest tail = bumped(rng.nextInt(n - kDigestWindow + 2, n));
    EXPECT_EQ(tail.family, base.family);
    EXPECT_EQ(tail.prefix, base.prefix);
    EXPECT_NE(tail.suffix, base.suffix);
    EXPECT_NE(tail.exact, base.exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralDigestWindows,
                         ::testing::Range(0, 8));

} // namespace
} // namespace cmswitch
