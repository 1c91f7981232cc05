/** @file Tests for the MIP-based dual-mode allocator (Sec. 4.3.2). */

#include <gtest/gtest.h>

#include "compiler/allocator.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

SegmentView
viewOf(const std::vector<OpWorkload> &ws,
       std::vector<SegmentView::Edge> edges = {})
{
    SegmentView v;
    for (const OpWorkload &w : ws)
        v.ops.push_back(&w);
    v.edges = std::move(edges);
    return v;
}

TEST(Allocator, SingleOpGetsMinimalFeasible)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});

    Rng rng(1);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config())};
    SegmentAllocation a = alloc.allocate(viewOf(ws));
    ASSERT_TRUE(a.feasible());
    EXPECT_GE(a.allocs[0].computeArrays, ws[0].weightTiles);
    EXPECT_LE(a.plan.total(), deha.config().numSwitchArrays);
    EXPECT_EQ(a.intraLatency, cost.opLatency(ws[0], a.allocs[0]));
}

TEST(Allocator, InfeasibleWhenWeightsExceedChip)
{
    Deha deha(testing::tinyChip(4));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});
    OpWorkload w;
    w.name = "huge";
    w.weightTiles = 5;
    w.utilization = 1.0;
    w.movingRows = 4;
    w.macs = 1000;
    w.weightBytes = 5 * 16 * 16;
    w.inputBytes = 100;
    w.outputBytes = 100;
    w.aiMacsPerByte = 0.5;
    std::vector<OpWorkload> ws = {w};
    EXPECT_FALSE(alloc.allocate(viewOf(ws)).feasible());
}

TEST(Allocator, MemoryModeOffMeansZeroMemoryArrays)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    AllocatorOptions opts;
    opts.allowMemoryMode = false;
    DualModeAllocator alloc(cost, opts);

    Rng rng(3);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config()),
                                  testing::randomWorkload(rng, deha.config())};
    SegmentAllocation a = alloc.allocate(viewOf(ws));
    ASSERT_TRUE(a.feasible());
    for (const OpAllocation &oa : a.allocs)
        EXPECT_EQ(oa.memoryArrays(), 0);
    EXPECT_EQ(a.plan.memoryArrays, 0);
}

TEST(Allocator, DualModeNeverSlowerThanComputeOnly)
{
    Deha deha(testing::tinyChip(10));
    CostModel cost(deha);
    AllocatorOptions dual;
    AllocatorOptions fixed;
    fixed.allowMemoryMode = false;
    DualModeAllocator dual_alloc(cost, dual);
    DualModeAllocator fixed_alloc(cost, fixed);

    Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<OpWorkload> ws;
        s64 n = rng.nextInt(1, 3);
        for (s64 i = 0; i < n; ++i)
            ws.push_back(testing::randomWorkload(rng, deha.config(), 2));
        SegmentView v = viewOf(ws);
        SegmentAllocation d = dual_alloc.allocate(v);
        SegmentAllocation f = fixed_alloc.allocate(v);
        if (!f.feasible())
            continue;
        ASSERT_TRUE(d.feasible());
        EXPECT_LE(d.intraLatency, f.intraLatency) << "trial " << trial;
    }
}

TEST(Allocator, ReuseEnablesTightPacking)
{
    // Two chained ops whose memory needs exceed the chip unless the
    // producer's output buffer doubles as the consumer's input buffer.
    Deha deha(testing::tinyChip(6));
    CostModel cost(deha);
    const ChipConfig &chip = deha.config();

    OpWorkload a;
    a.name = "a";
    a.weightTiles = 1;
    a.utilization = 1.0;
    a.movingRows = 256;
    a.weightBytes = chip.arrayRows * chip.arrayCols;
    a.macs = a.weightBytes * a.movingRows;
    a.inputBytes = 2 * chip.arrayMemoryBytes();
    a.outputBytes = 2 * chip.arrayMemoryBytes();
    a.aiMacsPerByte = 0.4;
    OpWorkload b = a;
    b.name = "b";

    std::vector<OpWorkload> ws = {a, b};
    SegmentView v = viewOf(
        ws, {SegmentView::Edge{0, 1, 2 * chip.arrayMemoryBytes()}});

    DualModeAllocator alloc(cost, AllocatorOptions{});
    SegmentAllocation s = alloc.allocate(v);
    ASSERT_TRUE(s.feasible());
    s64 gross = 0;
    for (const OpAllocation &oa : s.allocs)
        gross += oa.total();
    EXPECT_EQ(gross - s.reusedArrays,
              s.plan.computeArrays + s.plan.memoryArrays);
    EXPECT_LE(s.plan.total(), chip.numSwitchArrays);
}

/** Property: bisection+MIP matches exhaustive search on tiny segments. */
class AllocatorVsExhaustive : public ::testing::TestWithParam<int>
{
};

TEST_P(AllocatorVsExhaustive, SameOptimalLatency)
{
    Rng rng(static_cast<u64>(GetParam()) * 104729 + 7);
    Deha deha(testing::tinyChip(rng.nextInt(6, 10)));
    CostModel cost(deha);
    AllocatorOptions opts;
    DualModeAllocator alloc(cost, opts);

    std::vector<OpWorkload> ws;
    s64 n = rng.nextInt(1, 2);
    for (s64 i = 0; i < n; ++i)
        ws.push_back(testing::randomWorkload(rng, deha.config(), 2));
    std::vector<SegmentView::Edge> edges;
    if (n == 2 && rng.nextInt(0, 1) == 1)
        edges.push_back(SegmentView::Edge{0, 1, rng.nextInt(64, 2048)});
    SegmentView v = viewOf(ws, edges);

    SegmentAllocation fast = alloc.allocate(v);
    SegmentAllocation brute = alloc.allocateExhaustive(v);
    ASSERT_EQ(fast.feasible(), brute.feasible());
    if (fast.feasible()) {
        EXPECT_EQ(fast.intraLatency, brute.intraLatency)
            << "fast plan: " << fast.plan.computeArrays << "c/"
            << fast.plan.memoryArrays << "m vs brute "
            << brute.plan.computeArrays << "c/" << brute.plan.memoryArrays
            << "m";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorVsExhaustive,
                         ::testing::Range(0, 20));

/**
 * Probes answered from the bisection bracket (needs equal to a known
 * end's) change no result: over random reuse-coupled segments the fast
 * search equals the reference search, which runs every probe's exact
 * solve, field for field.
 */
TEST(Allocator, BracketReuseMatchesReferenceSearch)
{
    obs::MetricsRegistry fast_metrics;
    obs::MetricsRegistry slow_metrics;
    auto allocate_into = [](obs::MetricsRegistry &registry,
                            const DualModeAllocator &alloc,
                            const SegmentView &v) {
        obs::install(&registry, nullptr);
        SegmentAllocation a = alloc.allocate(v);
        obs::uninstall();
        return a;
    };
    Rng rng(2024);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Deha deha(testing::tinyChip(rng.nextInt(6, 24)));
        CostModel cost(deha);
        AllocatorOptions reference;
        reference.referenceSearch = true;
        DualModeAllocator fast(cost, AllocatorOptions{});
        DualModeAllocator slow(cost, reference);

        std::vector<OpWorkload> ws;
        const s64 n = rng.nextInt(2, 4);
        for (s64 i = 0; i < n; ++i)
            ws.push_back(testing::randomWorkload(rng, deha.config(), 2));
        std::vector<SegmentView::Edge> edges;
        for (s64 to = 1; to < n; ++to) {
            for (s64 from = 0; from < to; ++from) {
                if (from + 1 == to || rng.nextInt(0, 2) == 0)
                    edges.push_back(
                        SegmentView::Edge{from, to, rng.nextInt(64, 4096)});
            }
        }
        SegmentView v = viewOf(ws, edges);
        testing::expectSameAllocation(allocate_into(fast_metrics, fast, v),
                             allocate_into(slow_metrics, slow, v));
    }
    EXPECT_GT(fast_metrics.counter(obs::Met::kAllocProbeBracketHits).get(),
              0);
    // The reference search is the oracle: it runs every probe's exact
    // solve and takes neither the bracket nor the reuse bounds.
    EXPECT_EQ(slow_metrics.counter(obs::Met::kAllocProbeBracketHits).get(),
              0);
    EXPECT_EQ(slow_metrics.counter(obs::Met::kAllocProbeShortcuts).get(), 0);
}

TEST(AllocatorSerial, GreedyImprovesOnMinimal)
{
    Deha deha(testing::tinyChip(12));
    CostModel cost(deha);
    AllocatorOptions opts;
    opts.pipelined = false;
    opts.allowMemoryMode = false;
    DualModeAllocator alloc(cost, opts);

    Rng rng(5);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config()),
                                  testing::randomWorkload(rng, deha.config())};
    SegmentView v = viewOf(ws);
    SegmentAllocation a = alloc.allocate(v);
    ASSERT_TRUE(a.feasible());

    // Serial latency equals the sum of op latencies.
    Cycles sum = 0;
    for (std::size_t i = 0; i < ws.size(); ++i)
        sum += cost.opLatency(ws[i], a.allocs[i]);
    EXPECT_EQ(a.intraLatency, sum);

    // And it is no worse than the bare minimal allocation.
    Cycles minimal = 0;
    for (const OpWorkload &w : ws)
        minimal += cost.opLatency(w, OpAllocation{w.weightTiles, 0, 0});
    EXPECT_LE(a.intraLatency, minimal);
}

} // namespace
} // namespace cmswitch
