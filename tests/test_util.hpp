/**
 * @file
 * Shared helpers for the test suite: small chip configs, random
 * workload generators, and tiny hand-built graphs.
 */

#ifndef CMSWITCH_TESTS_TEST_UTIL_HPP
#define CMSWITCH_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include "arch/chip_config.hpp"
#include "compiler/allocator.hpp"
#include "cost/cost_model.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"
#include "support/strings.hpp"

namespace cmswitch::testing {

/** A midget chip: @p rowsCols x @p rowsCols arrays, a handful of them. */
inline ChipConfig
tinyChip(s64 arrays = 8, s64 rowsCols = 16)
{
    ChipConfig c;
    c.name = "tiny";
    c.numSwitchArrays = arrays;
    c.arrayRows = rowsCols;
    c.arrayCols = rowsCols;
    c.bufferBytes = 64;
    c.internalBwPerArray = 2.0;
    c.externBw = 4.0;
    c.bufferBw = 1.0;
    c.opPerCycle = 8.0;
    c.writeRowLatency = 2;
    c.fuOpsPerCycle = 16.0;
    return c;
}

/** Random CIM workload small enough for exhaustive allocation. */
inline OpWorkload
randomWorkload(Rng &rng, const ChipConfig &chip, s64 max_tiles = 3)
{
    OpWorkload w;
    w.name = "rnd";
    w.kind = OpKind::kMatMul;
    w.weightTiles = rng.nextInt(1, max_tiles);
    w.utilization = rng.nextDouble(0.4, 1.0);
    w.movingRows = rng.nextInt(1, 64);
    s64 weight_elems = static_cast<s64>(
        static_cast<double>(w.weightTiles * chip.arrayRows * chip.arrayCols)
        * w.utilization);
    w.weightBytes = std::max<s64>(1, weight_elems);
    w.macs = w.weightBytes * w.movingRows;
    w.inputBytes = rng.nextInt(16, 4096);
    w.outputBytes = rng.nextInt(16, 4096);
    w.vectorElems = rng.nextInt(0, 256);
    w.dynamicWeights = rng.nextInt(0, 4) == 0;
    w.aiMacsPerByte = static_cast<double>(w.macs)
                    / static_cast<double>(w.trafficBytes());
    return w;
}

/** Two segment allocations agree field for field. */
inline void
expectSameAllocation(const SegmentAllocation &a, const SegmentAllocation &b)
{
    EXPECT_EQ(a.intraLatency, b.intraLatency);
    EXPECT_EQ(a.reusedArrays, b.reusedArrays);
    EXPECT_EQ(a.plan.computeArrays, b.plan.computeArrays);
    EXPECT_EQ(a.plan.memoryArrays, b.plan.memoryArrays);
    ASSERT_EQ(a.allocs.size(), b.allocs.size());
    for (std::size_t i = 0; i < a.allocs.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a.allocs[i].computeArrays, b.allocs[i].computeArrays);
        EXPECT_EQ(a.allocs[i].memInArrays, b.allocs[i].memInArrays);
        EXPECT_EQ(a.allocs[i].memOutArrays, b.allocs[i].memOutArrays);
    }
}

/** Chain graph of @p n matmuls: in -> fc0 -> relu -> fc1 -> ... */
inline Graph
chainMlp(s64 n, s64 dim = 32, s64 batch = 2)
{
    Graph g("chain" + std::to_string(n));
    TensorId x = g.addTensor("x", Shape{batch, dim}, DType::kInt8,
                             TensorKind::kInput);
    for (s64 i = 0; i < n; ++i) {
        TensorId w = g.addTensor(concat("w", i), Shape{dim, dim},
                                 DType::kInt8, TensorKind::kWeight);
        bool last = i + 1 == n;
        TensorId y = g.addTensor(concat("y", i), Shape{batch, dim},
                                 DType::kInt8,
                                 last ? TensorKind::kOutput
                                      : TensorKind::kActivation);
        Operator op;
        op.name = "fc" + std::to_string(i);
        op.kind = OpKind::kMatMul;
        op.inputs = {x, w};
        op.outputs = {y};
        g.addOp(op);
        x = y;
    }
    g.validate();
    return g;
}

} // namespace cmswitch::testing

#endif // CMSWITCH_TESTS_TEST_UTIL_HPP
