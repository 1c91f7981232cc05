/**
 * @file
 * Cross-cutting fuzz suite: random small graphs are compiled by every
 * compiler and each program must (1) pass structural validation,
 * (2) reproduce the reference executor bit-exactly through the tiled
 * functional simulator, and (3) re-price on the timing simulator to
 * exactly the compiler's own latency claim (pipelined compilers).
 */

#include <gtest/gtest.h>

#include "baselines/baseline.hpp"
#include "compiler/warm_state.hpp"
#include "metaop/printer.hpp"
#include "metaop/parser.hpp"
#include "metaop/validator.hpp"
#include "sim/functional.hpp"
#include "sim/timing.hpp"
#include "support/serialize.hpp"
#include "fuzz_recipe.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

/** Random DAG: a chain of matmuls with occasional residual adds and
 *  FU interludes; dims kept small so functional execution is fast. */
Graph
randomGraph(Rng &rng)
{
    Graph g("fuzz");
    s64 dim = 8 * rng.nextInt(2, 6);
    s64 batch = rng.nextInt(1, 4);
    TensorId cursor = g.addTensor("x", Shape{batch, dim}, DType::kInt8,
                                  TensorKind::kInput);
    TensorId residual = kInvalidTensor;
    s64 ops = rng.nextInt(2, 6);
    for (s64 i = 0; i < ops; ++i) {
        s64 out_dim = 8 * rng.nextInt(2, 6);
        TensorId w = g.addTensor(concat("w", i),
                                 Shape{dim, out_dim}, DType::kInt8,
                                 TensorKind::kWeight);
        TensorId y = g.addTensor(concat("y", i),
                                 Shape{batch, out_dim});
        Operator mm;
        mm.name = "mm" + std::to_string(i);
        mm.kind = OpKind::kMatMul;
        mm.inputs = {cursor, w};
        mm.outputs = {y};
        g.addOp(mm);
        cursor = y;
        dim = out_dim;

        switch (rng.nextInt(0, 3)) {
          case 0: { // activation interlude
            TensorId a = g.addTensor("a" + std::to_string(i),
                                     Shape{batch, dim});
            Operator act;
            act.name = "act" + std::to_string(i);
            act.kind = OpKind::kActivation;
            act.activationName = rng.nextInt(0, 1) ? "relu" : "gelu";
            act.inputs = {cursor};
            act.outputs = {a};
            g.addOp(act);
            cursor = a;
            break;
          }
          case 1: { // remember a residual source
            residual = cursor;
            break;
          }
          case 2: { // close a residual if shapes line up
            if (residual != kInvalidTensor
                && g.tensor(residual).shape == g.tensor(cursor).shape) {
                TensorId s = g.addTensor("res" + std::to_string(i),
                                         Shape{batch, dim});
                Operator add;
                add.name = "add" + std::to_string(i);
                add.kind = OpKind::kElementwiseAdd;
                add.inputs = {cursor, residual};
                add.outputs = {s};
                g.addOp(add);
                cursor = s;
                residual = kInvalidTensor;
            }
            break;
          }
          default:
            break;
        }
    }
    g.tensor(cursor).kind = TensorKind::kOutput;
    g.validate();
    return g;
}

class CompilerFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CompilerFuzz, EveryCompilerEveryInvariant)
{
    Rng rng(static_cast<u64>(GetParam()) * 2654435761u + 3);
    ChipConfig chip = testing::tinyChip(rng.nextInt(6, 14));
    Graph g = randomGraph(rng);
    Deha deha(chip);

    for (auto &compiler : makeAllCompilers(chip)) {
        CompileResult r = compiler->compile(g);

        // (1) structural validity.
        ValidationReport report = validateProgram(r.program, deha);
        EXPECT_TRUE(report.ok())
            << compiler->name() << ": " << report.summary();

        // (2) numerics: tiled execution == reference, bit for bit.
        EXPECT_EQ(verifyProgram(g, r.program, deha), 0) << compiler->name();

        // (3) timing: the simulator re-derives the compiler's claim.
        TimingReport t = TimingSimulator(deha).run(r.program);
        if (compiler->name() == "cmswitch"
            || compiler->name() == "cim-mlc") {
            EXPECT_EQ(t.total(), r.totalCycles()) << compiler->name();
        } else {
            EXPECT_LE(t.total(), r.totalCycles()) << compiler->name();
        }

        // (4) the textual program round-trips losslessly.
        MetaProgram back = parseProgram(printProgram(r.program));
        EXPECT_EQ(printProgram(back), printProgram(r.program))
            << compiler->name();

        // (5) dual-mode never loses to its own fixed-mode baseline.
        if (compiler->name() == "cmswitch") {
            auto mlc = makeCimMlcCompiler(chip);
            EXPECT_LE(r.totalCycles(), mlc->compile(g).totalCycles());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz, ::testing::Range(0, 15));

class SearchDiffFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SearchDiffFuzz, FastAndReferencePlansIdenticalOnRandomGraphs)
{
    // Random-shape counterpart of tests/segmenter_diff_test.cpp: on
    // arbitrary DAGs (residuals, activation interludes, random dims)
    // the optimized search stack must still serialize byte-identically
    // to the retained pre-optimization path, for both the DP compiler
    // (cmswitch) and a greedy one sharing the allocator (cim-mlc).
    Rng rng(static_cast<u64>(GetParam()) * 0x9e3779b97f4a7c15ull + 11);
    ChipConfig chip = testing::tinyChip(rng.nextInt(6, 14));
    Graph g = randomGraph(rng);

    for (const char *name : {"cmswitch", "cim-mlc"}) {
        auto fast = makeCompilerByName(name, chip);
        auto reference = makeCompilerByName(name, chip,
                                            /*referenceSearch=*/true);
        CompileResult a = fast->compile(g);
        CompileResult b = reference->compile(g);
        a.compileSeconds = 0.0;
        b.compileSeconds = 0.0;
        BinaryWriter wa, wb;
        a.writeBinary(wa);
        b.writeBinary(wb);
        EXPECT_TRUE(wa.bytes() == wb.bytes())
            << name << ": fast and reference plans diverge on seed "
            << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchDiffFuzz, ::testing::Range(0, 12));

/**
 * Incremental (delta) compilation fuzz: compile a random DAG, retain
 * its warm state, apply ONE random structural mutation (shape bump, op
 * insert, op delete, residual-edge rewire), and demand that the warm
 * compile of the mutant — seeded with the pre-mutation neighbor state —
 * serializes byte-identically to a cold compile of the mutant.
 *
 * Graphs are built from an explicit recipe (fuzz_recipe.hpp) so a
 * mutation is a small, valid edit by construction (mutating a built
 * Graph in place would have to re-derive every downstream shape by
 * hand).
 */
using testing::buildRecipe;
using testing::FuzzRecipe;
using testing::mutateRecipe;
using testing::randomRecipe;

class IncrementalDiffFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(IncrementalDiffFuzz, DeltaCompileMatchesColdOnMutatedGraphs)
{
    Rng rng(static_cast<u64>(GetParam()) * 0x9e3779b97f4a7c15ull + 29);
    ChipConfig chip = testing::tinyChip(rng.nextInt(6, 14));
    FuzzRecipe recipe = randomRecipe(rng);
    Graph original = buildRecipe(recipe);

    auto compiler = makeCmSwitchCompiler(chip);
    std::shared_ptr<CompilerWarmState> retained;
    compiler->compileWarm(original, nullptr, &retained, nullptr);
    ASSERT_NE(retained, nullptr);

    FuzzRecipe mutant = recipe;
    const char *kind = mutateRecipe(mutant, rng);
    Graph mutated = buildRecipe(mutant);

    CompileResult cold = compiler->compile(mutated);
    std::shared_ptr<CompilerWarmState> mutant_state;
    WarmReuseStats stats;
    CompileResult warm = compiler->compileWarm(mutated, retained,
                                               &mutant_state, &stats);

    cold.compileSeconds = 0.0;
    warm.compileSeconds = 0.0;
    BinaryWriter wc, ww;
    cold.writeBinary(wc);
    warm.writeBinary(ww);
    EXPECT_TRUE(wc.bytes() == ww.bytes())
        << kind << " mutation: delta compile diverged from cold on seed "
        << GetParam();

    // The differ must never reuse DP rows across the changed boundary:
    // imports are bounded by the fully-equal meta prefix.
    ASSERT_NE(mutant_state, nullptr);
    EXPECT_LE(stats.dpRowsReused,
              warmDpSafePrefix(mutant_state->ops, retained->ops))
        << kind;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDiffFuzz,
                         ::testing::Range(0, 12));

} // namespace
} // namespace cmswitch
