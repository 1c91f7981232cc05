/**
 * @file
 * Recipe-built random graphs for the incremental-compilation tests: a
 * graph is a chain of matmul steps with activation and residual
 * interludes, built from an explicit recipe so that a mutation (shape
 * bump, op insert, op delete, residual rewire) is a small, valid edit
 * by construction.
 */

#ifndef CMSWITCH_TESTS_FUZZ_RECIPE_HPP
#define CMSWITCH_TESTS_FUZZ_RECIPE_HPP

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/random.hpp"
#include "support/strings.hpp"

namespace cmswitch::testing {

struct RecipeStep
{
    s64 outDim;    ///< matmul output width
    int interlude; ///< 0 relu, 1 gelu, 2 set-residual, 3 close-residual,
                   ///< 4 none
};

struct FuzzRecipe
{
    s64 batch = 1;
    s64 inDim = 16;
    std::vector<RecipeStep> steps;
};

inline FuzzRecipe
randomRecipe(Rng &rng)
{
    FuzzRecipe recipe;
    recipe.batch = rng.nextInt(1, 4);
    recipe.inDim = 8 * rng.nextInt(2, 6);
    s64 ops = rng.nextInt(3, 8);
    for (s64 i = 0; i < ops; ++i)
        recipe.steps.push_back({8 * rng.nextInt(2, 6),
                                static_cast<int>(rng.nextInt(0, 4))});
    return recipe;
}

inline Graph
buildRecipe(const FuzzRecipe &recipe)
{
    Graph g("fuzz-delta");
    s64 dim = recipe.inDim;
    TensorId cursor = g.addTensor("x", Shape{recipe.batch, dim},
                                  DType::kInt8, TensorKind::kInput);
    TensorId residual = kInvalidTensor;
    for (std::size_t i = 0; i < recipe.steps.size(); ++i) {
        const RecipeStep &step = recipe.steps[i];
        TensorId w = g.addTensor(concat("w", i),
                                 Shape{dim, step.outDim}, DType::kInt8,
                                 TensorKind::kWeight);
        TensorId y = g.addTensor(concat("y", i),
                                 Shape{recipe.batch, step.outDim});
        Operator mm;
        mm.name = "mm" + std::to_string(i);
        mm.kind = OpKind::kMatMul;
        mm.inputs = {cursor, w};
        mm.outputs = {y};
        g.addOp(mm);
        cursor = y;
        dim = step.outDim;

        switch (step.interlude) {
          case 0:
          case 1: {
            TensorId a = g.addTensor("a" + std::to_string(i),
                                     Shape{recipe.batch, dim});
            Operator act;
            act.name = "act" + std::to_string(i);
            act.kind = OpKind::kActivation;
            act.activationName = step.interlude == 0 ? "relu" : "gelu";
            act.inputs = {cursor};
            act.outputs = {a};
            g.addOp(act);
            cursor = a;
            break;
          }
          case 2:
            residual = cursor;
            break;
          case 3:
            if (residual != kInvalidTensor
                && g.tensor(residual).shape == g.tensor(cursor).shape) {
                TensorId s = g.addTensor("res" + std::to_string(i),
                                         Shape{recipe.batch, dim});
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
          default:
            break;
        }
    }
    g.tensor(cursor).kind = TensorKind::kOutput;
    g.validate();
    return g;
}

/** Apply one random single-op mutation in place; returns its name. */
inline const char *
mutateRecipe(FuzzRecipe &recipe, Rng &rng)
{
    s64 n = static_cast<s64>(recipe.steps.size());
    switch (rng.nextInt(0, 3)) {
      case 0: // shape bump: widen one matmul
        recipe.steps[rng.nextInt(0, static_cast<int>(n) - 1)].outDim += 8;
        return "shape-bump";
      case 1: { // op insert: splice a fresh matmul step anywhere
        RecipeStep step{8 * rng.nextInt(2, 6),
                        static_cast<int>(rng.nextInt(0, 1))};
        recipe.steps.insert(
            recipe.steps.begin() + rng.nextInt(0, static_cast<int>(n)),
            step);
        return "op-insert";
      }
      case 2: // op delete (keep at least two steps)
        if (n > 2) {
            recipe.steps.erase(recipe.steps.begin()
                               + rng.nextInt(0, static_cast<int>(n) - 1));
            return "op-delete";
        }
        recipe.steps[0].outDim += 8;
        return "shape-bump";
      default: { // edge rewire: retarget/toggle a residual marker
        int &interlude =
            recipe.steps[rng.nextInt(0, static_cast<int>(n) - 1)].interlude;
        interlude = interlude == 2 ? 3 : 2;
        return "edge-rewire";
      }
    }
}

} // namespace cmswitch::testing

#endif // CMSWITCH_TESTS_FUZZ_RECIPE_HPP
