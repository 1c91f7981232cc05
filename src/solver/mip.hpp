/**
 * @file
 * Branch-and-bound mixed-integer programming on top of the simplex LP
 * relaxation. This is the repo's stand-in for Gurobi (paper Sec. 4.3.2);
 * it is exact on the allocation problems CMSwitch generates, which the
 * tests certify against exhaustive enumeration.
 */

#ifndef CMSWITCH_SOLVER_MIP_HPP
#define CMSWITCH_SOLVER_MIP_HPP

#include "solver/model.hpp"
#include "solver/simplex.hpp"

namespace cmswitch {

/** Knobs for the branch-and-bound search. */
struct MipOptions
{
    s64 maxNodes = 200000;   ///< node budget before giving up (kLimit)
    double intTol = 1e-6;    ///< integrality tolerance
    double gapAbs = 1e-9;    ///< prune when bound >= incumbent - gapAbs
};

/** Outcome of a MIP solve. */
struct MipResult
{
    SolveStatus status = SolveStatus::kInfeasible;
    double objective = 0.0;
    std::vector<double> values;
    s64 nodesExplored = 0;
};

/**
 * Solve @p model to optimality (best-first branch-and-bound, branching
 * on the most fractional integer variable). Continuous variables are
 * allowed and keep their LP values.
 *
 * The root relaxation is the root node: an integral root is the answer
 * (one node, one LP solve), and a fractional one branches directly, so
 * no relaxation is solved twice. The model is copied into a bound-
 * override scratch only when the root branches.
 */
MipResult solveMip(const LinearModel &model, const MipOptions &options = {});

} // namespace cmswitch

#endif // CMSWITCH_SOLVER_MIP_HPP
