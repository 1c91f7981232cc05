/**
 * @file
 * Two-phase dense tableau simplex for the LP relaxations used by the
 * branch-and-bound MILP solver. Problem sizes in this repo are tiny
 * (tens of variables), so a dense tableau with Bland's anti-cycling
 * rule is both simple and fast enough.
 */

#ifndef CMSWITCH_SOLVER_SIMPLEX_HPP
#define CMSWITCH_SOLVER_SIMPLEX_HPP

#include <vector>

#include "solver/model.hpp"

namespace cmswitch {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kLimit };

const char *solveStatusName(SolveStatus status);

/** Result of an LP solve; values are in the original variable space. */
struct LpSolution
{
    SolveStatus status = SolveStatus::kInfeasible;
    double objective = 0.0;
    std::vector<double> values;
};

/**
 * Solve the continuous relaxation of @p model (integrality ignored).
 * Honors variable bounds and all constraint senses.
 */
LpSolution solveLp(const LinearModel &model);

} // namespace cmswitch

#endif // CMSWITCH_SOLVER_SIMPLEX_HPP
