#include "solver/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace {

constexpr double kEps = 1e-9;

/**
 * Dense tableau with explicit basis bookkeeping. Columns: structural
 * (shifted, upper-bound rows added as constraints) then slack then
 * artificial; the rightmost column is the RHS.
 */
class Tableau
{
  public:
    // rows x cols payload, plus objective row handled separately.
    std::vector<std::vector<double>> a; // constraint rows, includes rhs
    std::vector<double> obj;            // phase objective row (reduced costs)
    double objValue = 0.0;
    std::vector<int> basis;             // basic variable per row
    int numCols = 0;                    // structural+slack+artificial

    int rows() const { return static_cast<int>(a.size()); }
    int cols() const { return numCols; }
    double rhs(int r) const { return a[static_cast<std::size_t>(r)].back(); }

    /** One pivot on (row, col) with full elimination. */
    void
    pivot(int prow, int pcol)
    {
        auto &prow_vec = a[static_cast<std::size_t>(prow)];
        double pv = prow_vec[static_cast<std::size_t>(pcol)];
        for (double &v : prow_vec)
            v /= pv;
        for (int r = 0; r < rows(); ++r) {
            if (r == prow)
                continue;
            auto &row = a[static_cast<std::size_t>(r)];
            double factor = row[static_cast<std::size_t>(pcol)];
            if (std::abs(factor) < kEps)
                continue;
            for (std::size_t c = 0; c < row.size(); ++c)
                row[c] -= factor * prow_vec[c];
        }
        double ofactor = obj[static_cast<std::size_t>(pcol)];
        if (std::abs(ofactor) > 0.0) {
            for (std::size_t c = 0; c < obj.size(); ++c)
                obj[c] -= ofactor * prow_vec[c];
            objValue -= ofactor * prow_vec.back();
        }
        basis[static_cast<std::size_t>(prow)] = pcol;
    }

    /**
     * Primal simplex iterations (minimization; enter on negative reduced
     * cost, Bland's rule). Returns kOptimal or kUnbounded.
     */
    SolveStatus
    iterate()
    {
        const int max_iters = 20000 + 50 * (rows() + cols());
        for (int iter = 0; iter < max_iters; ++iter) {
            // Bland: smallest-index column with negative reduced cost.
            int pcol = -1;
            for (int c = 0; c < cols(); ++c) {
                if (obj[static_cast<std::size_t>(c)] < -kEps) {
                    pcol = c;
                    break;
                }
            }
            if (pcol < 0)
                return SolveStatus::kOptimal;

            // Ratio test; Bland ties by smallest basis index.
            int prow = -1;
            double best_ratio = 0.0;
            for (int r = 0; r < rows(); ++r) {
                double coef = a[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(pcol)];
                if (coef > kEps) {
                    double ratio = rhs(r) / coef;
                    if (prow < 0 || ratio < best_ratio - kEps
                        || (std::abs(ratio - best_ratio) <= kEps
                            && basis[static_cast<std::size_t>(r)]
                               < basis[static_cast<std::size_t>(prow)])) {
                        prow = r;
                        best_ratio = ratio;
                    }
                }
            }
            if (prow < 0)
                return SolveStatus::kUnbounded;
            pivot(prow, pcol);
        }
        return SolveStatus::kLimit;
    }
};

} // namespace

const char *
solveStatusName(SolveStatus status)
{
    switch (status) {
      case SolveStatus::kOptimal: return "optimal";
      case SolveStatus::kInfeasible: return "infeasible";
      case SolveStatus::kUnbounded: return "unbounded";
      case SolveStatus::kLimit: return "limit";
    }
    cmswitch_panic("unknown solve status");
}

LpSolution
solveLp(const LinearModel &model)
{
    obs::count(obs::Met::kLpSolves);
    const s64 n = model.numVars();

    // Shift every variable to lower bound 0; upper bounds become rows.
    std::vector<double> shift(static_cast<std::size_t>(n), 0.0);
    for (VarId v = 0; v < n; ++v) {
        const VarDef &def = model.var(v);
        cmswitch_assert(def.lower > -kInfinity,
                        "free variables are not supported: ", def.name);
        shift[static_cast<std::size_t>(v)] = def.lower;
    }

    struct Row
    {
        std::vector<double> coef;
        Rel rel;
        double rhs;
    };
    std::vector<Row> raw_rows;

    auto add_row = [&](const LinearExpr &expr, Rel rel, double rhs) {
        Row row;
        row.coef.assign(static_cast<std::size_t>(n), 0.0);
        double shift_amount = 0.0;
        for (const LinearTerm &t : expr.terms()) {
            row.coef[static_cast<std::size_t>(t.var)] += t.coef;
            shift_amount += t.coef * shift[static_cast<std::size_t>(t.var)];
        }
        row.rel = rel;
        row.rhs = rhs - expr.constant() - shift_amount;
        raw_rows.push_back(std::move(row));
    };

    for (const Constraint &c : model.constraints())
        add_row(c.expr, c.rel, c.rhs);
    for (VarId v = 0; v < n; ++v) {
        const VarDef &def = model.var(v);
        if (def.upper < kInfinity) {
            LinearExpr e;
            e.add(v, 1.0);
            add_row(e, Rel::kLe, def.upper);
        }
    }

    // Normalise to rhs >= 0 and decide slack/artificial structure.
    int m = static_cast<int>(raw_rows.size());
    int num_slack = 0;
    for (Row &row : raw_rows) {
        if (row.rhs < 0.0) {
            for (double &c : row.coef)
                c = -c;
            row.rhs = -row.rhs;
            if (row.rel == Rel::kLe)
                row.rel = Rel::kGe;
            else if (row.rel == Rel::kGe)
                row.rel = Rel::kLe;
        }
        if (row.rel != Rel::kEq)
            ++num_slack;
    }

    int total_cols = static_cast<int>(n) + num_slack + m; // + artificials
    Tableau t;
    std::vector<int> artificials;

    // Fill the tableau from the normalised rows: slack basis for <=
    // rows, artificial basis for >= and == rows.
    t.numCols = total_cols;
    t.a.assign(static_cast<std::size_t>(m),
               std::vector<double>(static_cast<std::size_t>(total_cols) + 1,
                                   0.0));
    t.basis.assign(static_cast<std::size_t>(m), -1);
    int slack_cursor = static_cast<int>(n);
    int art_cursor = static_cast<int>(n) + num_slack;
    for (int r = 0; r < m; ++r) {
        Row &row = raw_rows[static_cast<std::size_t>(r)];
        auto &trow = t.a[static_cast<std::size_t>(r)];
        for (s64 c = 0; c < n; ++c)
            trow[static_cast<std::size_t>(c)] =
                row.coef[static_cast<std::size_t>(c)];
        trow.back() = row.rhs;
        if (row.rel == Rel::kLe) {
            trow[static_cast<std::size_t>(slack_cursor)] = 1.0;
            t.basis[static_cast<std::size_t>(r)] = slack_cursor;
            ++slack_cursor;
        } else if (row.rel == Rel::kGe) {
            trow[static_cast<std::size_t>(slack_cursor)] = -1.0;
            ++slack_cursor;
            trow[static_cast<std::size_t>(art_cursor)] = 1.0;
            t.basis[static_cast<std::size_t>(r)] = art_cursor;
            artificials.push_back(art_cursor);
            ++art_cursor;
        } else {
            trow[static_cast<std::size_t>(art_cursor)] = 1.0;
            t.basis[static_cast<std::size_t>(r)] = art_cursor;
            artificials.push_back(art_cursor);
            ++art_cursor;
        }
    }

    // Phase 1: minimise the sum of artificials.
    t.obj.assign(static_cast<std::size_t>(total_cols) + 1, 0.0);
    t.objValue = 0.0;
    if (!artificials.empty()) {
        for (int c : artificials)
            t.obj[static_cast<std::size_t>(c)] = 1.0;
        // Price out the basic artificials.
        for (int r = 0; r < m; ++r) {
            int b = t.basis[static_cast<std::size_t>(r)];
            if (std::find(artificials.begin(), artificials.end(), b)
                != artificials.end()) {
                const auto &row = t.a[static_cast<std::size_t>(r)];
                for (std::size_t c = 0; c < t.obj.size(); ++c)
                    t.obj[c] -= row[c];
                t.objValue -= row.back();
            }
        }
        SolveStatus st = t.iterate();
        if (st == SolveStatus::kLimit)
            return LpSolution{SolveStatus::kLimit, 0.0, {}};
        // Objective value of phase 1 is -objValue (we priced out).
        if (-t.objValue > 1e-7)
            return LpSolution{SolveStatus::kInfeasible, 0.0, {}};
        // Drive any artificial still basic (at value 0) out of the basis.
        for (int r = 0; r < m; ++r) {
            int b = t.basis[static_cast<std::size_t>(r)];
            if (std::find(artificials.begin(), artificials.end(), b)
                == artificials.end()) {
                continue;
            }
            int pcol = -1;
            for (int c = 0; c < static_cast<int>(n) + num_slack; ++c) {
                if (std::abs(t.a[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(c)]) > kEps) {
                    pcol = c;
                    break;
                }
            }
            if (pcol >= 0)
                t.pivot(r, pcol);
            // Otherwise the row is redundant; the artificial stays at 0.
        }
    }

    // Phase 2: original objective (converted to minimisation) over the
    // structural + slack columns; artificial columns are forbidden.
    const double dir = model.sense() == Sense::kMinimize ? 1.0 : -1.0;
    std::fill(t.obj.begin(), t.obj.end(), 0.0);
    t.objValue = 0.0;
    for (const LinearTerm &term : model.objective().terms())
        t.obj[static_cast<std::size_t>(term.var)] += dir * term.coef;
    for (int c : artificials)
        t.obj[static_cast<std::size_t>(c)] = 1e30; // never re-enter
    // Price out basic columns.
    for (int r = 0; r < m; ++r) {
        int b = t.basis[static_cast<std::size_t>(r)];
        double coef = t.obj[static_cast<std::size_t>(b)];
        if (std::abs(coef) > 0.0) {
            const auto &row = t.a[static_cast<std::size_t>(r)];
            for (std::size_t c = 0; c < t.obj.size(); ++c)
                t.obj[c] -= coef * row[c];
            t.objValue -= coef * row.back();
        }
    }

    SolveStatus st = t.iterate();
    if (st == SolveStatus::kUnbounded)
        return LpSolution{SolveStatus::kUnbounded, 0.0, {}};
    if (st == SolveStatus::kLimit)
        return LpSolution{SolveStatus::kLimit, 0.0, {}};

    // Extract: basic variables take their rhs, others sit at 0 (then
    // unshift to the original space).
    std::vector<double> values(static_cast<std::size_t>(n), 0.0);
    for (int r = 0; r < m; ++r) {
        int b = t.basis[static_cast<std::size_t>(r)];
        if (b < static_cast<int>(n))
            values[static_cast<std::size_t>(b)] = t.rhs(r);
    }
    for (VarId v = 0; v < n; ++v)
        values[static_cast<std::size_t>(v)] += shift[static_cast<std::size_t>(v)];

    double obj = LinearModel::evaluate(model.objective(), values);
    return LpSolution{SolveStatus::kOptimal, obj, std::move(values)};
}

} // namespace cmswitch
