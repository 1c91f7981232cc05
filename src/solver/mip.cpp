#include "solver/mip.hpp"

#include <cmath>
#include <queue>

#include "obs/obs.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace {

/** A node of the branch-and-bound tree: bound overrides per variable. */
struct Node
{
    double bound;                          // LP relaxation objective
    std::vector<std::pair<VarId, std::pair<double, double>>> tightened;
};

struct NodeOrder
{
    bool operator()(const Node &a, const Node &b) const
    {
        return a.bound > b.bound; // best (lowest) bound first
    }
};

using OpenQueue = std::priority_queue<Node, std::vector<Node>, NodeOrder>;

/** Index of the most fractional integer variable, or -1 if integral. */
VarId
pickBranchVar(const LinearModel &model, const std::vector<double> &values,
              double tol)
{
    VarId best = -1;
    double best_frac = tol;
    for (VarId v = 0; v < model.numVars(); ++v) {
        if (model.var(v).type != VarType::kInteger)
            continue;
        double x = values[static_cast<std::size_t>(v)];
        double frac = std::abs(x - std::round(x));
        if (frac > best_frac) {
            best_frac = frac;
            best = v;
        }
    }
    return best;
}

} // namespace

static MipResult solveMipImpl(const LinearModel &model,
                              const MipOptions &options);

MipResult
solveMip(const LinearModel &model, const MipOptions &options)
{
    obs::Span span("mip.solve", "solver");
    MipResult result = solveMipImpl(model, options);
    span.arg("nodes", result.nodesExplored);
    obs::count(obs::Met::kMipSolves);
    obs::count(obs::Met::kMipNodes, result.nodesExplored);
    return result;
}

static MipResult
solveMipImpl(const LinearModel &model, const MipOptions &options)
{
    const double dir = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

    MipResult result;
    result.status = SolveStatus::kInfeasible;

    // Root relaxation. It is the root node of the tree: it either
    // yields the incumbent outright or branches into the first two
    // children, and is never queued and solved a second time.
    LpSolution root = solveLp(model);
    ++result.nodesExplored;
    if (root.status == SolveStatus::kInfeasible
        || root.status == SolveStatus::kLimit) {
        result.status = root.status;
        return result;
    }
    cmswitch_assert(root.status != SolveStatus::kUnbounded
                        || model.objective().terms().empty(),
                    "unbounded MIPs are not supported");

    OpenQueue open;
    bool have_incumbent = false;
    double incumbent_obj = 0.0; // minimisation direction

    // Take a node's optimal relaxation: prune it against the incumbent,
    // record it as the new incumbent if integral, else branch on its
    // most fractional variable.
    auto settle = [&](const Node &node, const LpSolution &lp) {
        double lp_obj = dir * lp.objective;
        if (have_incumbent && lp_obj >= incumbent_obj - options.gapAbs)
            return;

        VarId branch = pickBranchVar(model, lp.values, options.intTol);
        if (branch < 0) {
            // Integral: new incumbent.
            have_incumbent = true;
            incumbent_obj = lp_obj;
            result.status = SolveStatus::kOptimal;
            result.objective = lp.objective;
            result.values = lp.values;
            // Snap near-integers exactly.
            for (VarId v = 0; v < model.numVars(); ++v) {
                if (model.var(v).type == VarType::kInteger) {
                    result.values[static_cast<std::size_t>(v)] =
                        std::round(result.values[static_cast<std::size_t>(v)]);
                }
            }
            return;
        }

        double x = lp.values[static_cast<std::size_t>(branch)];
        Node down = node;
        down.bound = lp_obj;
        down.tightened.push_back(
            {branch, {-kInfinity, std::floor(x)}});
        Node up = node;
        up.bound = lp_obj;
        up.tightened.push_back(
            {branch, {std::ceil(x), kInfinity}});
        open.push(std::move(down));
        open.push(std::move(up));
    };

    if (root.status == SolveStatus::kOptimal)
        settle(Node{}, root);
    if (open.empty())
        return result; // decided at the root: no bound changes to apply

    // One scratch model reused across nodes: a node's bound overrides
    // are applied before its relaxation and rolled back afterwards,
    // instead of deep-copying the model (variable names, constraint
    // term lists) once per node.
    LinearModel scratch = model;
    std::vector<std::pair<VarId, std::pair<double, double>>> saved_bounds;

    while (!open.empty() && result.nodesExplored < options.maxNodes) {
        double best_known = have_incumbent ? incumbent_obj : kInfinity;

        Node node = open.top();
        open.pop();
        if (node.bound >= best_known - options.gapAbs)
            continue; // bound-pruned

        saved_bounds.clear();
        for (const auto &[var, bounds] : node.tightened) {
            VarDef &def = scratch.var(var);
            saved_bounds.push_back({var, {def.lower, def.upper}});
            def.lower = std::max(def.lower, bounds.first);
            def.upper = std::min(def.upper, bounds.second);
        }
        LpSolution lp = solveLp(scratch);
        // Roll back in reverse so repeated overrides of one variable
        // restore its original bounds exactly.
        for (std::size_t b = saved_bounds.size(); b-- > 0;) {
            VarDef &def = scratch.var(saved_bounds[b].first);
            def.lower = saved_bounds[b].second.first;
            def.upper = saved_bounds[b].second.second;
        }
        ++result.nodesExplored;
        if (lp.status == SolveStatus::kOptimal)
            settle(node, lp); // otherwise an infeasible subtree
    }
    if (!open.empty() && !have_incumbent)
        result.status = SolveStatus::kLimit;
    return result;
}

} // namespace cmswitch
