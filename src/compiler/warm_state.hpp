/**
 * @file
 * Retained plan-search state for incremental (delta) compilation.
 *
 * A generative serving workload compiles one near-identical graph per
 * KV bucket; a cold compile rebuilds every range signature and re-runs
 * the allocator for structures the previous request already priced.
 * CompilerWarmState is the search state one compile retains so a
 * *neighbor* request (same model family, slightly different shapes) can
 * skip the redundant work:
 *
 *  - per-op structural metadata (the signature fragment plus the
 *    dependency/liveness facts the DP folds into its states), used to
 *    align the two flattened op lists and find the structurally equal
 *    prefix/suffix around the changed window;
 *  - the DP rows of every boundary, importable verbatim for the
 *    structurally-identical prefix;
 *  - the signature-keyed segment allocations with their positional
 *    range bindings, importable wherever the neighbor priced the same
 *    segment shape.
 *
 * Soundness contract (pinned by tests/incremental_diff_test.cpp and
 * the IncrementalDiffFuzz battery): every import below reproduces
 * byte-identical compile results versus a cold compile.
 *
 *  - Allocation import: rangeSignature equality implies an identical
 *    SegmentAllocation (the cross-run signature cache already rests on
 *    this). Positional import binds range [k, i) to the neighbor's
 *    allocation only when every op in the range is structurally equal
 *    (warmCommonPrefix) or equal under the suffix index shift
 *    (warmCommonSuffix), which makes the two range signatures equal by
 *    construction — without building either string.
 *  - DP-row import: row i depends only on ops [0, i) *metadata*
 *    including liveness facts that look ahead (lastConsumer,
 *    maxEdgeBytes) and the Eq. 2 rewrite grouping (groupId). Rows are
 *    imported only up to warmDpSafePrefix, which requires full
 *    per-position equality of all of it.
 *  - Bracket hints steer the allocator's probe order only; the
 *    bisection still converges to the same minimal feasible target
 *    (feasibility is monotone in the target), so emitted allocations
 *    are unchanged.
 *
 * State is only meaningful between compiles of the same configuration
 * (chip + compiler options + build); the service layer keys warm-state
 * artifacts by a structural family digest that folds all of it in
 * (src/service/incremental/structural_digest.hpp).
 */

#ifndef CMSWITCH_COMPILER_WARM_STATE_HPP
#define CMSWITCH_COMPILER_WARM_STATE_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/allocator.hpp"

namespace cmswitch {

class BinaryReader;
class BinaryWriter;

/** One op's dependency list. */
struct WarmEdges
{
    std::vector<s64> preds;      ///< direct predecessors (absolute indices)
    std::vector<s64> reuseBytes; ///< Eq. 6 bounds, parallel to preds

    bool operator==(const WarmEdges &other) const
    {
        return preds == other.preds && reuseBytes == other.reuseBytes;
    }
    bool operator<(const WarmEdges &other) const
    {
        return preds != other.preds ? preds < other.preds
                                    : reuseBytes < other.reuseBytes;
    }
};

/**
 * Hands out one shared, immutable WarmEdges per distinct list. Sliced
 * sub-ops fan in from the same slices, so a graph repeats a handful of
 * lists across all its ops (a 2-layer opt-13b decode: 10 distinct
 * lists over 1,092 ops and 54,664 edges); sharing them is most of what
 * keeps a retained state small.
 */
class WarmEdgeInterner
{
  public:
    std::shared_ptr<const WarmEdges> intern(WarmEdges edges);

  private:
    std::map<WarmEdges, std::shared_ptr<const WarmEdges>> lists_;
};

/** Structural metadata of one flattened op, as the DP search sees it. */
struct WarmOpMeta
{
    std::string sig; ///< opSignature fragment (workload shape)
    /** Dependency list, shared with every equal list (never null). */
    std::shared_ptr<const WarmEdges> edges = noEdges();
    s64 groupId = -1;      ///< Eq. 2 rewrite group (originating OpId)
    s64 lastConsumer = -1; ///< max consumer index, or -1
    s64 maxEdgeBytes = 0;  ///< widest outgoing edge
    s64 liveOutBytes = 0;  ///< bytes live past the network end

    const std::vector<s64> &preds() const { return edges->preds; }
    const std::vector<s64> &reuseBytes() const { return edges->reuseBytes; }

    /** Equality of everything a range signature folds in. */
    bool structEq(const WarmOpMeta &other) const
    {
        return sig == other.sig
            && (edges == other.edges || *edges == *other.edges);
    }

    /** structEq with this op's indices shifted down by @p delta
     *  (suffix alignment: this = current op, other = neighbor op). */
    bool structEqShifted(const WarmOpMeta &other, s64 delta) const;

    /**
     * structEqShifted relaxed edge-wise: each dependency may either
     * shift with the block (p' == p - delta) or stay absolute
     * (p' == p, a producer shared by both windows — common when
     * flattened sub-ops fan in from one sliced tensor). Absolute edges
     * leave the range-signature argument intact only while they stay
     * *outside* both ranges, so the largest absolute-matched
     * predecessor is reported through @p abs_max (-1 when all edges
     * shift); callers must check it against each served range's low
     * bound.
     */
    bool relaxedEqShifted(const WarmOpMeta &other, s64 delta,
                          s64 *abs_max) const;

    /** Equality of everything a DP row folds in. */
    bool fullEq(const WarmOpMeta &other) const
    {
        return structEq(other) && groupId == other.groupId
            && lastConsumer == other.lastConsumer
            && maxEdgeBytes == other.maxEdgeBytes
            && liveOutBytes == other.liveOutBytes;
    }

    /** The shared empty list a default-constructed op starts with. */
    static const std::shared_ptr<const WarmEdges> &noEdges();
};

/** One DP state of the fast search (Segmenter::runDp keeps its table
 *  in this type, so retaining it is a plain copy). */
struct WarmDpState
{
    s64 start = 0;      ///< segment [start, boundary)
    Cycles cost = 0;    ///< best prefix cost ending with that segment
    s64 prevStart = -1; ///< start of the previous segment, or -1
    s64 memArrays = 0;  ///< memory arrays of segment [start, boundary)
    s64 outBytes = 0;   ///< liveOutBytes(start, boundary, boundary)
};

/** Positional binding: range [lo, hi) resolved to allocation #index. */
struct WarmRangeBinding
{
    s64 lo = 0;
    s64 hi = 0;
    s64 allocIndex = 0;
};

/** Everything one compile retains for its neighbors. */
struct CompilerWarmState
{
    std::vector<WarmOpMeta> ops;

    /** dpRows[i] = the fast DP's states at boundary i (index 0 unused;
     *  empty when the producing search was greedy/reference). */
    std::vector<std::vector<WarmDpState>> dpRows;

    /** @{ Signature-keyed allocation pool (parallel vectors). */
    std::vector<std::string> sigs;
    std::vector<SegmentAllocation> allocs;
    /** @} */

    /** Ranges the producing run priced, bound to pool entries. */
    std::vector<WarmRangeBinding> ranges;

    s64 numOps() const { return static_cast<s64>(ops.size()); }
    bool empty() const { return ops.empty(); }

    /** @{ Exact binary round-trip for the warm-state sidecar artifact
     *  (service/incremental wraps it in a versioned envelope). */
    void writeBinary(BinaryWriter &w) const;
    static CompilerWarmState readBinary(BinaryReader &r); ///< throws
    /** @} */
};

/** What a warm compile actually reused (observability + tests). */
struct WarmReuseStats
{
    s64 dpRowsReused = 0;   ///< DP boundaries imported verbatim
    s64 sigImports = 0;     ///< allocations seeded into the sig cache
    s64 rangeImports = 0;   ///< positional range bindings served
    s64 importedSigHits = 0;///< sig-cache hits on imported entries
    s64 bracketHints = 0;   ///< allocator searches seeded with a bracket

    /** Nonzero iff the neighbor's state did any work for this compile. */
    s64 reuseScore() const
    {
        return dpRowsReused + rangeImports + importedSigHits + bracketHints;
    }
};

/** One aligned position: the matched neighbor index (or -1) plus the
 *  largest absolute-matched predecessor of the relaxed equality
 *  (see WarmOpMeta::relaxedEqShifted; -1 when every edge shifts). */
struct WarmMatch
{
    s64 index = -1;
    s64 absMax = -1;
};

/**
 * Align two op lists block-wise: result[i] is the neighbor position
 * matched to current op i. A greedy resync diff over the signature
 * fragments finds candidate blocks (graph edits are local: a KV-length
 * bump reshapes a few attention sub-ops per layer, an inserted op
 * shifts everything after it); every candidate match is verified with
 * relaxedEqShifted at its own shift, so a poor alignment can only lose
 * reuse, never soundness. Matched positions with one constant shift
 * form the runs whose interior ranges import positionally (subject to
 * the per-range absMax bound).
 *
 * Resync order: after a mismatch at (i, j) the walk re-anchors at the
 * pair (i + di, j + dj) with the smallest skip t = di + dj
 * (1 <= t <= 512), ties to the smallest di, that starts a run of 8
 * matching positions (shorter only at the end of a list); with none,
 * it steps past (i, j). Only pairs with equal signature hashes can
 * start a run, so the neighbor's positions are indexed by hash and the
 * resync tries those candidates alone: its cost follows the number of
 * hash-equal candidates within the skew bound, not the bound squared,
 * and a neighbor that shares no signatures (a batch change) costs one
 * index lookup per skipped position.
 */
std::vector<WarmMatch> warmAlign(const std::vector<WarmOpMeta> &cur,
                                 const std::vector<WarmOpMeta> &neighbor);

/** Longest structurally-equal prefix of two op lists (structEq). */
s64 warmCommonPrefix(const std::vector<WarmOpMeta> &cur,
                     const std::vector<WarmOpMeta> &neighbor);

/**
 * Longest structurally-equal suffix under the index shift
 * delta = cur.size() - neighbor.size(), capped to @p max_len (callers
 * pass min(n) - prefix so the two regions never overlap).
 */
s64 warmCommonSuffix(const std::vector<WarmOpMeta> &cur,
                     const std::vector<WarmOpMeta> &neighbor, s64 max_len);

/** Longest fully-equal prefix (fullEq): the DP-row import bound. */
s64 warmDpSafePrefix(const std::vector<WarmOpMeta> &cur,
                     const std::vector<WarmOpMeta> &neighbor);

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_WARM_STATE_HPP
