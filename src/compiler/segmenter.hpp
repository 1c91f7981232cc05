/**
 * @file
 * Dual-mode-aware network segmentation (paper Sec. 4.3.1, Alg. 1).
 *
 * Dynamic programming over the flattened operator list: L[j] = best
 * cost of executing ops [0, j), transitioning from L[i] by running
 * segment [i, j) with its MIP-allocated resources, paying the three
 * inter-segment overheads (write-back, Eq. 1 mode switch, Eq. 2 weight
 * rewrite). Infeasible windows (weights exceed the chip) are pruned,
 * which bounds the DP width; repeated segment shapes (transformer
 * blocks) hit a signature cache so each block is optimised once
 * (paper Sec. 5.6).
 *
 * Two interchangeable DP search implementations exist:
 *
 *  - runDp() — the production path. Per candidate segment [k, i) it
 *    hoists everything j-invariant (the Eq. 2 rewrite, inbound bytes,
 *    the allocation lookup) out of the predecessor-state scan, carries
 *    each state's write-back aggregates (live-out bytes, memory-array
 *    count) inside the state instead of re-deriving them from segment
 *    allocations, answers boundary-crossing reuse queries from sorted
 *    prefix/suffix byte sums, and keys the per-run range cache with a
 *    flat hash map instead of a red-black tree.
 *  - runDpReference() — the pre-optimization search, kept verbatim
 *    behind SegmenterOptions::referenceSearch. It recomputes every
 *    aggregate per (predecessor, segment) pair. The differential tests
 *    (tests/segmenter_diff_test.cpp, fuzz_test) pin that both searches
 *    produce byte-identical compile results across the full scenario
 *    matrix, which is what licenses every shortcut the fast path takes.
 */

#ifndef CMSWITCH_COMPILER_SEGMENTER_HPP
#define CMSWITCH_COMPILER_SEGMENTER_HPP

#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "compiler/allocator.hpp"
#include "compiler/compiler_api.hpp"
#include "compiler/warm_state.hpp"
#include "support/flat_map.hpp"

namespace cmswitch {

/** Scheduling policy of a compiler built on the segmenter. */
struct SegmenterOptions
{
    AllocatorOptions alloc;

    /** true: Alg. 1 DP; false: greedy max-fill segmentation. */
    bool useDp = true;

    /** true: only live-out data is written back between segments;
     *  false: every segment output spills (naive baselines). */
    bool livenessAwareWriteback = true;

    /**
     * true: run the retained pre-optimization DP instead of the fast
     * search. Exists solely so the differential tests (and the Fig. 18
     * bench) can pin/measure the fast path against the original; both
     * must produce byte-identical plans.
     */
    bool referenceSearch = false;
};

/** One chosen segment with its allocation and entry overheads. */
struct SegmentDecision
{
    s64 lo = 0; ///< first flattened op index (inclusive)
    s64 hi = 0; ///< last flattened op index (exclusive)
    SegmentAllocation alloc;

    /** Inter-segment overheads paid when entering this segment. */
    Cycles interWriteback = 0;
    Cycles interSwitch = 0;
    Cycles interRewrite = 0;

    /** Boundary traffic backing interWriteback (for code generation). */
    s64 storeBytes = 0;   ///< spilled by the predecessor segment
    s64 loadBytes = 0;    ///< fetched on entry of this segment
    s64 carriedBytes = 0; ///< handed over on-chip (no main-memory trip)

    Cycles interTotal() const
    {
        return interWriteback + interSwitch + interRewrite;
    }
};

/** Full schedule of a network. */
struct ScheduleResult
{
    std::vector<SegmentDecision> segments;
    LatencyBreakdown latency;

    bool feasible() const { return !segments.empty(); }
};

/**
 * The segmentation engine. Holds a per-instance cache of segment
 * allocations keyed by workload signature, so reuse it across graphs of
 * the same model family when timing compilation (Fig. 18).
 */
class Segmenter
{
  public:
    Segmenter(const CostModel &cost, SegmenterOptions options);

    /** Segment + allocate the flattened network. */
    ScheduleResult run(const std::vector<ScheduledOp> &ops);

    /** Cache statistics (allocator invocations saved by signatures). */
    s64 cacheHits() const { return cacheHits_; }
    s64 cacheMisses() const { return cacheMisses_; }

    /**
     * @{ Incremental (delta) compilation hooks (compiler/warm_state.hpp).
     *
     * setWarmState() hands run() a neighbor compile's retained search
     * state: structurally equal prefix/suffix ranges import the
     * neighbor's allocations positionally (no signature build), its
     * signature pool seeds the cross-run cache, fully-equal DP prefix
     * boundaries import verbatim, and near-miss ranges seed the
     * allocator's bisection bracket. Every import is
     * byte-identity preserving (see warm_state.hpp); referenceSearch
     * runs ignore warm state entirely.
     *
     * setRetain(true) makes run() record its own search state so
     * exportWarmState() — valid until the next run()/setWarmState() —
     * can hand it to the *next* neighbor: the allocations run() bound
     * to a range (priced or imported), never imports left unused.
     * warmStats() reports what the last run() actually reused.
     */
    void setWarmState(std::shared_ptr<const CompilerWarmState> warm)
    {
        warmIn_ = std::move(warm);
    }
    void setRetain(bool retain) { retain_ = retain; }
    std::shared_ptr<CompilerWarmState> exportWarmState() const;
    const WarmReuseStats &warmStats() const { return warmStats_; }
    /** @} */

    /**
     * The cached allocation for segment [lo, hi), computing (and
     * memoising) it on first touch — the same lookup every search path
     * performs. Public so the property tests can pin cache-hit results
     * against freshly recomputed allocations. Only valid for the ops
     * list of the current/most recent run() (the range cache is keyed
     * by position).
     */
    const SegmentAllocation &
    allocationForRange(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi);

    /**
     * Largest supported flattened-network size: the per-run range cache
     * packs (lo, hi) as lo * (n + 1) + hi, which is collision-free and
     * overflow-free while (n + 1)^2 - 1 <= 2^63 - 1, i.e.
     * n + 1 <= floor(sqrt(2^63)) = 3037000499 (pinned by the
     * key-packing property test).
     */
    static constexpr s64 kMaxOps = 3037000498;

  private:
    /** @copydoc allocationForRange (internal reference-returning form) */
    const SegmentAllocation &
    allocateCachedRef(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi);

    /** Signature-cache key of segment [lo, hi) into @p out (replacing
     *  its contents): memoised per-op fragments plus range-relative
     *  dependency edges. */
    void rangeSignature(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi,
                        std::string *out) const;

    /** Value-returning wrapper kept for the reference/greedy paths. */
    SegmentAllocation allocateCached(const std::vector<ScheduledOp> &ops,
                                     s64 lo, s64 hi);

    /** Bytes produced in [lo,hi) and consumed at/after @p boundary. */
    s64 liveOutBytes(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi,
                     s64 boundary) const;

    /** Bytes consumed by [lo,hi) that were produced before @p lo. */
    s64 inboundBytes(const std::vector<ScheduledOp> &ops, s64 lo,
                     s64 hi) const;

    /** Inter-segment cost entering segment [lo,hi) from a predecessor
     *  plan (write-back + switch + rewrite). */
    void interCost(const std::vector<ScheduledOp> &ops,
                   const SegmentAllocation &prev, s64 prev_lo, s64 lo, s64 hi,
                   const SegmentAllocation &cur, s64 phys_compute,
                   SegmentDecision *decision) const;

    /** Feasible segment starts per boundary: [minStart[i], i). */
    std::vector<s64> minStarts(const std::vector<ScheduledOp> &ops) const;

    ScheduleResult runDp(const std::vector<ScheduledOp> &ops);
    ScheduleResult runDpReference(const std::vector<ScheduledOp> &ops);
    ScheduleResult runGreedy(const std::vector<ScheduledOp> &ops);

    /** Fill latency totals + physical mode tracking over the chosen
     *  segment list. */
    ScheduleResult finalize(const std::vector<ScheduledOp> &ops,
                            std::vector<std::pair<s64, s64>> ranges);

    const CostModel *cost_;
    SegmenterOptions options_;
    DualModeAllocator allocator_;

    /** Cross-run signature cache: segment shape -> allocation. Node
     *  stability matters — the range cache stores pointers into it. */
    std::unordered_map<std::string, SegmentAllocation> cache_;
    std::string sigScratch_; ///< rangeSignature() buffer, reused
    s64 cacheHits_ = 0;
    s64 cacheMisses_ = 0;

    /** @{ Per-run acceleration structures (rebuilt by run()). */
    /** key lo * (n+1) + hi -> allocation in cache_ */
    FlatRangeMap<const SegmentAllocation *> rangeCache_;
    std::vector<s64> lastConsumer_;  ///< per op: max consumer index or -1
    std::vector<s64> maxEdgeBytes_;  ///< per op: widest outgoing edge
    std::vector<s64> prefixOutput_;  ///< prefix sums of work.outputBytes
    std::vector<std::string> opSig_; ///< per-op signature fragment
    /** Identity of the ops list the positional caches were built for
     *  (allocationForRange rebuilds on mismatch). */
    const ScheduledOp *cachedOps_ = nullptr;
    /** @} */

    /** @{ Incremental-compilation state (see the public hooks above). */
    /** Neighbor allocation for range [lo, hi) when it lies inside one
     *  constant-shift matched run of the alignment, else nullptr.
     *  Counts warmStats_.rangeImports on success. */
    const SegmentAllocation *warmPositionalLookup(s64 lo, s64 hi, s64 n);

    /** Bracket hint (the neighbor's optimal intra latency, 0 if none)
     *  for a cache-missing range, from whichever positional window the
     *  neighbor priced (identity or shifted). */
    Cycles warmHintFor(s64 lo, s64 hi) const;

    /** rangeCache_.insert plus the retention log (export needs the
     *  positional bindings; FlatRangeMap is not iterable). */
    void cacheRange(s64 key, const SegmentAllocation *alloc);

    std::shared_ptr<const CompilerWarmState> warmIn_;
    bool retain_ = false;
    WarmReuseStats warmStats_;
    s64 dpPrefix_ = 0;  ///< fullEq prefix: DP-row import bound
    s64 warmDelta_ = 0; ///< numOps(cur) - numOps(neighbor)
    std::vector<WarmOpMeta> curMeta_; ///< this run's op metadata
    /** @{ warmAlign() runs: per current op, the index shift to its
     *  matched neighbor op (kNoShift if unmatched) and the id of its
     *  maximal consecutive constant-shift run (-1 if unmatched). */
    static constexpr s64 kNoShift = std::numeric_limits<s64>::min();
    std::vector<s64> matchShift_;
    std::vector<s64> runId_;
    /** Largest absolute-matched predecessor per aligned position (the
     *  relaxedEqShifted bound; -1 when every edge shifts). */
    std::vector<s64> matchAbsMax_;
    /** @} */
    /** @{ Self-alignment (warm compiles only): per current op, the lag
     *  onto the graph's own dominant structural period (kNoShift if it
     *  does not repeat), the id of its maximal consecutive constant-lag
     *  run, and the relaxedEqShifted absolute bound. A changed window
     *  usually repeats an earlier layer's structure (generative models
     *  are periodic in depth), so its ranges can be served from
     *  rangeCache_ at the lag — again without building either
     *  signature. */
    std::vector<s64> selfLag_;
    std::vector<s64> selfRunId_;
    std::vector<s64> selfAbsMax_;
    /** @} */
    /** Neighbor range key (nb coordinates) -> neighbor pool index. */
    std::unordered_map<s64, s64> warmNeighborRanges_;
    /** cache_ entries seeded from the neighbor (importedSigHits). */
    std::unordered_set<const SegmentAllocation *> importedPtrs_;
    /** (range key, allocation) pairs priced this run, in touch order. */
    std::vector<std::pair<s64, const SegmentAllocation *>> rangeLog_;
    /** Retained DP rows of the last runDp() (setRetain only). */
    std::vector<std::vector<WarmDpState>> lastDpRows_;
    /** @} */
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_SEGMENTER_HPP
