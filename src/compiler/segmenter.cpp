#include "compiler/segmenter.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <utility>

#include "obs/obs.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace cmswitch {

namespace {

/** Hard cap on ops per segment, a safety net for the DP width. */
constexpr s64 kMaxSegmentOps = 64;

void
appendInt(std::string &out, s64 value)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

/** Signature fragment of one op's workload (edges are appended per
 *  range, with range-relative indices). */
std::string
opSignature(const OpWorkload &w)
{
    std::string out;
    out.reserve(64);
    appendInt(out, w.weightTiles);
    out.push_back(':');
    appendInt(out, w.macs);
    out.push_back(':');
    appendInt(out, w.weightBytes);
    out.push_back(':');
    appendInt(out, w.inputBytes);
    out.push_back(':');
    appendInt(out, w.outputBytes);
    out.push_back(':');
    appendInt(out, w.vectorElems);
    out.push_back(':');
    appendInt(out, w.movingRows);
    out.push_back(':');
    out.push_back(w.dynamicWeights ? '1' : '0');
    out.push_back(':');
    out += formatDouble(w.utilization, 5);
    out.push_back(';');
    return out;
}

/**
 * Whether imported DP rows 1..@p prefix could have come from runDp on
 * this op list: each row's starts ascend strictly inside
 * [min_start[b], b) (transition pricing reads a window at
 * start - min_start[b]; backtracking binary-searches by start), memory
 * arrays fit the chip, and every backlink names a state of the row it
 * points into (-1 only from start 0). A warm state whose digest
 * verifies can still carry any values; rows like that are refused
 * before anything indexes by them.
 */
bool
importableDpRows(const std::vector<std::vector<WarmDpState>> &rows,
                 const std::vector<s64> &min_start, s64 prefix, s64 n_cim)
{
    for (s64 b = 1; b <= prefix; ++b) {
        s64 prev_start = -1;
        for (const WarmDpState &st : rows[static_cast<std::size_t>(b)]) {
            if (st.start <= prev_start
                || st.start < min_start[static_cast<std::size_t>(b)]
                || st.start >= b || st.memArrays < 0
                || st.memArrays > n_cim)
                return false;
            prev_start = st.start;
            if (st.start == 0) {
                if (st.prevStart != -1)
                    return false;
                continue;
            }
            const auto &from = rows[static_cast<std::size_t>(st.start)];
            auto it = std::lower_bound(
                from.begin(), from.end(), st.prevStart,
                [](const WarmDpState &s, s64 start) {
                    return s.start < start;
                });
            if (it == from.end() || it->start != st.prevStart)
                return false;
        }
    }
    return true;
}

} // namespace

namespace {

/** referenceSearch covers the whole search stack: the DP *and* the
 *  allocator's probe shortcuts revert together. */
AllocatorOptions
allocatorOptionsFor(const SegmenterOptions &options)
{
    AllocatorOptions alloc = options.alloc;
    alloc.referenceSearch = alloc.referenceSearch || options.referenceSearch;
    return alloc;
}

} // namespace

Segmenter::Segmenter(const CostModel &cost, SegmenterOptions options)
    : cost_(&cost), options_(options),
      allocator_(cost, allocatorOptionsFor(options))
{
}

const SegmentAllocation &
Segmenter::allocateCachedRef(const std::vector<ScheduledOp> &ops, s64 lo,
                             s64 hi)
{
    // Fast path: this exact range was priced before in this run.
    s64 range_key = lo * (static_cast<s64>(ops.size()) + 1) + hi;
    if (const SegmentAllocation **found = rangeCache_.find(range_key)) {
        ++cacheHits_;
        return **found;
    }

    // Warm positional path: the range lies inside the structurally
    // matched prefix/suffix and the neighbor priced the same window, so
    // its allocation is byte-identical — without building either
    // range signature (the dominant cost of a cold search).
    if (const SegmentAllocation *warm =
            warmPositionalLookup(lo, hi, static_cast<s64>(ops.size()))) {
        ++cacheHits_;
        cacheRange(range_key, warm);
        return *warm;
    }

    // The signature is built in a reused buffer; only a miss copies it
    // into the cache, at its exact size.
    rangeSignature(ops, lo, hi, &sigScratch_);

    auto it = cache_.find(sigScratch_);
    if (it != cache_.end()) {
        ++cacheHits_;
        if (!importedPtrs_.empty() && importedPtrs_.count(&it->second) > 0)
            ++warmStats_.importedSigHits;
    } else {
        ++cacheMisses_;
        const Cycles hint = warmHintFor(lo, hi);
        if (hint > 0)
            ++warmStats_.bracketHints;
        it = cache_
                 .emplace(sigScratch_,
                          allocator_.allocate(makeSegmentView(ops, lo, hi),
                                              hint))
                 .first;
    }
    cacheRange(range_key, &it->second);
    return it->second;
}

void
Segmenter::rangeSignature(const std::vector<ScheduledOp> &ops, s64 lo,
                          s64 hi, std::string *out) const
{
    // Signature of the segment's workloads + intra edges: memoised
    // per-op fragments plus range-relative dependency edges.
    std::string &key = *out;
    key.clear();
    for (s64 i = lo; i < hi; ++i) {
        const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
        key += opSig_[static_cast<std::size_t>(i)];
        for (std::size_t e = 0; e < op.preds.size(); ++e) {
            s64 p = op.preds[e];
            if (p >= lo && p < hi) {
                appendInt(key, p - lo);
                key.push_back('>');
                appendInt(key, i - lo);
                key.push_back('=');
                appendInt(key, op.reuseBytes[e]);
                key.push_back(',');
            }
        }
        key.push_back('|');
    }
}

SegmentAllocation
Segmenter::allocateCached(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi)
{
    return allocateCachedRef(ops, lo, hi);
}

const SegmentAllocation &
Segmenter::allocationForRange(const std::vector<ScheduledOp> &ops, s64 lo,
                              s64 hi)
{
    if (cachedOps_ != ops.data() || opSig_.size() != ops.size()) {
        // Probed before (or with a different list than) the last run():
        // the range cache is positional, so rebuild the per-run
        // structures for this list instead of serving stale entries.
        rangeCache_.clear();
        rangeLog_.clear(); // keys are packed with this list's size
        // The warm alignment belongs to run()'s list only.
        warmNeighborRanges_.clear();
        matchShift_.clear();
        runId_.clear();
        matchAbsMax_.clear();
        selfLag_.clear();
        selfRunId_.clear();
        selfAbsMax_.clear();
        opSig_.clear();
        opSig_.reserve(ops.size());
        for (const ScheduledOp &op : ops)
            opSig_.push_back(opSignature(op.work));
        cachedOps_ = ops.data();
    }
    return allocateCachedRef(ops, lo, hi);
}

s64
Segmenter::liveOutBytes(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi,
                        s64 boundary) const
{
    // Store-side traffic: each producer whose data is consumed at or
    // beyond the boundary spills its tensor once (widest edge), plus
    // any network outputs. lastConsumer_/maxEdgeBytes_ are prefix
    // structures built by run().
    s64 total = 0;
    for (s64 i = lo; i < hi; ++i) {
        total += ops[static_cast<std::size_t>(i)].liveOutBytes; // net outputs
        if (lastConsumer_[static_cast<std::size_t>(i)] >= boundary)
            total += maxEdgeBytes_[static_cast<std::size_t>(i)];
    }
    return total;
}

s64
Segmenter::inboundBytes(const std::vector<ScheduledOp> &ops, s64 lo,
                        s64 hi) const
{
    s64 total = 0;
    for (s64 i = lo; i < hi; ++i) {
        const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
        for (std::size_t e = 0; e < op.preds.size(); ++e) {
            if (op.preds[e] < lo)
                total += op.reuseBytes[e];
        }
    }
    return total;
}

void
Segmenter::interCost(const std::vector<ScheduledOp> &ops,
                     const SegmentAllocation &prev, s64 prev_lo, s64 lo,
                     s64 hi, const SegmentAllocation &cur, s64 phys_compute,
                     SegmentDecision *decision) const
{
    const ChipConfig &chip = cost_->chip();
    const Deha &deha = cost_->deha();

    // Step 2 (Eq. 1): mode switching from the current physical state.
    SwitchDelta delta = deha.switchesBetween(phys_compute, cur.plan);
    decision->interSwitch = deha.switchLatency(delta);

    // Step 3 (Eq. 2): (re)programming the segment's static weights.
    std::vector<OpWorkload> ws;
    for (s64 i = lo; i < hi; ++i)
        ws.push_back(ops[static_cast<std::size_t>(i)].work);
    decision->interRewrite = cost_->weightRewriteLatency(ws, cur.allocs);

    // Step 1: write-back + reload around the boundary.
    s64 store_bytes = 0;
    s64 carried = 0;
    if (prev_lo >= 0) {
        s64 direct = 0;
        for (s64 i = lo; i < hi; ++i) {
            const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
            for (std::size_t e = 0; e < op.preds.size(); ++e) {
                if (op.preds[e] >= prev_lo && op.preds[e] < lo)
                    direct += op.reuseBytes[e];
            }
        }
        s64 carry_cap = chip.bufferBytes;
        if (options_.alloc.allowMemoryMode) {
            carry_cap += std::min(prev.plan.memoryArrays,
                                  cur.plan.memoryArrays)
                       * chip.arrayMemoryBytes();
        }
        carried = options_.livenessAwareWriteback ? std::min(direct, carry_cap)
                                                  : 0;
        if (options_.livenessAwareWriteback) {
            store_bytes = liveOutBytes(ops, prev_lo, lo, lo) - carried;
        } else {
            for (s64 i = prev_lo; i < lo; ++i)
                store_bytes += ops[static_cast<std::size_t>(i)].work.outputBytes;
        }
        store_bytes = std::max<s64>(0, store_bytes);
    }
    s64 load_bytes = std::max<s64>(0, inboundBytes(ops, lo, hi) - carried);
    decision->storeBytes = store_bytes;
    decision->loadBytes = load_bytes;
    decision->carriedBytes = carried;
    decision->interWriteback = cost_->mainMemoryTransfer(store_bytes)
                             + cost_->mainMemoryTransfer(load_bytes);
}

ScheduleResult
Segmenter::run(const std::vector<ScheduledOp> &ops)
{
    if (ops.empty())
        return ScheduleResult{};
    cmswitch_assert(static_cast<s64>(ops.size()) <= kMaxOps,
                    "flattened network too large for range-key packing");

    rangeCache_.clear();
    rangeLog_.clear();
    cachedOps_ = ops.data();
    lastConsumer_.assign(ops.size(), -1);
    maxEdgeBytes_.assign(ops.size(), 0);
    for (std::size_t c = 0; c < ops.size(); ++c) {
        for (std::size_t e = 0; e < ops[c].preds.size(); ++e) {
            auto p = static_cast<std::size_t>(ops[c].preds[e]);
            lastConsumer_[p] = std::max(lastConsumer_[p],
                                        static_cast<s64>(c));
            maxEdgeBytes_[p] = std::max(maxEdgeBytes_[p],
                                        ops[c].reuseBytes[e]);
        }
    }
    prefixOutput_.assign(ops.size() + 1, 0);
    for (std::size_t i = 0; i < ops.size(); ++i)
        prefixOutput_[i + 1] = prefixOutput_[i] + ops[i].work.outputBytes;
    opSig_.clear();
    opSig_.reserve(ops.size());
    for (const ScheduledOp &op : ops)
        opSig_.push_back(opSignature(op.work));

    // Incremental compilation: align this op list against the neighbor
    // state and seed every warm lever. Reference searches opt out
    // wholesale — they exist to stay byte-for-byte the original.
    warmStats_ = WarmReuseStats{};
    dpPrefix_ = 0;
    warmDelta_ = 0;
    warmNeighborRanges_.clear();
    matchShift_.clear();
    runId_.clear();
    matchAbsMax_.clear();
    selfLag_.clear();
    selfRunId_.clear();
    selfAbsMax_.clear();
    curMeta_.clear();
    if ((warmIn_ != nullptr || retain_) && !options_.referenceSearch) {
        const s64 n = static_cast<s64>(ops.size());
        curMeta_.reserve(ops.size());
        // Rewrite grouping as a graph-local dense id (first-appearance
        // order): raw OpIds are allocator-global, so they never compare
        // equal across independently built graphs.
        std::unordered_map<s64, s64> group_of;
        WarmEdgeInterner interner;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            WarmOpMeta m;
            m.sig = opSig_[i];
            m.edges = interner.intern(
                WarmEdges{ops[i].preds, ops[i].reuseBytes});
            m.groupId = group_of
                            .emplace(static_cast<s64>(ops[i].work.opId),
                                     static_cast<s64>(group_of.size()))
                            .first->second;
            m.lastConsumer = lastConsumer_[i];
            m.maxEdgeBytes = maxEdgeBytes_[i];
            m.liveOutBytes = ops[i].liveOutBytes;
            curMeta_.push_back(std::move(m));
        }
        if (warmIn_ != nullptr && !warmIn_->empty()) {
            const CompilerWarmState &nb = *warmIn_;
            warmDelta_ = n - nb.numOps();
            // Block alignment: graph edits are local, so most positions
            // match a neighbor op under some per-block index shift.
            std::vector<WarmMatch> match = warmAlign(curMeta_, nb.ops);
            matchShift_.assign(ops.size(), kNoShift);
            runId_.assign(ops.size(), -1);
            matchAbsMax_.assign(ops.size(), -1);
            s64 run = -1;
            bool in_run = false;
            for (s64 i = 0; i < n; ++i) {
                if (match[static_cast<std::size_t>(i)].index < 0) {
                    in_run = false;
                    continue;
                }
                s64 shift = i - match[static_cast<std::size_t>(i)].index;
                if (!in_run
                    || shift != matchShift_[static_cast<std::size_t>(i - 1)])
                    ++run;
                in_run = true;
                matchShift_[static_cast<std::size_t>(i)] = shift;
                runId_[static_cast<std::size_t>(i)] = run;
                matchAbsMax_[static_cast<std::size_t>(i)] =
                    match[static_cast<std::size_t>(i)].absMax;
            }
            // Self-alignment: lag ops onto the graph's own dominant
            // structural period. Inside a changed window the neighbor
            // has nothing to offer, but an earlier layer of *this*
            // graph usually does — ranges at a constant lag have equal
            // signatures by the same argument as the neighbor runs, and
            // the lagged range is already in rangeCache_ by the time
            // the DP reaches the window (boundaries ascend). Period
            // detection must be global: local nearest-match lags latch
            // onto short sub-op periodicity and fragment the runs.
            selfLag_.assign(ops.size(), kNoShift);
            selfRunId_.assign(ops.size(), -1);
            selfAbsMax_.assign(ops.size(), -1);
            {
                std::vector<u64> h(ops.size());
                std::unordered_map<u64, std::vector<s64>> at;
                at.reserve(ops.size());
                for (s64 i = 0; i < n; ++i) {
                    h[static_cast<std::size_t>(i)] =
                        fnv1a64(curMeta_[static_cast<std::size_t>(i)].sig);
                    at[h[static_cast<std::size_t>(i)]].push_back(i);
                }
                // Rare signatures (a handful of occurrences: the once-
                // per-layer ops) vote for their consecutive-occurrence
                // distances; frequent ones (sliced sub-ops) would vote
                // for their intra-block stride instead.
                std::unordered_map<s64, s64> votes;
                for (const auto &[hash, occ] : at) {
                    if (occ.size() < 2 || occ.size() > 64)
                        continue;
                    for (std::size_t t = 1; t < occ.size(); ++t)
                        ++votes[occ[t] - occ[t - 1]];
                }
                std::vector<std::pair<s64, s64>> top; // (votes, lag)
                top.reserve(votes.size());
                for (const auto &[lag, count] : votes)
                    top.emplace_back(count, lag);
                std::sort(top.begin(), top.end(),
                          [](const auto &x, const auto &y) {
                              return x.first != y.first
                                         ? x.first > y.first
                                         : x.second < y.second;
                          });
                if (top.size() > 4)
                    top.resize(4);
                // Full verification picks the candidate that actually
                // matches the most positions (ties: smallest lag, which
                // is the fundamental period rather than a multiple).
                s64 best_lag = 0;
                s64 best_matched = 0;
                s64 abs_scratch = -1;
                for (const auto &[count, lag] : top) {
                    if (lag <= 0)
                        continue;
                    s64 matched = 0;
                    for (s64 i = lag; i < n; ++i) {
                        const auto ui = static_cast<std::size_t>(i);
                        const auto uj = static_cast<std::size_t>(i - lag);
                        if (h[ui] == h[uj]
                            && curMeta_[ui].relaxedEqShifted(
                                curMeta_[uj], lag, &abs_scratch))
                            ++matched;
                    }
                    if (matched > best_matched) {
                        best_matched = matched;
                        best_lag = lag;
                    }
                }
                if (best_lag > 0) {
                    s64 self_run = -1;
                    bool in_self_run = false;
                    for (s64 i = best_lag; i < n; ++i) {
                        const auto ui = static_cast<std::size_t>(i);
                        const auto uj = static_cast<std::size_t>(
                            i - best_lag);
                        if (h[ui] == h[uj]
                            && curMeta_[ui].relaxedEqShifted(
                                curMeta_[uj], best_lag, &abs_scratch)) {
                            if (!in_self_run)
                                ++self_run;
                            in_self_run = true;
                            selfLag_[ui] = best_lag;
                            selfRunId_[ui] = self_run;
                            selfAbsMax_[ui] = abs_scratch;
                        } else {
                            in_self_run = false;
                        }
                    }
                }
            }
            if (options_.useDp
                && nb.dpRows.size()
                       == static_cast<std::size_t>(nb.numOps()) + 1)
                dpPrefix_ = warmDpSafePrefix(curMeta_, nb.ops);
            for (std::size_t a = 0; a < nb.sigs.size(); ++a) {
                auto [slot, inserted] = cache_.emplace(nb.sigs[a],
                                                       nb.allocs[a]);
                if (inserted) {
                    ++warmStats_.sigImports;
                    importedPtrs_.insert(&slot->second);
                }
            }
            warmNeighborRanges_.reserve(nb.ranges.size());
            for (const WarmRangeBinding &b : nb.ranges)
                warmNeighborRanges_.emplace(
                    b.lo * (nb.numOps() + 1) + b.hi, b.allocIndex);
        }
    }

    obs::ScopedPhase phase(obs::Hist::kPhaseSegment, "segmenter.run",
                           "segmenter");
    phase.arg("ops", static_cast<s64>(ops.size()));
    const s64 hitsBefore = cacheHits_;
    const s64 missesBefore = cacheMisses_;
    ScheduleResult result;
    if (!options_.useDp)
        result = runGreedy(ops);
    else
        result = options_.referenceSearch ? runDpReference(ops)
                                          : runDp(ops);
    obs::count(obs::Met::kDpSigCacheHits, cacheHits_ - hitsBefore);
    obs::count(obs::Met::kDpSigCacheMisses, cacheMisses_ - missesBefore);
    return result;
}

ScheduleResult
Segmenter::runGreedy(const std::vector<ScheduledOp> &ops)
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    // Greedy segmentation: extend the open segment while doing so is
    // locally profitable — the joint segment must not cost more than
    // cutting here (intra + Eq. 2 rewrite + boundary traffic). This is
    // the one-pass scheduling the fixed-mode baseline stacks perform;
    // only the DP (Alg. 1) explores alternative cut points globally.
    auto segment_cost = [&](s64 lo, s64 hi) -> Cycles {
        const SegmentAllocation &a = allocateCachedRef(ops, lo, hi);
        if (!a.feasible())
            return kInfCycles;
        std::vector<OpWorkload> ws;
        std::vector<OpAllocation> as;
        for (s64 i = lo; i < hi; ++i) {
            ws.push_back(ops[static_cast<std::size_t>(i)].work);
            as.push_back(a.allocs[static_cast<std::size_t>(i - lo)]);
        }
        return a.intraLatency + cost_->weightRewriteLatency(ws, as);
    };

    std::vector<std::pair<s64, s64>> ranges;
    s64 lo = 0;
    while (lo < n) {
        s64 hi = lo + 1;
        s64 tiles = ops[static_cast<std::size_t>(lo)].work.weightTiles;
        cmswitch_assert(tiles <= n_cim, "operator ",
                        ops[static_cast<std::size_t>(lo)].work.name,
                        " does not fit the chip even alone");
        while (hi < n && hi - lo < kMaxSegmentOps) {
            s64 t = ops[static_cast<std::size_t>(hi)].work.weightTiles;
            if (tiles + t > n_cim)
                break;
            Cycles joined = segment_cost(lo, hi + 1);
            if (joined >= kInfCycles)
                break;
            Cycles boundary =
                cost_->mainMemoryTransfer(liveOutBytes(ops, lo, hi, hi))
                + cost_->mainMemoryTransfer(inboundBytes(ops, hi, hi + 1));
            Cycles separate = segment_cost(lo, hi) + segment_cost(hi, hi + 1)
                            + boundary;
            if (joined > separate)
                break;
            tiles += t;
            ++hi;
        }
        ranges.emplace_back(lo, hi);
        lo = hi;
    }
    return finalize(ops, std::move(ranges));
}

std::vector<s64>
Segmenter::minStarts(const std::vector<ScheduledOp> &ops) const
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    // Feasible segment starts for each boundary i: [minStart[i], i).
    std::vector<s64> min_start(static_cast<std::size_t>(n) + 1, 0);
    s64 tiles = 0;
    s64 k = 0;
    for (s64 i = 0; i < n; ++i) {
        tiles += ops[static_cast<std::size_t>(i)].work.weightTiles;
        while (tiles > n_cim || i - k + 1 > kMaxSegmentOps) {
            tiles -= ops[static_cast<std::size_t>(k)].work.weightTiles;
            ++k;
        }
        cmswitch_assert(k <= i, "operator ",
                        ops[static_cast<std::size_t>(i)].work.name,
                        " does not fit the chip even alone");
        min_start[static_cast<std::size_t>(i) + 1] = k;
    }
    return min_start;
}

ScheduleResult
Segmenter::runDp(const std::vector<ScheduledOp> &ops)
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;
    const ChipConfig &chip = cost_->chip();
    const Deha &deha = cost_->deha();
    const s64 array_bytes = chip.arrayMemoryBytes();
    const bool liveness = options_.livenessAwareWriteback;
    const bool memory_mode = options_.alloc.allowMemoryMode;

    std::vector<s64> min_start = minStarts(ops);

    // One DP state per (boundary i, segment start k): best prefix cost
    // plus everything a *successor* transition needs from this state —
    // the memory-array count of [k, i) (physical-mode handover) and its
    // live-out bytes at boundary i (write-back pricing). Carrying these
    // in the state is what lets the inner scan below run without
    // touching segment allocations at all. States are appended in k
    // order, preserving the reference search's ascending-key iteration
    // (and therefore its exact tie-breaking). The state type is the
    // retained WarmDpState itself.
    std::vector<std::vector<WarmDpState>> dp(static_cast<std::size_t>(n)
                                             + 1);

    // Warm import: every DP row up to the fullEq-safe prefix is, by the
    // warm_state.hpp soundness argument, exactly what this search would
    // recompute — take the neighbor's rows verbatim and start the
    // boundary loop after them. Rows that could not have come from this
    // search (see importableDpRows) drop the import: the DP runs cold.
    s64 first_boundary = 1;
    if (dpPrefix_ > 0 && warmIn_ != nullptr
        && importableDpRows(warmIn_->dpRows, min_start, dpPrefix_, n_cim)) {
        for (s64 b = 1; b <= dpPrefix_; ++b)
            dp[static_cast<std::size_t>(b)] =
                warmIn_->dpRows[static_cast<std::size_t>(b)];
        warmStats_.dpRowsReused = dpPrefix_;
        first_boundary = dpPrefix_ + 1;
    }

    // Scratch reused across candidate segments. Each row is built in
    // `row` and copied into dp[i] at its final size, so the table (which
    // retention keeps) carries no growth slack.
    std::vector<const OpWorkload *> ws_view;
    std::vector<s64> window; // crossing bytes by producer - min_start[k]
    std::vector<WarmDpState> row;
    s64 crossing_edges = 0;

    for (s64 i = first_boundary; i <= n; ++i) {
        obs::count(obs::Met::kDpBoundaries);
        row.clear();
        for (s64 k = min_start[static_cast<std::size_t>(i)]; k < i; ++k) {
            const SegmentAllocation &cur = allocateCachedRef(ops, k, i);
            if (!cur.feasible())
                continue;

            // Hoisted predecessor-invariants of segment [k, i): Eq. 2
            // rewrite, inbound bytes, allocation aggregates. The
            // reference search recomputes each of these per
            // predecessor state.
            ws_view.clear();
            for (s64 t = k; t < i; ++t)
                ws_view.push_back(&ops[static_cast<std::size_t>(t)].work);
            const Cycles rewrite =
                cost_->weightRewriteLatency(ws_view, cur.allocs);
            const s64 cur_mem = cur.plan.memoryArrays;
            const Cycles intra = cur.intraLatency;

            Cycles best_cost = kInfCycles;
            s64 best_prev = -1;
            if (k == 0) {
                // First segment: switches from the all-compute boot
                // state, initial weight load, no predecessor data (no
                // producer lies before op 0, so nothing is inbound).
                SwitchDelta delta = deha.switchesBetween(n_cim, cur.plan);
                best_cost = intra + deha.switchLatency(delta) + rewrite
                          + cost_->mainMemoryTransfer(0);
                best_prev = -1;
            } else if (!dp[static_cast<std::size_t>(k)].empty()) {
                // Dependency edges crossing into [k, i) from before k.
                // Every state of dp[k] starts in [min_start[k], k), so
                // only producers in that window (at most kMaxSegmentOps
                // wide) can be handed over directly: bucket their bytes
                // by producer and take suffix sums, so the bytes a
                // predecessor segment [j, k) hands over is one read at
                // j. The same scan totals the inbound bytes.
                const s64 base = min_start[static_cast<std::size_t>(k)];
                window.assign(static_cast<std::size_t>(k - base), 0);
                s64 inbound = 0;
                for (s64 t = k; t < i; ++t) {
                    const ScheduledOp &op = ops[static_cast<std::size_t>(t)];
                    crossing_edges += static_cast<s64>(op.preds.size());
                    for (std::size_t e = 0; e < op.preds.size(); ++e) {
                        const s64 p = op.preds[e];
                        if (p >= k)
                            continue;
                        inbound += op.reuseBytes[e];
                        if (p >= base)
                            window[static_cast<std::size_t>(p - base)] +=
                                op.reuseBytes[e];
                    }
                }
                for (std::size_t c = window.size() - 1; c-- > 0;)
                    window[c] += window[c + 1];

                for (const WarmDpState &st :
                     dp[static_cast<std::size_t>(k)]) {
                    s64 direct =
                        window[static_cast<std::size_t>(st.start - base)];
                    s64 carry_cap = chip.bufferBytes;
                    if (memory_mode) {
                        carry_cap += std::min(st.memArrays, cur_mem)
                                   * array_bytes;
                    }
                    s64 carried = liveness ? std::min(direct, carry_cap) : 0;
                    s64 store = liveness
                                  ? st.outBytes - carried
                                  : prefixOutput_[static_cast<std::size_t>(k)]
                                        - prefixOutput_[
                                            static_cast<std::size_t>(
                                                st.start)];
                    store = std::max<s64>(0, store);
                    s64 load = std::max<s64>(0, inbound - carried);

                    // Approximate physical state entering the segment:
                    // everything not used as memory by the previous
                    // segment is (or can be) in compute mode.
                    SwitchDelta delta = deha.switchesBetween(
                        n_cim - st.memArrays, cur.plan);
                    Cycles cost = st.cost + intra
                                + cost_->mainMemoryTransfer(store)
                                + cost_->mainMemoryTransfer(load)
                                + deha.switchLatency(delta) + rewrite;
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_prev = st.start;
                    }
                }
            }
            if (best_cost < kInfCycles) {
                row.push_back(WarmDpState{k, best_cost, best_prev, cur_mem,
                                          liveOutBytes(ops, k, i, i)});
            }
        }
        dp[static_cast<std::size_t>(i)] = row;
    }
    obs::count(obs::Met::kDpCrossingEdges, crossing_edges);

    // Pick the best terminal state and backtrack the segmentation.
    cmswitch_assert(!dp[static_cast<std::size_t>(n)].empty(),
                    "network has no feasible segmentation");
    s64 best_k = -1;
    Cycles best_cost = kInfCycles;
    for (const WarmDpState &st : dp[static_cast<std::size_t>(n)]) {
        if (st.cost < best_cost) {
            best_cost = st.cost;
            best_k = st.start;
        }
    }
    std::vector<std::pair<s64, s64>> ranges;
    s64 i = n;
    s64 k = best_k;
    while (k >= 0) {
        ranges.emplace_back(k, i);
        const auto &states = dp[static_cast<std::size_t>(i)];
        auto it = std::lower_bound(
            states.begin(), states.end(), k,
            [](const WarmDpState &st, s64 start) { return st.start < start; });
        cmswitch_assert(it != states.end() && it->start == k,
                        "DP backlink missing");
        i = k;
        k = it->prevStart;
    }

    // Retention: the full DP table, whether each row was computed here
    // or imported (imported rows are byte-equal to a cold compute, so a
    // chained warm compile retains the same state a cold one would).
    // A copy, not a move: the copy is allocated in one burst at the end
    // of the search, so the retained state does not pin the heap pages
    // the search's transient allocations were interleaved with.
    if (retain_)
        lastDpRows_ = dp;

    std::reverse(ranges.begin(), ranges.end());
    return finalize(ops, std::move(ranges));
}

ScheduleResult
Segmenter::runDpReference(const std::vector<ScheduledOp> &ops)
{
    // The pre-optimization Alg. 1 search, kept verbatim: every
    // (predecessor, segment) pair re-walks its aggregates and re-prices
    // the Eq. 2 rewrite through interCost(). The differential tests
    // assert byte-identical plans against runDp(); do not "fix" or
    // optimise this path — its whole value is being the original.
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    std::vector<s64> min_start = minStarts(ops);

    // dp[i] = states for boundary i, keyed by the start of the segment
    // that ends at i. Value: best prefix cost + backlink (start of the
    // previous segment).
    struct State
    {
        Cycles cost = kInfCycles;
        s64 prevStart = -1;
    };
    std::vector<std::map<s64, State>> dp(static_cast<std::size_t>(n) + 1);

    for (s64 i = 1; i <= n; ++i) {
        for (s64 k = min_start[static_cast<std::size_t>(i)]; k < i; ++k) {
            SegmentAllocation cur = allocateCached(ops, k, i);
            if (!cur.feasible())
                continue;
            State best;
            if (k == 0) {
                // First segment: switches from the all-compute boot
                // state, initial weight load, no predecessor data.
                SegmentDecision d;
                interCost(ops, SegmentAllocation{}, -1, k, i, cur,
                          n_cim, &d);
                best.cost = cur.intraLatency + d.interTotal();
                best.prevStart = -1;
            } else {
                for (const auto &[j, state] : dp[static_cast<std::size_t>(k)]) {
                    if (state.cost >= kInfCycles)
                        continue;
                    SegmentAllocation prev = allocateCached(ops, j, k);
                    SegmentDecision d;
                    // Approximate physical state entering the segment:
                    // everything not used as memory by the previous
                    // segment is (or can be) in compute mode.
                    s64 phys = n_cim - prev.plan.memoryArrays;
                    interCost(ops, prev, j, k, i, cur, phys, &d);
                    Cycles cost = state.cost + cur.intraLatency
                                + d.interTotal();
                    if (cost < best.cost) {
                        best.cost = cost;
                        best.prevStart = j;
                    }
                }
            }
            if (best.cost < kInfCycles)
                dp[static_cast<std::size_t>(i)][k] = best;
        }
    }

    // Pick the best terminal state and backtrack the segmentation.
    cmswitch_assert(!dp[static_cast<std::size_t>(n)].empty(),
                    "network has no feasible segmentation");
    s64 best_k = -1;
    Cycles best_cost = kInfCycles;
    for (const auto &[k, state] : dp[static_cast<std::size_t>(n)]) {
        if (state.cost < best_cost) {
            best_cost = state.cost;
            best_k = k;
        }
    }
    std::vector<std::pair<s64, s64>> ranges;
    s64 i = n;
    s64 k = best_k;
    while (k >= 0) {
        ranges.emplace_back(k, i);
        s64 prev = dp[static_cast<std::size_t>(i)].at(k).prevStart;
        i = k;
        k = prev;
    }
    std::reverse(ranges.begin(), ranges.end());
    return finalize(ops, std::move(ranges));
}

ScheduleResult
Segmenter::finalize(const std::vector<ScheduledOp> &ops,
                    std::vector<std::pair<s64, s64>> ranges)
{
    const Deha &deha = cost_->deha();
    const s64 n_cim = cost_->chip().numSwitchArrays;

    ScheduleResult result;
    s64 phys_compute = n_cim; // boot: all switchable arrays in compute
    SegmentAllocation prev;
    s64 prev_lo = -1;

    for (auto [lo, hi] : ranges) {
        SegmentDecision d;
        d.lo = lo;
        d.hi = hi;
        d.alloc = allocateCached(ops, lo, hi);
        if (!d.alloc.feasible())
            return ScheduleResult{};
        interCost(ops, prev, prev_lo, lo, hi, d.alloc, phys_compute, &d);

        result.latency.intra += d.alloc.intraLatency;
        result.latency.writeback += d.interWriteback;
        result.latency.modeSwitch += d.interSwitch;
        result.latency.rewrite += d.interRewrite;

        SwitchDelta delta = deha.switchesBetween(phys_compute, d.alloc.plan);
        phys_compute = deha.applySwitches(phys_compute, delta);

        prev = d.alloc;
        prev_lo = lo;
        result.segments.push_back(std::move(d));
    }

    // Final network outputs leave the chip.
    if (!ranges.empty()) {
        auto [lo, hi] = ranges.back();
        result.latency.writeback += cost_->mainMemoryTransfer(
            liveOutBytes(ops, lo, hi, static_cast<s64>(ops.size())));
    }
    return result;
}

const SegmentAllocation *
Segmenter::warmPositionalLookup(s64 lo, s64 hi, s64 n)
{
    // Neighbor serve: [lo, hi) lies inside one constant-shift matched
    // run, so every op (and every in-range edge, whose endpoints shift
    // together or sit below both windows) equals its neighbor
    // counterpart and the two range signatures are equal by
    // construction — without building either.
    if (!warmNeighborRanges_.empty()) {
        const s64 rid = runId_[static_cast<std::size_t>(lo)];
        if (rid >= 0 && rid == runId_[static_cast<std::size_t>(hi - 1)]) {
            const s64 shift = matchShift_[static_cast<std::size_t>(lo)];
            // Absolute-matched edges must stay outside both ranges.
            const s64 bound = lo - std::max<s64>(0, shift);
            bool ok = true;
            for (s64 x = lo; x < hi; ++x) {
                if (matchAbsMax_[static_cast<std::size_t>(x)] >= bound) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                const s64 n_nb = warmIn_->numOps();
                auto it = warmNeighborRanges_.find(
                    (lo - shift) * (n_nb + 1) + (hi - shift));
                if (it != warmNeighborRanges_.end()) {
                    ++warmStats_.rangeImports;
                    return &warmIn_->allocs[static_cast<std::size_t>(
                        it->second)];
                }
            }
        }
    }
    // Self serve, same argument at a lag within this run's own op list:
    // the lagged range was priced at an earlier DP boundary (boundaries
    // ascend, and lookups at boundary i only lag to boundary i - lag).
    if (!selfRunId_.empty()) {
        const s64 srid = selfRunId_[static_cast<std::size_t>(lo)];
        if (srid >= 0
            && srid == selfRunId_[static_cast<std::size_t>(hi - 1)]) {
            const s64 lag = selfLag_[static_cast<std::size_t>(lo)];
            const s64 bound = lo - lag;
            bool ok = bound >= 0;
            for (s64 x = lo; ok && x < hi; ++x) {
                if (selfAbsMax_[static_cast<std::size_t>(x)] >= bound)
                    ok = false;
            }
            if (ok) {
                if (const SegmentAllocation **found = rangeCache_.find(
                        (lo - lag) * (n + 1) + (hi - lag))) {
                    ++warmStats_.rangeImports;
                    return *found;
                }
            }
        }
    }
    return nullptr;
}

Cycles
Segmenter::warmHintFor(s64 lo, s64 hi) const
{
    if (warmIn_ == nullptr || warmNeighborRanges_.empty())
        return 0;
    // A genuine miss is a range the neighbor never priced as-is (it
    // crosses a changed window, say) — but whichever window the
    // neighbor *did* price at the same position is usually near the
    // optimum, and hints only steer the probe order.
    const s64 n_nb = warmIn_->numOps();
    s64 deltas[4];
    int tries = 0;
    if (runId_[static_cast<std::size_t>(lo)] >= 0)
        deltas[tries++] = matchShift_[static_cast<std::size_t>(lo)];
    if (runId_[static_cast<std::size_t>(hi - 1)] >= 0)
        deltas[tries++] = matchShift_[static_cast<std::size_t>(hi - 1)];
    deltas[tries++] = 0;
    deltas[tries++] = warmDelta_;
    for (int d = 0; d < tries; ++d) {
        if (d > 0
            && std::find(deltas, deltas + d, deltas[d]) != deltas + d)
            continue;
        s64 nb_lo = lo - deltas[d];
        s64 nb_hi = hi - deltas[d];
        if (nb_lo < 0 || nb_hi > n_nb || nb_hi <= nb_lo)
            continue;
        auto it = warmNeighborRanges_.find(nb_lo * (n_nb + 1) + nb_hi);
        if (it == warmNeighborRanges_.end())
            continue;
        const auto a = static_cast<std::size_t>(it->second);
        if (!warmIn_->allocs[a].feasible())
            continue;
        return warmIn_->allocs[a].intraLatency;
    }
    return 0;
}

void
Segmenter::cacheRange(s64 key, const SegmentAllocation *alloc)
{
    rangeCache_.insert(key, alloc);
    if (retain_)
        rangeLog_.emplace_back(key, alloc);
}

std::shared_ptr<CompilerWarmState>
Segmenter::exportWarmState() const
{
    auto state = std::make_shared<CompilerWarmState>();
    if (curMeta_.empty())
        return state;
    state->ops = curMeta_;
    state->dpRows = lastDpRows_;

    // Allocation pool: the allocations this run bound to a range —
    // everything it priced plus the imports that served one. Unused
    // imports are dropped, so retained state scales with one compile,
    // not with the sweep behind it. Ranges served straight from the
    // neighbor pool point into warmIn_; the sig-import pass seeded
    // cache_ with every neighbor signature, so rebind through it.
    auto owned = [this](const SegmentAllocation *alloc) {
        if (warmIn_ == nullptr || warmIn_->allocs.empty()
            || alloc < warmIn_->allocs.data()
            || alloc >= warmIn_->allocs.data() + warmIn_->allocs.size())
            return alloc;
        const auto a =
            static_cast<std::size_t>(alloc - warmIn_->allocs.data());
        auto cit = cache_.find(warmIn_->sigs[a]);
        return cit != cache_.end() ? &cit->second : nullptr;
    };
    std::vector<const SegmentAllocation *> targets;
    targets.reserve(rangeLog_.size());
    std::unordered_map<const SegmentAllocation *, s64> index;
    index.reserve(rangeLog_.size());
    for (const auto &entry : rangeLog_) {
        targets.push_back(owned(entry.second));
        index.emplace(targets.back(), -1);
    }
    state->sigs.reserve(index.size());
    state->allocs.reserve(index.size());
    for (const auto &entry : cache_) {
        auto it = index.find(&entry.second);
        if (it == index.end())
            continue;
        it->second = static_cast<s64>(state->sigs.size());
        state->sigs.push_back(entry.first);
        state->allocs.push_back(entry.second);
    }

    // Positional bindings.
    const s64 n1 = static_cast<s64>(curMeta_.size()) + 1;
    state->ranges.reserve(rangeLog_.size());
    for (std::size_t r = 0; r < rangeLog_.size(); ++r) {
        const s64 key = rangeLog_[r].first;
        const s64 slot = index.at(targets[r]);
        if (slot >= 0)
            state->ranges.push_back(
                WarmRangeBinding{key / n1, key % n1, slot});
    }
    return state;
}

} // namespace cmswitch
