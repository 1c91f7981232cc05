#include "compiler/warm_state.hpp"

#include <algorithm>
#include <limits>

#include "support/hash.hpp"
#include "support/serialize.hpp"

namespace cmswitch {

namespace {

/** Bound for deserialized container counts: generous but finite, so a
 *  corrupted length prefix cannot drive a multi-gigabyte allocation. */
constexpr s64 kMaxCount = 1 << 26;

void
writeS64Vec(BinaryWriter &w, const std::vector<s64> &v)
{
    w.writeS64(static_cast<s64>(v.size()));
    for (s64 x : v)
        w.writeS64(x);
}

std::vector<s64>
readS64Vec(BinaryReader &r, const char *what)
{
    s64 count = r.readBounded(kMaxCount, what);
    std::vector<s64> v;
    v.reserve(static_cast<std::size_t>(count));
    for (s64 i = 0; i < count; ++i)
        v.push_back(r.readS64());
    return v;
}

} // namespace

std::shared_ptr<const WarmEdges>
WarmEdgeInterner::intern(WarmEdges edges)
{
    auto [it, inserted] = lists_.try_emplace(std::move(edges));
    if (inserted)
        it->second = std::make_shared<const WarmEdges>(it->first);
    return it->second;
}

const std::shared_ptr<const WarmEdges> &
WarmOpMeta::noEdges()
{
    static const std::shared_ptr<const WarmEdges> empty =
        std::make_shared<const WarmEdges>();
    return empty;
}

bool
WarmOpMeta::structEqShifted(const WarmOpMeta &other, s64 delta) const
{
    const std::vector<s64> &p = preds();
    const std::vector<s64> &q = other.preds();
    if (sig != other.sig || reuseBytes() != other.reuseBytes()
        || p.size() != q.size())
        return false;
    for (std::size_t e = 0; e < p.size(); ++e) {
        if (p[e] != q[e] + delta)
            return false;
    }
    return true;
}

bool
WarmOpMeta::relaxedEqShifted(const WarmOpMeta &other, s64 delta,
                             s64 *abs_max) const
{
    const std::vector<s64> &p = preds();
    const std::vector<s64> &q = other.preds();
    if (sig != other.sig || reuseBytes() != other.reuseBytes()
        || p.size() != q.size())
        return false;
    s64 abs = -1;
    for (std::size_t e = 0; e < p.size(); ++e) {
        if (p[e] == q[e] + delta)
            continue; // shifts with the block
        if (delta != 0 && p[e] == q[e]) {
            abs = std::max(abs, p[e]); // shared absolute producer
            continue;
        }
        return false;
    }
    *abs_max = abs;
    return true;
}

void
CompilerWarmState::writeBinary(BinaryWriter &w) const
{
    w.writeS64(static_cast<s64>(ops.size()));
    for (const WarmOpMeta &op : ops) {
        w.writeString(op.sig);
        writeS64Vec(w, op.preds());
        writeS64Vec(w, op.reuseBytes());
        w.writeS64(op.groupId);
        w.writeS64(op.lastConsumer);
        w.writeS64(op.maxEdgeBytes);
        w.writeS64(op.liveOutBytes);
    }
    w.writeS64(static_cast<s64>(dpRows.size()));
    for (const std::vector<WarmDpState> &row : dpRows) {
        w.writeS64(static_cast<s64>(row.size()));
        for (const WarmDpState &st : row) {
            w.writeS64(st.start);
            w.writeS64(st.cost);
            w.writeS64(st.prevStart);
            w.writeS64(st.memArrays);
            w.writeS64(st.outBytes);
        }
    }
    w.writeS64(static_cast<s64>(sigs.size()));
    for (std::size_t a = 0; a < sigs.size(); ++a) {
        w.writeString(sigs[a]);
        const SegmentAllocation &alloc = allocs[a];
        w.writeS64(static_cast<s64>(alloc.allocs.size()));
        for (const OpAllocation &oa : alloc.allocs)
            oa.writeBinary(w);
        w.writeS64(alloc.plan.computeArrays);
        w.writeS64(alloc.plan.memoryArrays);
        w.writeS64(alloc.reusedArrays);
        w.writeS64(alloc.intraLatency);
    }
    w.writeS64(static_cast<s64>(ranges.size()));
    for (const WarmRangeBinding &r : ranges) {
        w.writeS64(r.lo);
        w.writeS64(r.hi);
        w.writeS64(r.allocIndex);
    }
}

CompilerWarmState
CompilerWarmState::readBinary(BinaryReader &r)
{
    CompilerWarmState state;
    s64 n_ops = r.readBounded(kMaxCount, "warm op count");
    state.ops.reserve(static_cast<std::size_t>(n_ops));
    WarmEdgeInterner interner;
    for (s64 i = 0; i < n_ops; ++i) {
        WarmOpMeta op;
        op.sig = r.readString();
        WarmEdges edges;
        edges.preds = readS64Vec(r, "warm pred count");
        edges.reuseBytes = readS64Vec(r, "warm reuse count");
        if (edges.reuseBytes.size() != edges.preds.size())
            throw SerializeError("warm op pred/reuse length mismatch");
        op.edges = interner.intern(std::move(edges));
        op.groupId = r.readS64();
        op.lastConsumer = r.readS64();
        op.maxEdgeBytes = r.readS64();
        op.liveOutBytes = r.readS64();
        state.ops.push_back(std::move(op));
    }
    s64 n_rows = r.readBounded(kMaxCount, "warm dp row count");
    state.dpRows.reserve(static_cast<std::size_t>(n_rows));
    for (s64 i = 0; i < n_rows; ++i) {
        s64 n_states = r.readBounded(kMaxCount, "warm dp state count");
        std::vector<WarmDpState> row;
        row.reserve(static_cast<std::size_t>(n_states));
        for (s64 s = 0; s < n_states; ++s) {
            WarmDpState st;
            st.start = r.readS64();
            st.cost = r.readS64();
            st.prevStart = r.readS64();
            st.memArrays = r.readS64();
            st.outBytes = r.readS64();
            row.push_back(st);
        }
        state.dpRows.push_back(std::move(row));
    }
    s64 n_allocs = r.readBounded(kMaxCount, "warm allocation count");
    state.sigs.reserve(static_cast<std::size_t>(n_allocs));
    state.allocs.reserve(static_cast<std::size_t>(n_allocs));
    for (s64 a = 0; a < n_allocs; ++a) {
        state.sigs.push_back(r.readString());
        SegmentAllocation alloc;
        s64 n_op_allocs = r.readBounded(kMaxCount, "warm op-alloc count");
        alloc.allocs.reserve(static_cast<std::size_t>(n_op_allocs));
        for (s64 i = 0; i < n_op_allocs; ++i)
            alloc.allocs.push_back(OpAllocation::readBinary(r));
        alloc.plan.computeArrays = r.readS64();
        alloc.plan.memoryArrays = r.readS64();
        alloc.reusedArrays = r.readS64();
        alloc.intraLatency = r.readS64();
        state.allocs.push_back(std::move(alloc));
    }
    s64 n_ranges = r.readBounded(kMaxCount, "warm range count");
    state.ranges.reserve(static_cast<std::size_t>(n_ranges));
    for (s64 i = 0; i < n_ranges; ++i) {
        WarmRangeBinding binding;
        binding.lo = r.readS64();
        binding.hi = r.readS64();
        binding.allocIndex = r.readS64();
        if (binding.lo < 0 || binding.hi <= binding.lo
            || binding.hi > n_ops || binding.allocIndex < 0
            || binding.allocIndex >= n_allocs)
            throw SerializeError("warm range binding out of bounds");
        state.ranges.push_back(binding);
    }
    return state;
}

std::vector<WarmMatch>
warmAlign(const std::vector<WarmOpMeta> &cur,
          const std::vector<WarmOpMeta> &neighbor)
{
    const s64 n = static_cast<s64>(cur.size());
    const s64 m = static_cast<s64>(neighbor.size());
    std::vector<WarmMatch> match(static_cast<std::size_t>(n));
    if (n == 0 || m == 0)
        return match;

    // Hash the signature fragments once so the resync search compares
    // u64s, not strings (collisions are caught by the verification
    // pass below).
    std::vector<u64> ha(static_cast<std::size_t>(n));
    std::vector<u64> hb(static_cast<std::size_t>(m));
    for (s64 i = 0; i < n; ++i)
        ha[static_cast<std::size_t>(i)] =
            fnv1a64(cur[static_cast<std::size_t>(i)].sig);
    for (s64 j = 0; j < m; ++j)
        hb[static_cast<std::size_t>(j)] =
            fnv1a64(neighbor[static_cast<std::size_t>(j)].sig);

    // A position pair matches only under the full structural check at
    // its own shift (the sig hash is just a prefilter): repeated
    // identical sub-op blocks make signature-only anchoring ambiguous,
    // and pred indices disambiguate exactly. Matching on the real
    // criterion during the walk is also what makes every reported
    // match sound by construction.
    s64 abs_scratch = -1;
    auto pair_eq = [&](s64 x, s64 y) {
        return ha[static_cast<std::size_t>(x)]
                   == hb[static_cast<std::size_t>(y)]
            && cur[static_cast<std::size_t>(x)].relaxedEqShifted(
                neighbor[static_cast<std::size_t>(y)], x - y,
                &abs_scratch);
    };

    // After a mismatch, resync on the nearest position pair (smallest
    // combined skip) that starts a run of kResync matching positions —
    // enough context to not re-anchor inside a changed window.
    constexpr s64 kResync = 8;
    constexpr s64 kMaxSkew = 512;
    auto run_eq = [&](s64 x, s64 y) {
        for (s64 r = 0; r < kResync && x + r < n && y + r < m; ++r) {
            if (!pair_eq(x + r, y + r))
                return false;
        }
        return true;
    };

    // A run starts only at a hash-equal pair, so sort the neighbor's
    // positions by (hash, position) and give each current position the
    // slice of its own hash: the resync then tries hash-equal pairs
    // only, and a batch change that aligns nothing costs next to
    // nothing. The index is built at the first mismatch, so a pair
    // that lines up everywhere never pays for it.
    using Entry = std::pair<u64, s64>;
    using It = std::vector<Entry>::const_iterator;
    std::vector<Entry> by_hash;
    std::vector<std::pair<It, It>> slice_of;
    auto build_index = [&]() {
        by_hash.reserve(static_cast<std::size_t>(m));
        for (s64 y = 0; y < m; ++y)
            by_hash.emplace_back(hb[static_cast<std::size_t>(y)], y);
        std::sort(by_hash.begin(), by_hash.end());
        slice_of.resize(static_cast<std::size_t>(n));
        for (s64 x = 0; x < n; ++x) {
            const u64 h = ha[static_cast<std::size_t>(x)];
            It first = std::lower_bound(
                by_hash.cbegin(), by_hash.cend(),
                Entry(h, std::numeric_limits<s64>::min()));
            It last = std::upper_bound(
                first, by_hash.cend(),
                Entry(h, std::numeric_limits<s64>::max()));
            slice_of[static_cast<std::size_t>(x)] = {first, last};
        }
    };

    s64 i = 0;
    s64 j = 0;
    while (i < n && j < m) {
        if (pair_eq(i, j)) {
            match[static_cast<std::size_t>(i)] =
                WarmMatch{j, abs_scratch};
            ++i;
            ++j;
            continue;
        }
        if (slice_of.empty())
            build_index();
        // Resync order: smallest t = di + dj (1 <= t <= kMaxSkew), then
        // smallest di. Walking di upward, each di's first run-starting
        // candidate is its smallest t; a later di wins only with a
        // strictly smaller t, so the walk stops once di reaches the
        // best t found.
        s64 best_t = kMaxSkew + 1;
        s64 best_di = 0;
        for (s64 di = 0; di < best_t && i + di < n; ++di) {
            const auto x = static_cast<std::size_t>(i + di);
            const auto [first, last] = slice_of[x];
            for (It y = std::lower_bound(first, last,
                                         Entry(ha[x], di == 0 ? j + 1 : j));
                 y != last && di + (y->second - j) < best_t; ++y) {
                if (run_eq(i + di, y->second)) {
                    best_t = di + (y->second - j);
                    best_di = di;
                    break;
                }
            }
        }
        if (best_t <= kMaxSkew) {
            i += best_di;
            j += best_t - best_di;
        } else {
            // No resync within the skew bound: advance past the current
            // position and retry (pathological inputs; the fuzz battery
            // exercises this path).
            ++i;
            ++j;
        }
    }
    return match;
}

s64
warmCommonPrefix(const std::vector<WarmOpMeta> &cur,
                 const std::vector<WarmOpMeta> &neighbor)
{
    s64 n = static_cast<s64>(std::min(cur.size(), neighbor.size()));
    s64 p = 0;
    while (p < n
           && cur[static_cast<std::size_t>(p)].structEq(
               neighbor[static_cast<std::size_t>(p)]))
        ++p;
    return p;
}

s64
warmCommonSuffix(const std::vector<WarmOpMeta> &cur,
                 const std::vector<WarmOpMeta> &neighbor, s64 max_len)
{
    const s64 n_cur = static_cast<s64>(cur.size());
    const s64 n_nb = static_cast<s64>(neighbor.size());
    const s64 delta = n_cur - n_nb;
    s64 limit = std::min(std::min(n_cur, n_nb), std::max<s64>(0, max_len));
    s64 s = 0;
    while (s < limit
           && cur[static_cast<std::size_t>(n_cur - 1 - s)].structEqShifted(
               neighbor[static_cast<std::size_t>(n_nb - 1 - s)], delta))
        ++s;
    return s;
}

s64
warmDpSafePrefix(const std::vector<WarmOpMeta> &cur,
                 const std::vector<WarmOpMeta> &neighbor)
{
    s64 n = static_cast<s64>(std::min(cur.size(), neighbor.size()));
    s64 p = 0;
    while (p < n
           && cur[static_cast<std::size_t>(p)].fullEq(
               neighbor[static_cast<std::size_t>(p)]))
        ++p;
    return p;
}

} // namespace cmswitch
