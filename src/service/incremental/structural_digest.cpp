#include "service/incremental/structural_digest.hpp"

#include <algorithm>

#include "arch/chip_parser.hpp"
#include "service/plan_fingerprint.hpp"
#include "support/hash.hpp"

namespace cmswitch {

namespace {

/** Fold @p value into @p h as 8 little-endian bytes (shape dims and
 *  ids are numbers, not text; hashing bytes keeps the digest cheap). */
u64
foldS64(u64 h, s64 value)
{
    u64 v = static_cast<u64>(value);
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>(v & 0xff);
        v >>= 8;
    }
    return fnv1a64(std::string_view(bytes, 8), h);
}

/**
 * Fold one operator's shape-free structure: what it is, what it
 * touches, and how it connects — everything rangeSignature folds except
 * the byte counts that tensor dims determine.
 */
u64
foldOpStructure(u64 h, const Graph &graph, const Operator &op)
{
    h = fnv1a64(opKindName(op.kind), h);
    h = fnv1a64(opClassName(op.cls), h);
    h = fnv1a64(op.activationName, h);
    h = foldS64(h, op.conv.kernelH);
    h = foldS64(h, op.conv.kernelW);
    h = foldS64(h, op.conv.strideH);
    h = foldS64(h, op.conv.strideW);
    h = foldS64(h, op.conv.padH);
    h = foldS64(h, op.conv.padW);
    h = foldS64(h, op.conv.groups);
    h = foldS64(h, static_cast<s64>(op.inputs.size()));
    for (TensorId t : op.inputs) {
        const TensorDesc &desc = graph.tensor(t);
        h = foldS64(h, t); // topology: *which* tensor, not just its kind
        h = fnv1a64(tensorKindName(desc.kind), h);
        h = fnv1a64(dtypeName(desc.dtype), h);
    }
    h = foldS64(h, static_cast<s64>(op.outputs.size()));
    for (TensorId t : op.outputs) {
        const TensorDesc &desc = graph.tensor(t);
        h = foldS64(h, t);
        h = fnv1a64(tensorKindName(desc.kind), h);
        h = fnv1a64(dtypeName(desc.dtype), h);
    }
    return h;
}

/** Fold the shapes of every tensor @p op touches (the delta between
 *  the family and exact digests). */
u64
foldOpShapes(u64 h, const Graph &graph, const Operator &op)
{
    auto fold_tensor = [&](TensorId t) {
        const Shape &shape = graph.tensor(t).shape;
        h = foldS64(h, shape.rank());
        for (s64 d : shape.dims())
            h = foldS64(h, d);
    };
    for (TensorId t : op.inputs)
        fold_tensor(t);
    for (TensorId t : op.outputs)
        fold_tensor(t);
    return h;
}

} // namespace

StructuralDigest
graphStructuralDigest(const Graph &graph, u64 seed)
{
    StructuralDigest d;
    const std::vector<Operator> &ops = graph.ops();
    const s64 n = static_cast<s64>(ops.size());

    u64 family = foldS64(seed, n);
    u64 exact = foldS64(seed, n);
    for (const Operator &op : ops) {
        family = foldOpStructure(family, graph, op);
        exact = foldOpStructure(exact, graph, op);
        exact = foldOpShapes(exact, graph, op);
    }
    d.family = family;
    d.exact = exact;

    // Window digests are shape-inclusive and positional: the suffix
    // folds positions relative to the graph *end*, so two graphs whose
    // tails match after an insertion still agree on the suffix digest.
    const s64 window = std::min(kDigestWindow, n);
    u64 prefix = foldS64(seed, window);
    for (s64 i = 0; i < window; ++i) {
        const Operator &op = ops[static_cast<std::size_t>(i)];
        prefix = foldS64(prefix, i);
        prefix = foldOpStructure(prefix, graph, op);
        prefix = foldOpShapes(prefix, graph, op);
    }
    u64 suffix = foldS64(seed, window);
    for (s64 i = n - window; i < n; ++i) {
        const Operator &op = ops[static_cast<std::size_t>(i)];
        suffix = foldS64(suffix, n - i);
        suffix = foldOpStructure(suffix, graph, op);
        suffix = foldOpShapes(suffix, graph, op);
    }
    d.prefix = prefix;
    d.suffix = suffix;
    return d;
}

StructuralDigest
requestStructuralDigest(const CompileRequest &request)
{
    // Context seed: everything warm state is only valid within. The
    // build fingerprint makes stale .warm files from an older build
    // unreachable (never found, eventually overwritten), exactly like
    // requestKey() does for plan artifacts.
    u64 seed = buildFingerprint();
    seed = fnv1a64(serializeChipConfig(request.chip), seed);
    seed = fnv1a64(request.compilerId, seed);
    seed = fnv1a64(request.optimize ? "|optimize" : "|raw", seed);
    return graphStructuralDigest(request.workload, seed);
}

} // namespace cmswitch
