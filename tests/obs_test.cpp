/**
 * @file
 * Unit tests for the observability subsystem (src/obs/): the
 * LogHistogram quantile estimator against exact sorted percentiles,
 * merge/reset semantics, thread-safety of concurrent recording (this
 * suite carries the tier1 label, so CI's TSan job covers it), registry
 * snapshot determinism, the install/uninstall control plane, and the
 * trace recorder's per-thread event lanes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"

namespace cmswitch {
namespace obs {
namespace {

/** The estimator's contract: nearest-rank, rank = ceil(q*n), min 1. */
double
exactQuantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

void
expectQuantileWithinBound(const LogHistogram &h,
                          const std::vector<double> &samples, double q)
{
    double exact = exactQuantile(samples, q);
    double est = h.quantile(q);
    if (exact == 0.0) {
        EXPECT_EQ(est, 0.0) << "q=" << q;
        return;
    }
    double rel = std::abs(est - exact) / exact;
    EXPECT_LE(rel, LogHistogram::kMaxRelativeError)
        << "q=" << q << " exact=" << exact << " est=" << est;
}

std::vector<double>
recordAll(LogHistogram *h, const std::vector<double> &samples)
{
    for (double s : samples)
        h->record(s);
    return samples;
}

TEST(LogHistogram, EmptyIsAllZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogram, SingleSampleIsExactEverywhere)
{
    LogHistogram h;
    h.record(0.0073);
    EXPECT_EQ(h.count(), 1);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0073);
    // One sample: every quantile is clamped to [min, max] = the value.
    for (double q : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 0.0073) << "q=" << q;
}

TEST(LogHistogram, NegativeClampsToZeroAndNanDrops)
{
    LogHistogram h;
    h.record(-5.0);
    EXPECT_EQ(h.count(), 1);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.sum(), 0.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1); // NaN never lands
}

TEST(LogHistogram, ExtremesLandInUnderflowAndOverflowBuckets)
{
    EXPECT_EQ(LogHistogram::bucketIndex(0.0), 0);
    EXPECT_EQ(LogHistogram::bucketIndex(1e-15), 0);
    EXPECT_EQ(LogHistogram::bucketIndex(1e15),
              LogHistogram::kBuckets - 1);
    LogHistogram h;
    h.record(1e15);
    h.record(1e-15);
    EXPECT_EQ(h.count(), 2);
    // min/max stay exact even for out-of-range samples...
    EXPECT_DOUBLE_EQ(h.min(), 1e-15);
    EXPECT_DOUBLE_EQ(h.max(), 1e15);
    // ...and quantiles clamp to them instead of a bucket midpoint.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e15);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-15);
}

TEST(LogHistogram, BucketIndexIsMonotonic)
{
    int last = -1;
    for (double v = 1e-14; v < 1e13; v *= 1.07) {
        int index = LogHistogram::bucketIndex(v);
        EXPECT_GE(index, last) << "v=" << v;
        EXPECT_GE(index, 0);
        EXPECT_LT(index, LogHistogram::kBuckets);
        last = index;
    }
    EXPECT_EQ(last, LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, UniformStreamWithinDocumentedBound)
{
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> dist(1e-4, 10.0);
    std::vector<double> samples;
    samples.reserve(10000);
    for (int i = 0; i < 10000; ++i)
        samples.push_back(dist(rng));
    LogHistogram h;
    recordAll(&h, samples);
    EXPECT_EQ(h.count(), 10000);
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999})
        expectQuantileWithinBound(h, samples, q);
}

TEST(LogHistogram, LognormalStreamWithinDocumentedBound)
{
    // Heavy tail spanning many octaves — the shape compile latencies
    // actually have.
    std::mt19937 rng(99);
    std::lognormal_distribution<double> dist(-3.0, 2.0);
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        samples.push_back(dist(rng));
    LogHistogram h;
    recordAll(&h, samples);
    for (double q : {0.5, 0.9, 0.95, 0.99})
        expectQuantileWithinBound(h, samples, q);
}

TEST(LogHistogram, DuplicateHeavyStreamWithinDocumentedBound)
{
    // Quantized durations (timer granularity) stress nearest-rank ties.
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> dist(1, 20);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i)
        samples.push_back(dist(rng) * 1e-3);
    LogHistogram h;
    recordAll(&h, samples);
    for (double q : {0.1, 0.5, 0.9, 0.99})
        expectQuantileWithinBound(h, samples, q);
}

TEST(LogHistogram, MergeMatchesCombinedStreamExactly)
{
    std::mt19937 rng(42);
    std::lognormal_distribution<double> dist(0.0, 1.5);
    std::vector<double> a, b, all;
    for (int i = 0; i < 3000; ++i)
        a.push_back(dist(rng));
    for (int i = 0; i < 5000; ++i)
        b.push_back(dist(rng));
    all = a;
    all.insert(all.end(), b.begin(), b.end());

    LogHistogram ha, hb, combined;
    recordAll(&ha, a);
    recordAll(&hb, b);
    recordAll(&combined, all);
    ha.merge(hb);

    // Same bucket layout -> a merge is exact, not approximate: the
    // merged histogram is indistinguishable from one that saw the
    // concatenated stream.
    EXPECT_EQ(ha.count(), combined.count());
    EXPECT_DOUBLE_EQ(ha.min(), combined.min());
    EXPECT_DOUBLE_EQ(ha.max(), combined.max());
    EXPECT_NEAR(ha.sum(), combined.sum(), 1e-9 * combined.sum());
    for (double q : {0.01, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(ha.quantile(q), combined.quantile(q)) << "q=" << q;
}

TEST(LogHistogram, MergeEmptyIsIdentity)
{
    LogHistogram h, empty;
    h.record(1.0);
    h.record(2.0);
    h.merge(empty);
    EXPECT_EQ(h.count(), 2);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 2.0);

    LogHistogram target;
    target.merge(h);
    EXPECT_EQ(target.count(), 2);
    EXPECT_DOUBLE_EQ(target.quantile(1.0), 2.0);
}

TEST(LogHistogram, CopyIsIndependentSnapshot)
{
    LogHistogram h;
    h.record(1.0);
    h.record(4.0);

    LogHistogram snap = h;
    EXPECT_EQ(snap.count(), 2);
    EXPECT_DOUBLE_EQ(snap.min(), 1.0);
    EXPECT_DOUBLE_EQ(snap.max(), 4.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), h.quantile(1.0));

    // The copy is detached: later records touch only the original.
    h.record(16.0);
    EXPECT_EQ(snap.count(), 2);
    EXPECT_EQ(h.count(), 3);

    LogHistogram assigned;
    assigned.record(99.0);
    assigned = snap;
    EXPECT_EQ(assigned.count(), 2);
    EXPECT_DOUBLE_EQ(assigned.max(), 4.0);
}

/**
 * subtractSnapshot(earlier) leaves exactly the samples recorded after
 * the snapshot was taken: exact bucket counts, count and sum; min/max
 * re-derived from the surviving buckets' bounds (not recoverable from
 * cumulative extremes), so they hold within kMaxRelativeError and the
 * interval quantiles match a histogram that saw only the interval.
 */
TEST(LogHistogram, SubtractSnapshotLeavesIntervalSamples)
{
    std::mt19937 rng(7);
    std::lognormal_distribution<double> dist(0.0, 1.2);
    std::vector<double> before, after;
    for (int i = 0; i < 2000; ++i)
        before.push_back(dist(rng));
    for (int i = 0; i < 3000; ++i)
        after.push_back(dist(rng));

    LogHistogram h, intervalOnly;
    recordAll(&h, before);
    LogHistogram snap = h;
    recordAll(&h, after);
    recordAll(&intervalOnly, after);

    LogHistogram delta = h;
    delta.subtractSnapshot(snap);

    EXPECT_EQ(delta.count(), intervalOnly.count());
    EXPECT_NEAR(delta.sum(), intervalOnly.sum(),
                1e-9 * intervalOnly.sum());
    // Bucket counts subtract exactly, so quantiles agree up to the
    // min/max clamp (exact extremes vs re-derived bucket bounds).
    for (double q : {0.01, 0.5, 0.9, 0.99}) {
        double expected = intervalOnly.quantile(q);
        EXPECT_NEAR(delta.quantile(q), expected,
                    2 * LogHistogram::kMaxRelativeError * expected)
            << "q=" << q;
    }
    // Bucket-bound extremes: within the estimator's documented error.
    EXPECT_NEAR(delta.min(), intervalOnly.min(),
                2 * LogHistogram::kMaxRelativeError * intervalOnly.min());
    EXPECT_NEAR(delta.max(), intervalOnly.max(),
                2 * LogHistogram::kMaxRelativeError * intervalOnly.max());

    // Subtracting everything leaves a well-formed empty histogram.
    LogHistogram zero = h;
    zero.subtractSnapshot(h);
    EXPECT_EQ(zero.count(), 0);
    EXPECT_EQ(zero.sum(), 0.0);
    EXPECT_EQ(zero.min(), 0.0);
    EXPECT_EQ(zero.max(), 0.0);
    EXPECT_EQ(zero.quantile(0.5), 0.0);
}

TEST(LogHistogram, ResetClearsEverything)
{
    LogHistogram h;
    h.record(3.5);
    h.record(0.25);
    h.reset();
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.quantile(0.9), 0.0);
    h.record(1.0);
    EXPECT_EQ(h.count(), 1);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
}

TEST(LogHistogram, ConcurrentRecordLosesNothing)
{
    // tier1 label -> CI's TSan job runs this: the wait-free record()
    // path must be clean under concurrent writers.
    LogHistogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&h, t] {
            std::mt19937 rng(1000 + t);
            std::uniform_real_distribution<double> dist(1e-3, 1.0);
            for (int i = 0; i < kPerThread; ++i)
                h.record(dist(rng));
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(h.count(), s64{kThreads} * kPerThread);
    EXPECT_GE(h.min(), 1e-3);
    EXPECT_LE(h.max(), 1.0);
    EXPECT_GT(h.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, ConcurrentCountersAreExact)
{
    MetricsRegistry registry;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&registry] {
            for (int i = 0; i < kPerThread; ++i)
                registry.counter(Met::kLpSolves).add();
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(registry.counter(Met::kLpSolves).get(),
              s64{kThreads} * kPerThread);
}

TEST(MetricsRegistry, SnapshotIsDeterministicForEqualWorkloads)
{
    auto populate = [](MetricsRegistry &registry) {
        registry.counter(Met::kMipSolves).add(7);
        registry.counter(Met::kDpBoundaries).add(123);
        registry.gauge(Gau::kServiceThreads).set(4);
        registry.histogram(Hist::kPhaseSegment).record(0.125);
        registry.histogram(Hist::kPhaseSegment).record(0.25);
    };
    MetricsRegistry a, b;
    populate(a);
    populate(b);
    // Identical workloads (same recorded values, not just counts) ->
    // byte-identical snapshots.
    std::string ja = a.snapshotJson();
    EXPECT_EQ(ja, b.snapshotJson());
    EXPECT_NE(ja.find("\"counters\""), std::string::npos);
    EXPECT_NE(ja.find("\"gauges\""), std::string::npos);
    EXPECT_NE(ja.find("\"quantiles\""), std::string::npos);
    for (const char *field : {"\"p50\"", "\"p90\"", "\"p95\"", "\"p99\""})
        EXPECT_NE(ja.find(field), std::string::npos) << field;
}

TEST(MetricsRegistry, ResetZeroesBuiltinsAndDynamics)
{
    MetricsRegistry registry;
    registry.counter(Met::kCompiles).add(3);
    registry.histogram(Hist::kPhaseCompile).record(1.0);
    registry.reset();
    EXPECT_EQ(registry.counter(Met::kCompiles).get(), 0);
    EXPECT_EQ(registry.histogram(Hist::kPhaseCompile).count(), 0);
}

/** Member names of the snapshot's @p section object, in order. */
std::vector<std::string>
snapshotKeys(const MetricsRegistry &registry, std::string_view section)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(registry.snapshotJson(), &doc, &error)) << error;
    std::vector<std::string> keys;
    if (const JsonValue *object = doc.find(section))
        for (const auto &member : object->members)
            keys.push_back(member.first);
    return keys;
}

/**
 * Snapshots walk the enums instead of sorting through a map, so each
 * enum must be declared in strictly ascending name order.
 */
TEST(MetricsRegistry, EnumsAreDeclaredInNameOrder)
{
    for (u32 i = 1; i < static_cast<u32>(Met::kCount); ++i)
        EXPECT_LT(std::string_view(metName(static_cast<Met>(i - 1))),
                  std::string_view(metName(static_cast<Met>(i))));
    for (u32 i = 1; i < static_cast<u32>(Gau::kCount); ++i)
        EXPECT_LT(std::string_view(gauName(static_cast<Gau>(i - 1))),
                  std::string_view(gauName(static_cast<Gau>(i))));
    for (u32 i = 1; i < static_cast<u32>(Hist::kCount); ++i)
        EXPECT_LT(std::string_view(histName(static_cast<Hist>(i - 1))),
                  std::string_view(histName(static_cast<Hist>(i))));
}

/** The snapshot's key set and order, pinned against literal lists. */
TEST(MetricsRegistry, SnapshotKeysArePinnedAndSorted)
{
    MetricsRegistry registry;
    const std::vector<std::string> counters = {
        "alloc.bisection_iters",
        "alloc.probe_bracket_hits",
        "alloc.probe_shortcuts",
        "alloc.probes",
        "alloc.runs",
        "compile.compiles",
        "disk_cache.hits",
        "disk_cache.misses",
        "disk_cache.rejected",
        "disk_cache.stores",
        "disk_cache.touch_failed",
        "dp.boundaries",
        "dp.crossing_edges",
        "dp.sig_cache_hits",
        "dp.sig_cache_misses",
        "incremental.dp_rows_reused",
        "incremental.neighbor_hits",
        "incremental.neighbor_misses",
        "incremental.neighbor_partials",
        "incremental.sig_imports",
        "incremental.warm_files_read",
        "lp.solves",
        "lp.warm_hits",
        "lp.warm_misses",
        "mip.nodes",
        "mip.solves",
        "plan_cache.evictions",
        "plan_cache.hits",
        "plan_cache.misses",
        "serve.admitted",
        "serve.cache_cold",
        "serve.cache_disk",
        "serve.cache_memory",
        "serve.cache_neighbor",
        "serve.coalesced",
        "serve.errors",
        "serve.received",
        "serve.shed_admission",
        "serve.shed_deadline",
    };
    const std::vector<std::string> gauges = {
        "serve.inflight",
        "serve.queue_depth",
        "service.threads",
    };
    const std::vector<std::string> quantiles = {
        "phase.allocate_seconds",
        "phase.backend_seconds",
        "phase.codegen_seconds",
        "phase.compile_seconds",
        "phase.energy_seconds",
        "phase.frontend_passes_seconds",
        "phase.partition_seconds",
        "phase.segment_seconds",
        "phase.validate_seconds",
        "serve.execute_seconds",
        "serve.queue_wait_seconds",
        "serve.total_seconds",
        "service.execute_seconds",
        "service.queue_wait_seconds",
    };
    for (const auto *list : {&counters, &gauges, &quantiles})
        EXPECT_TRUE(std::is_sorted(list->begin(), list->end()));
    EXPECT_EQ(snapshotKeys(registry, "counters"), counters);
    EXPECT_EQ(snapshotKeys(registry, "gauges"), gauges);
    EXPECT_EQ(snapshotKeys(registry, "quantiles"), quantiles);
}

TEST(ObsControlPlane, DisabledByDefaultAndHelpersAreNoOps)
{
    ASSERT_FALSE(enabled());
    EXPECT_EQ(metrics(), nullptr);
    EXPECT_EQ(trace(), nullptr);
    // Must not crash with nothing installed.
    count(Met::kCompiles);
    setGauge(Gau::kServiceThreads, 8);
    recordSeconds(Hist::kPhaseCompile, 0.5);
    Span span("noop", "test");
    span.arg("x", 1);
    ScopedPhase phase(Hist::kPhaseCompile, "noop", "test");
    phase.arg("y", 2);
}

TEST(ObsControlPlane, InstallRoutesAndUninstallStops)
{
    MetricsRegistry registry;
    install(&registry, nullptr);
    ASSERT_TRUE(metricsEnabled());
    EXPECT_FALSE(tracingEnabled());
    count(Met::kCompiles);
    count(Met::kMipNodes, 41);
    recordSeconds(Hist::kPhaseCompile, 0.01);
    uninstall();
    count(Met::kCompiles); // after uninstall: dropped
    EXPECT_EQ(registry.counter(Met::kCompiles).get(), 1);
    EXPECT_EQ(registry.counter(Met::kMipNodes).get(), 41);
    EXPECT_EQ(registry.histogram(Hist::kPhaseCompile).count(), 1);
    EXPECT_FALSE(enabled());
}

TEST(ObsControlPlane, ScopedPhaseFeedsHistogramAndTrace)
{
    MetricsRegistry registry;
    TraceRecorder recorder;
    install(&registry, &recorder);
    {
        ScopedPhase phase(Hist::kPhaseSegment, "test.phase", "test");
        phase.arg("ops", 12);
        Span span("test.span", "test");
        span.arg("a", 1);
        span.arg("b", 2);
    }
    uninstall();
    EXPECT_EQ(registry.histogram(Hist::kPhaseSegment).count(), 1);
    EXPECT_GE(registry.histogram(Hist::kPhaseSegment).min(), 0.0);
    EXPECT_EQ(recorder.eventCount(), 2);
    std::string json = recorder.exportJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.phase\""), std::string::npos);
    EXPECT_NE(json.find("\"test.span\""), std::string::npos);
    for (const char *field :
         {"\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\"", "\"name\"",
          "\"args\"", "\"thread_name\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

TEST(TraceRecorder, ThreadsGetDistinctLanes)
{
    MetricsRegistry registry;
    TraceRecorder recorder;
    recorder.setThreadName("main");
    install(&registry, &recorder);
    {
        Span span("main.work", "test");
    }
    std::thread worker([] {
        Span span("worker.work", "test");
    });
    worker.join();
    uninstall();
    EXPECT_EQ(recorder.eventCount(), 2);
    EXPECT_EQ(recorder.droppedEvents(), 0);
    std::string json = recorder.exportJson();
    // Two lanes: the named main thread and an auto-named worker.
    EXPECT_NE(json.find("\"main\""), std::string::npos);
    EXPECT_NE(json.find("\"thread-2\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
}

TEST(TraceRecorder, SecondRecorderDoesNotInheritStaleBuffers)
{
    // The thread-local buffer cache is keyed by recorder id: a fresh
    // recorder on the same thread must start its own lane, not append
    // into the dead recorder's memory.
    auto first = std::make_unique<TraceRecorder>();
    install(nullptr, first.get());
    {
        Span span("first.span", "test");
    }
    uninstall();
    EXPECT_EQ(first->eventCount(), 1);
    first.reset();

    TraceRecorder second;
    install(nullptr, &second);
    {
        Span span("second.span", "test");
    }
    uninstall();
    EXPECT_EQ(second.eventCount(), 1);
    std::string json = second.exportJson();
    EXPECT_NE(json.find("second.span"), std::string::npos);
    EXPECT_EQ(json.find("first.span"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace cmswitch
