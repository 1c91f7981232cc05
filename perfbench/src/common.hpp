/**
 * @file
 * Shared pieces of the perfbench harness: the command line, the result
 * document every workload fills, seeded draws, sample statistics, and
 * small helpers for the plan-byte and resource checks.
 *
 * The harness measures each cmswitch layer from outside, by timing
 * calls into that layer's public functions; the only thing it reads
 * from inside is the counters an installed obs::MetricsRegistry
 * already keeps. See ../README.md for every metric's definition.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler_api.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/common.hpp"

namespace perfbench {

using cmswitch::s64;
using cmswitch::u64;
using Clock = std::chrono::steady_clock;

/** Seconds on the steady clock since process start. */
double nowSeconds();

/**
 * Spans the benchmark records around its own calls into each layer in
 * a traced run: kept in memory by an obs::TraceRecorder that is never
 * installed (so the program's internal spans stay off), and written
 * out as one Chrome trace when the run ends. Spans of one request
 * carry its index as the "request" arg. Thread-safe.
 */
class SpanLog
{
  public:
    SpanLog();

    /** One span over [@p start, @p end] in nowSeconds() time; the
     *  strings must be literals. */
    void record(const char *name, const char *cat, double start,
                double end, s64 request = -1);

    /** Write the Chrome trace to @p path; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    cmswitch::obs::TraceRecorder recorder_;
    double origin_; ///< nowSeconds() at the recorder's construction
};

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;   ///< scratch space inside the checkout
    std::string cmswitchc; ///< daemon binary (serve_hot)
    std::string spansPath; ///< where a traced run writes its spans
    SpanLog *spans = nullptr; ///< set in traced runs only
};

/** What one invocation reports; main() renders it as one JSON line. */
struct Result
{
    bool correct = true;
    s64 attempted = 0;
    s64 failed = 0;

    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;

    /** Exact quantities (outcome splits, work counters, plan cycles):
     *  equal seeds must reproduce them bit for bit, across runs. */
    std::map<std::string, double> exact;

    /** Context recorded beside the metrics (not gated). */
    std::map<std::string, double> info;

    std::vector<std::string> checkFailures;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** One output check: counts as an attempted operation, and as a
     *  failed one when @p ok is false. */
    void check(bool ok, const std::string &what);
};

/** splitmix64-seeded xorshift draws; hand-mapped, so streams are the
 *  same on every standard library. */
class Rng
{
  public:
    explicit Rng(u64 seed);
    u64 next();
    double uniform();                 ///< [0, 1)
    s64 below(s64 n);                 ///< [0, n)
    double exponential(double rate);  ///< mean 1 / rate

  private:
    u64 state_[2];
};

/** Nearest-rank quantile of @p samples (sorted copy); 0 when empty. */
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double> &samples);

/** Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it
 *  (p50 when there are too few samples for any). */
struct Tail
{
    double value = 0.0;
    double percentile = 50.0;
};
Tail tailLatency(const std::vector<double> &samples);

double geomean(const std::vector<double> &values);

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** The plan's exact bytes with compileSeconds zeroed: the quantity
 *  warm == cold holds byte-identical. */
std::string planBytes(const cmswitch::CompileResult &result);

/** Counter @p m of @p registry as a double. */
double counterValue(cmswitch::obs::MetricsRegistry &registry,
                    cmswitch::obs::Met m);

/** Sum of the samples recorded in histogram @p h of @p registry. */
double histogramSum(cmswitch::obs::MetricsRegistry &registry,
                    cmswitch::obs::Hist h);

/**
 * Keeps every CPU out of idle while alive: one SCHED_IDLE spinner per
 * hardware thread, the in-process equivalent of booting with
 * idle=poll. A SCHED_IDLE thread gives way at once to any runnable
 * thread, so it takes no time from the measured program; what it
 * removes is the wake-up latency of an idle (virtual) CPU, which on a
 * shared host reaches milliseconds and otherwise dominates the latency
 * of a request that hops across threads.
 */
class CpuWarmer
{
  public:
    CpuWarmer();
    ~CpuWarmer();
    CpuWarmer(const CpuWarmer &) = delete;
    CpuWarmer &operator=(const CpuWarmer &) = delete;

  private:
    std::atomic<bool> running_{true};
    std::vector<std::thread> spinners_;
};

/** mkdir -p; returns false on failure. */
bool makeDirs(const std::string &path);

/** rm -rf (best effort). */
void removeTree(const std::string &path);

/** @{ Workload entry points. */
void runPlanTable(const Args &args, Result *out);
void runServeHot(const Args &args, Result *out);
void runSimFleet(const Args &args, Result *out);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
