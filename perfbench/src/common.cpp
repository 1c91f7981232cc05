#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "support/serialize.hpp"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

u64
splitmix64(u64 *x)
{
    u64 z = (*x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    correct = false;
    checkFailures.push_back(what);
}

Rng::Rng(u64 seed)
{
    u64 x = seed;
    state_[0] = splitmix64(&x);
    state_[1] = splitmix64(&x);
}

u64
Rng::next()
{
    // xorshift128+
    u64 s1 = state_[0];
    const u64 s0 = state_[1];
    state_[0] = s0;
    s1 ^= s1 << 23;
    state_[1] = s1 ^ s0 ^ (s1 >> 18) ^ (s0 >> 5);
    return state_[1] + s0;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

s64
Rng::below(s64 n)
{
    return static_cast<s64>(next() % static_cast<u64>(n));
}

double
Rng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::ceil(q * static_cast<double>(samples.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

Tail
tailLatency(const std::vector<double> &samples)
{
    const double ladder[] = {99.0, 95.0, 90.0, 75.0};
    double n = static_cast<double>(samples.size());
    for (double p : ladder) {
        if (n * (1.0 - p / 100.0) >= 10.0)
            return Tail{quantile(samples, p / 100.0), p};
    }
    return Tail{quantile(samples, 0.5), 50.0};
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
selfPeakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
planBytes(const cmswitch::CompileResult &result)
{
    cmswitch::CompileResult copy = result;
    copy.compileSeconds = 0.0;
    cmswitch::BinaryWriter w;
    copy.writeBinary(w);
    return w.take();
}

double
counterValue(cmswitch::obs::MetricsRegistry &registry, cmswitch::obs::Met m)
{
    return static_cast<double>(registry.counter(m).get());
}

double
histogramSum(cmswitch::obs::MetricsRegistry &registry, cmswitch::obs::Hist h)
{
    return registry.histogram(h).sum();
}

SpanLog::SpanLog() : origin_(nowSeconds()) {}

void
SpanLog::record(const char *name, const char *cat, double start, double end,
                s64 request)
{
    cmswitch::obs::TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.tsNanos = static_cast<s64>((start - origin_) * 1e9);
    event.durNanos = static_cast<s64>((end - start) * 1e9);
    if (request >= 0) {
        event.argName[0] = "request";
        event.argValue[0] = request;
    }
    recorder_.append(event);
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    out << recorder_.exportJson();
    return static_cast<bool>(out);
}

CpuWarmer::CpuWarmer()
{
    unsigned count = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < count; ++i) {
        spinners_.emplace_back([this] {
            sched_param param{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
            while (running_.load(std::memory_order_relaxed)) {
            }
        });
    }
}

CpuWarmer::~CpuWarmer()
{
    running_ = false;
    for (std::thread &spinner : spinners_)
        spinner.join();
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec && std::filesystem::is_directory(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
