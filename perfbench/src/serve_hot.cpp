/**
 * @file
 * serve_hot: an open loop against the real `cmswitchc serve` daemon,
 * over its Unix socket, on one connection.
 *
 * The hot set is 32 decode plans (4 generative models x 2 chips x 4 KV
 * buckets, 2 layers). An untimed step compiles them into a disk cache
 * in-process; each daemon under test starts over that cache, and the
 * warm-up that touches every key once is a disk hit (the read path,
 * counted in setup_s). After it every timed request is a memory hit:
 * the workload exercises the protocol, admission, coalescing, graph
 * resolution, requestKey and PlanCache, and compiles nothing.
 *
 * Timed requests are Poisson arrivals at a fixed ladder of rates, each
 * timed from the instant it was due. The sender sleeps to just before
 * each due time and spins the rest, so its own lag stays in the
 * microseconds; a reader thread timestamps every response line.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "models/model_zoo.hpp"
#include "eval/evaluation.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "support/json_parse.hpp"

namespace perfbench {

using namespace cmswitch;

namespace {

/** Latency limit of a passing rung, on its quiet-window tail. */
constexpr double kLatencyLimit = 5e-3;
/** A rung whose unanswered requests at its close exceed this share of
 *  those sent has a growing backlog. */
constexpr double kBacklogShare = 0.01;
/** Requests per window: p75 is the highest percentile of a window with
 *  10 samples beyond it (see tailLatency). */
constexpr std::size_t kWindow = 40;
/** Share of windows, quietest first, whose figure is reported. */
constexpr double kQuietShare = 0.1;
constexpr s64 kSetupRepeats = 3;
constexpr s64 kLayers = 2;
constexpr s64 kProbeIterations = 2000;

/** Offered rates (requests/s) of the timed phase, lowest first. */
const double kLadder[] = {500.0, 1000.0, 2000.0, 3000.0};

/** The rung a traced run replays with and without daemon metrics. */
constexpr std::size_t kTraceRung = 2;

const char *const kModels[] = {"gpt", "llama2-7b", "opt-6.7b", "opt-13b"};
const char *const kChips[] = {"dynaplasia", "prime"};
const s64 kBuckets[] = {64, 128, 192, 256};

/** One hot-set plan: how to ask for it and what the answer must be. */
struct HotPlan
{
    ServeRequest wire;
    std::string body; ///< request line without the id
    std::string key;
    Cycles cycles = 0;
    Cycles cimMlcCycles = 0;
};

std::string
requestBody(const ServeRequest &r)
{
    std::ostringstream os;
    os << "\"model\":\"" << r.model << "\",\"chip\":\"" << r.chip
       << "\",\"decode\":" << r.decodeKv << ",\"layers\":" << r.layers
       << "}";
    return os.str();
}

std::string
requestLine(const std::string &id, const HotPlan &plan)
{
    return "{\"op\":\"compile\",\"id\":\"" + id + "\"," + plan.body + "\n";
}

void
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error(std::string("socket write failed: ")
                                     + std::strerror(errno));
        done += static_cast<std::size_t>(n);
    }
}

/** Sleep to just before @p due, then spin to it. */
void
waitUntil(double due)
{
    double ahead = due - nowSeconds();
    if (ahead > 300e-6) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(ahead - 200e-6));
    }
    while (nowSeconds() < due) {
    }
}

/** One received line and when it arrived. */
struct Line
{
    double at = 0.0;
    std::string text;
};

/**
 * A `cmswitchc serve` daemon on a Unix socket plus one client
 * connection with a reader thread. The destructor kills and reaps a
 * daemon that was not stopped cleanly.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &cacheDir,
           const std::string &metricsFile)
    {
        removeTree("daemon.sock");
        removeTree("daemon.pid");
        std::vector<std::string> argv = {
            binary,        "serve",      "--socket",    "daemon.sock",
            "--pid-file",  "daemon.pid", "--cache-dir", cacheDir,
            "--max-queue", "64"};
        if (!metricsFile.empty()) {
            argv.push_back("--metrics");
            argv.push_back(metricsFile);
        }
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            int log = ::open("daemon.log",
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (log >= 0) {
                ::dup2(log, 1);
                ::dup2(log, 2);
            }
            std::vector<char *> raw;
            for (std::string &a : argv)
                raw.push_back(a.data());
            raw.push_back(nullptr);
            ::execv(raw[0], raw.data());
            ::_exit(127);
        }
        // The pid file appears once the daemon listens.
        double deadline = nowSeconds() + 30.0;
        while (::access("daemon.pid", F_OK) != 0) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon exited during start-up");
            }
            if (nowSeconds() > deadline)
                throw std::runtime_error("daemon did not start");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, "daemon.sock", sizeof addr.sun_path - 1);
        if (fd_ < 0
            || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr)
                   != 0)
            throw std::runtime_error("cannot connect to the daemon");
        reader_ = std::thread([this] { readLoop(); });
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_RDWR);
        if (reader_.joinable())
            reader_.join();
        if (fd_ >= 0)
            ::close(fd_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    void send(const std::string &line) { writeAll(fd_, line); }

    s64 blankLines() const { return blank_.load(); }

    /** Wait until at least @p count non-blank lines arrived. */
    bool waitFor(s64 count, double timeoutSeconds)
    {
        double deadline = nowSeconds() + timeoutSeconds;
        while (received_.load() < count) {
            if (nowSeconds() > deadline || eof_.load())
                return false;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return true;
    }

    /** Take every line received so far. */
    std::vector<Line> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Line> out;
        out.swap(lines_);
        return out;
    }

    /** The daemon's peak resident set so far (VmHWM), in MiB. */
    double peakRssMb() const
    {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        }
        return 0.0;
    }

    /** Ask for shutdown, wait for the daemon to exit and return its
     *  peak RSS in MiB. */
    double stop()
    {
        send("{\"op\":\"shutdown\",\"id\":\"shutdown\"}\n");
        ::shutdown(fd_, SHUT_WR);
        if (reader_.joinable())
            reader_.join();
        int status = 0;
        struct rusage usage{};
        ::wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("daemon exited uncleanly");
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

  private:
    void readLoop()
    {
        std::string buffer;
        char chunk[65536];
        for (;;) {
            ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            double at = nowSeconds();
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            std::vector<Line> batch;
            for (std::size_t nl = buffer.find('\n', start);
                 nl != std::string::npos; nl = buffer.find('\n', start)) {
                if (nl == start)
                    ++blank_;
                else
                    batch.push_back(Line{at, buffer.substr(start, nl - start)});
                start = nl + 1;
            }
            buffer.erase(0, start);
            if (!batch.empty()) {
                std::lock_guard<std::mutex> lock(mutex_);
                for (Line &line : batch)
                    lines_.push_back(std::move(line));
                received_ += static_cast<s64>(batch.size());
            }
        }
        eof_ = true;
    }

    pid_t pid_ = -1;
    int fd_ = -1;
    std::mutex mutex_; ///< guards lines_
    std::vector<Line> lines_;
    std::atomic<s64> received_{0};
    std::atomic<s64> blank_{0};
    std::atomic<bool> eof_{false};
    std::thread reader_; ///< last: it uses every member above
};

/** A parsed response line. */
struct Response
{
    double at = 0.0;
    std::string id;
    std::string status;
    std::string key;
    std::string cache;
    s64 cycles = 0;
    bool valid = false;
    bool coalesced = false;
    double queueWait = 0.0;
    double execute = 0.0;
};

bool
parseResponse(const Line &line, Response *out)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(line.text, &doc, &error) || !doc.isObject())
        return false;
    out->at = line.at;
    auto str = [&](const char *k) {
        const JsonValue *v = doc.find(k);
        return v && v->isString() ? v->stringValue : std::string();
    };
    auto num = [&](const char *k) {
        const JsonValue *v = doc.find(k);
        return v && v->isNumber() ? v->numberValue : 0.0;
    };
    auto flag = [&](const char *k) {
        const JsonValue *v = doc.find(k);
        return v && v->isBool() && v->boolValue;
    };
    out->id = str("id");
    out->status = str("status");
    out->key = str("key");
    out->cache = str("cache");
    const JsonValue *cycles = doc.find("cycles");
    out->cycles = cycles && cycles->isNumber() ? cycles->intValue : -1;
    out->valid = flag("valid");
    out->coalesced = flag("coalesced");
    out->queueWait = num("queue_wait_seconds");
    out->execute = num("execute_seconds");
    return true;
}

/** Outcome of one timed request. */
struct Timed
{
    std::size_t plan = 0;
    double due = 0.0;
    double sent = 0.0;
    s64 responses = 0;
    Response response;
};

/** Check @p r against the setup compile of @p plan; true when ok. */
bool
responseMatches(const Response &r, const HotPlan &plan)
{
    return r.status == "ok" && r.valid && r.key == plan.key
        && r.cycles == static_cast<s64>(plan.cycles);
}

/** Start a daemon and warm it: every hot key once, a disk hit each. */
std::unique_ptr<Daemon>
startWarm(const Args &args, const std::vector<HotPlan> &plans,
          const std::string &metricsFile, Result *out, double *seconds,
          s64 *diskHits)
{
    double t0 = nowSeconds();
    auto daemon = std::make_unique<Daemon>(args.cmswitchc, "hot_cache",
                                           metricsFile);
    std::string burst;
    for (std::size_t i = 0; i < plans.size(); ++i)
        burst += requestLine("w" + std::to_string(i), plans[i]);
    daemon->send(burst);
    bool complete =
        daemon->waitFor(static_cast<s64>(plans.size()), 60.0);
    *seconds = nowSeconds() - t0;
    out->check(complete, "warm-up responses missing");
    *diskHits = 0;
    for (const Line &line : daemon->take()) {
        Response r;
        bool parsed = parseResponse(line, &r);
        std::size_t index =
            parsed && r.id.size() > 1 ? std::stoul(r.id.substr(1)) : 0;
        out->check(parsed && index < plans.size()
                       && responseMatches(r, plans[index]),
                   "warm-up response does not match the setup compile");
        *diskHits += r.cache == "disk" ? 1 : 0;
    }
    return daemon;
}

/**
 * The median (@p tail false) or tail (@p tail true, per tailLatency) of
 * each window of kWindow consecutive latencies, then the kQuietShare
 * quantile of those across windows: the figure of the quieter windows.
 * On a shared host, preemption of a vCPU stalls whole stretches of
 * requests for milliseconds, and how often that happens changes from
 * run to run by far more than a code change would move the request
 * path; the quieter windows show the path itself. With fewer than
 * kWindow samples it is the figure of all of them.
 */
double
quietWindows(const std::vector<double> &latencies, bool tail)
{
    auto figure = [tail](const std::vector<double> &samples) {
        return tail ? tailLatency(samples).value : quantile(samples, 0.5);
    };
    std::vector<double> perWindow;
    for (std::size_t w = 0; w + kWindow <= latencies.size(); w += kWindow) {
        perWindow.push_back(figure(std::vector<double>(
            latencies.begin() + static_cast<std::ptrdiff_t>(w),
            latencies.begin() + static_cast<std::ptrdiff_t>(w + kWindow))));
    }
    return perWindow.empty() ? figure(latencies)
                             : quantile(perWindow, kQuietShare);
}

/** Per-rung summary. */
struct Rung
{
    double rate = 0.0;
    double duration = 0.0;
    double achieved = 0.0;  ///< requests sent / duration
    double p99 = 0.0;       ///< pooled, recorded only
    double quietTail = 0.0; ///< quietWindows tail: the limit's figure
    s64 unanswered = 0;     ///< still unanswered when the rung closed
    bool pass = false;
};

/**
 * Drive @p daemon with Poisson arrivals at @p rate for @p duration;
 * appends to @p timed and returns the rung summary. Waits for every
 * response (untimed) before returning.
 */
Rung
runRung(Daemon &daemon, const std::vector<HotPlan> &plans, double rate,
        double duration, Rng &rng, std::vector<Timed> *timed,
        s64 *received)
{
    Rung rung;
    rung.rate = rate;
    rung.duration = duration;
    std::size_t first = timed->size();
    std::vector<std::string> lines;
    double offset = rng.exponential(rate);
    while (offset < duration) {
        Timed t;
        t.plan = static_cast<std::size_t>(
            rng.below(static_cast<s64>(plans.size())));
        t.due = offset;
        timed->push_back(t);
        lines.push_back(
            requestLine("r" + std::to_string(timed->size() - 1), plans[t.plan]));
        offset += rng.exponential(rate);
    }
    double start = nowSeconds() + 0.01;
    for (std::size_t i = first; i < timed->size(); ++i) {
        Timed &t = (*timed)[i];
        t.due += start;
        waitUntil(t.due);
        t.sent = nowSeconds();
        daemon.send(lines[i - first]);
    }
    s64 sent = static_cast<s64>(timed->size() - first);
    *received += sent;
    daemon.waitFor(*received, 30.0);
    double end = start + duration;
    std::vector<double> latencies;
    for (const Line &line : daemon.take()) {
        Response r;
        if (!parseResponse(line, &r) || r.id.size() < 2 || r.id[0] != 'r')
            continue;
        std::size_t index = std::stoul(r.id.substr(1));
        if (index < first || index >= timed->size())
            continue;
        Timed &t = (*timed)[index];
        ++t.responses;
        t.response = r;
        // A shed or failed request misses any latency limit.
        latencies.push_back(r.status == "ok"
                                ? r.at - t.due
                                : std::numeric_limits<double>::infinity());
        rung.unanswered += r.at > end ? 1 : 0;
    }
    for (std::size_t i = first; i < timed->size(); ++i) {
        if ((*timed)[i].responses == 0) {
            latencies.push_back(std::numeric_limits<double>::infinity());
            ++rung.unanswered;
        }
    }
    rung.achieved = static_cast<double>(sent) / duration;
    rung.p99 = quantile(latencies, 0.99);
    rung.quietTail = quietWindows(latencies, true);
    rung.pass = rung.quietTail <= kLatencyLimit
             && static_cast<double>(rung.unanswered)
                    <= kBacklogShare * static_cast<double>(sent);
    return rung;
}

/** Round trip of one request-sized line out and one response-sized
 *  line back over a Unix socketpair, through an echo thread; one span
 *  per round trip into @p spans. */
double
transportRoundTrip(const std::string &request, const std::string &response,
                   SpanLog &spans)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("socketpair failed");
    std::thread echo([&] {
        std::string buffer;
        char chunk[4096];
        for (;;) {
            pollfd p{fds[1], POLLIN, 0};
            ::poll(&p, 1, 200);
            ssize_t n = ::read(fds[1], chunk, sizeof chunk);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
                 nl = buffer.find('\n')) {
                buffer.erase(0, nl + 1);
                writeAll(fds[1], response);
            }
        }
    });
    std::vector<double> samples;
    char chunk[4096];
    for (s64 i = 0; i < kProbeIterations; ++i) {
        double t0 = nowSeconds();
        writeAll(fds[0], request);
        std::size_t got = 0;
        while (got < response.size()) {
            ssize_t n = ::read(fds[0], chunk, sizeof chunk);
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        double t1 = nowSeconds();
        samples.push_back(t1 - t0);
        spans.record("serve.transport", "serve", t0, t1, i);
    }
    ::shutdown(fds[0], SHUT_WR);
    echo.join();
    ::close(fds[0]);
    ::close(fds[1]);
    return mean(samples);
}

/** Counter @p name of a metrics snapshot file (0 when absent). */
double
snapshotCounter(const JsonValue &snapshot, const char *name)
{
    const JsonValue *counters = snapshot.find("counters");
    const JsonValue *v = counters ? counters->find(name) : nullptr;
    return v && v->isNumber() ? v->numberValue : 0.0;
}

} // namespace

void
runServeHot(const Args &args, Result *out)
{
    if (args.cmswitchc.empty())
        throw std::runtime_error("serve_hot needs --cmswitchc");
    const std::string dir = args.workDir + "/serve_hot";
    removeTree(dir);
    if (!makeDirs(dir) || ::chdir(dir.c_str()) != 0)
        throw std::runtime_error("cannot enter " + dir);
    ::signal(SIGPIPE, SIG_IGN);

    // ---- Untimed: compile the hot set into the disk cache, plus the
    // CIM-MLC yardstick for the same graphs.
    std::vector<HotPlan> plans;
    for (const char *model : kModels)
        for (const char *chip : kChips)
            for (s64 kv : kBuckets) {
                HotPlan plan;
                plan.wire.model = model;
                plan.wire.chip = chip;
                plan.wire.decodeKv = kv;
                plan.wire.layers = kLayers;
                plan.body = requestBody(plan.wire);
                plans.push_back(std::move(plan));
            }
    {
        CompileServiceOptions options;
        options.threads = std::clamp<s64>(
            static_cast<s64>(std::thread::hardware_concurrency()), 1, 4);
        options.cacheDir = "hot_cache";
        CompileService service(options);
        std::vector<std::future<ArtifactPtr>> futures;
        std::vector<CompileRequest> requests;
        for (HotPlan &plan : plans) {
            CompileRequest request;
            std::string error;
            if (!resolveServeRequest(plan.wire, &request, &error))
                throw std::runtime_error(error);
            requests.push_back(request);
            futures.push_back(service.submit(std::move(request)));
        }
        for (std::size_t i = 0; i < plans.size(); ++i) {
            ArtifactPtr artifact = futures[i].get();
            out->check(artifact->validation.ok(),
                       "hot-set plan failed validation");
            plans[i].key = artifact->key;
            plans[i].cycles = artifact->result.totalCycles();
            requests[i].compilerId = "cim-mlc";
            plans[i].cimMlcCycles =
                compileArtifact(requests[i])->result.totalCycles();
        }
    }
    std::vector<double> ratios, cycles;
    for (const HotPlan &plan : plans) {
        ratios.push_back(static_cast<double>(plan.cimMlcCycles)
                         / static_cast<double>(plan.cycles));
        cycles.push_back(static_cast<double>(plan.cycles));
    }
    out->exact["speedup_vs_cimmlc"] = geomean(ratios);
    out->exact["plan_cycles_geomean"] = geomean(cycles);

    Rng rng(args.seed ^ 0x73657276655f686full);
    std::vector<Timed> timed;
    s64 received = 0;
    std::vector<double> setupSamples;
    s64 diskHits = 0;
    auto setup = [&](const std::string &metricsFile) {
        double seconds = 0.0;
        auto daemon =
            startWarm(args, plans, metricsFile, out, &seconds, &diskHits);
        setupSamples.push_back(seconds);
        received = static_cast<s64>(plans.size());
        return daemon;
    };

    // From the first daemon start to the last response.
    std::optional<CpuWarmer> warmer(std::in_place);
    std::vector<Rung> rungs;
    double setupRss = 0.0, peakRss = 0.0;
    s64 blankLines = 0;
    std::size_t tracedFrom = 0;
    double plainMean = 0.0, tracedMean = 0.0;
    if (!args.trace) {
        for (s64 r = 1; r < kSetupRepeats; ++r)
            setup("")->stop();
        auto daemon = setup("");
        setupRss = daemon->peakRssMb();
        const std::size_t count = std::size(kLadder);
        for (double rate : kLadder) {
            rungs.push_back(runRung(*daemon, plans, rate,
                                    args.seconds / static_cast<double>(count),
                                    rng, &timed, &received));
        }
        blankLines = daemon->blankLines();
        peakRss = daemon->stop();
    } else {
        // Same rung twice: a plain daemon, then one with its metrics
        // registry installed; the per-layer split comes from the second.
        double rate = kLadder[kTraceRung];
        auto plain = setup("");
        rungs.push_back(runRung(*plain, plans, rate, args.seconds / 2.0, rng,
                                &timed, &received));
        plain->stop();
        std::vector<double> plainLatency;
        for (const Timed &t : timed)
            plainLatency.push_back(t.response.at - t.due);
        plainMean = mean(plainLatency);
        tracedFrom = timed.size();
        auto traced = setup("daemon-metrics.json");
        rungs.push_back(runRung(*traced, plans, rate, args.seconds / 2.0,
                                rng, &timed, &received));
        blankLines = traced->blankLines();
        peakRss = traced->stop();
    }
    warmer.reset();
    out->info["warmup_disk_hits"] = static_cast<double>(diskHits);
    out->info["daemon_peak_rss_whole_run_mb"] = peakRss;

    // ---- Output checks: exactly one terminal response per id, and
    // every ok response matches the setup compile.
    std::vector<double> latencies, lags;
    std::array<s64, 4> outcomes{};
    s64 ok = 0, shed = 0, coalesced = 0;
    for (const Timed &t : timed) {
        ++out->attempted;
        lags.push_back(t.sent - t.due);
        const Response &r = t.response;
        bool good = t.responses == 1 && responseMatches(r, plans[t.plan]);
        if (!good) {
            ++out->failed;
            shed += r.status == "shed" ? 1 : 0;
            if (t.responses != 1 || r.status == "ok") {
                out->correct = false;
                if (out->checkFailures.size() < 8)
                    out->checkFailures.push_back(
                        t.responses != 1
                            ? "request got " + std::to_string(t.responses)
                                  + " responses"
                            : "response does not match the setup compile");
            }
            continue;
        }
        ++ok;
        coalesced += r.coalesced ? 1 : 0;
        latencies.push_back(r.at - t.due);
        for (std::size_t o = 0; o < outcomes.size(); ++o)
            if (r.cache == cacheOutcomeName(static_cast<CacheOutcome>(o)))
                ++outcomes[o];
    }
    out->exact["hot_plans"] = static_cast<double>(plans.size());
    out->info["serve.blank_lines"] = static_cast<double>(blankLines);
    out->info["loadgen.lag_p99_s"] = quantile(lags, 0.99);
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        std::string prefix = "rung" + std::to_string(i) + ".";
        out->info[prefix + "rate"] = rungs[i].rate;
        out->info[prefix + "achieved"] = rungs[i].achieved;
        out->info[prefix + "p99_s"] = rungs[i].p99;
        out->info[prefix + "quiet_tail_s"] = rungs[i].quietTail;
        out->info[prefix + "unanswered"] =
            static_cast<double>(rungs[i].unanswered);
        out->info[prefix + "pass"] = rungs[i].pass ? 1.0 : 0.0;
    }

    if (!args.trace) {
        double duration = 0.0, maxRate = 0.0;
        for (const Rung &rung : rungs) {
            duration += rung.duration;
            if (rung.pass)
                maxRate = rung.achieved;
        }
        Tail pooled = tailLatency(latencies);
        double throughput = static_cast<double>(ok) / duration;
        out->metric("setup_s", median(setupSamples), "s");
        out->metric("latency_p50_s", quietWindows(latencies, false), "s");
        out->metric("latency_tail_s", quietWindows(latencies, true), "s");
        out->info["latency_tail_percentile"] =
            tailLatency(std::vector<double>(kWindow)).percentile;
        out->info["latency_p50_pooled_s"] = quantile(latencies, 0.5);
        out->info["latency_tail_pooled_s"] = pooled.value;
        out->info["latency_tail_pooled_percentile"] = pooled.percentile;
        out->metric("throughput_rps", throughput, "1/s");
        out->metric("max_rate_rps", maxRate, "1/s");
        out->metric("sim_events_per_s", throughput, "1/s");
        out->metric("speedup_vs_cimmlc", out->exact["speedup_vs_cimmlc"], "x");
        out->metric("plan_cycles_geomean", out->exact["plan_cycles_geomean"],
                    "cycles");
        out->metric("peak_rss_mb", setupRss, "MiB");
        return;
    }

    // ---- Traced run. Daemon-side split from the traced daemon's
    // responses; the in-process layers timed from outside below.
    std::vector<double> queueWait, execute, tracedLatency, tracedLag;
    for (std::size_t i = tracedFrom; i < timed.size(); ++i) {
        const Timed &t = timed[i];
        if (t.responses != 1 || t.response.status != "ok")
            continue;
        queueWait.push_back(t.response.queueWait);
        execute.push_back(t.response.execute);
        tracedLatency.push_back(t.response.at - t.due);
        tracedLag.push_back(t.sent - t.due);
        args.spans->record("serve.request", "serve", t.due, t.response.at,
                           static_cast<s64>(i));
    }
    tracedMean = mean(tracedLatency);

    std::vector<double> parse, resolve, build, key, memory, render, disk;
    std::size_t responseBytes = 0;
    {
        CompileServiceOptions options;
        options.cacheDir = "hot_cache";
        CompileService service(options);
        for (s64 i = 0; i < kProbeIterations; ++i) {
            const HotPlan &plan =
                plans[static_cast<std::size_t>(i) % plans.size()];
            std::string line = requestLine("p" + std::to_string(i), plan);
            line.pop_back();
            ServeRequest request;
            CompileRequest resolved;
            std::string error;
            double t0 = nowSeconds();
            parseServeRequest(line, &request, &error);
            double t1 = nowSeconds();
            resolveServeRequest(request, &resolved, &error);
            double t2 = nowSeconds();
            TransformerConfig cfg = transformerConfigByName(request.model);
            cfg.layers = request.layers;
            Graph graph = buildTransformerDecodeStep(cfg, request.batch,
                                                     request.decodeKv);
            double t3 = nowSeconds();
            std::string k = requestKey(resolved);
            double t4 = nowSeconds();
            CacheOutcome outcome = CacheOutcome::kCold;
            ArtifactPtr artifact = service.compileNow(resolved, &outcome);
            double t5 = nowSeconds();
            std::string rendered = renderServeResult(
                request, *artifact, outcome, false, ServiceRequestLatency{});
            double t6 = nowSeconds();
            parse.push_back(t1 - t0);
            resolve.push_back(t2 - t1);
            build.push_back(t3 - t2);
            key.push_back(t4 - t3);
            (outcome == CacheOutcome::kDisk ? disk : memory)
                .push_back(t5 - t4);
            render.push_back(t6 - t5);
            responseBytes = rendered.size() + 1;
            SpanLog &spans = *args.spans;
            spans.record("serve.parse", "serve", t0, t1, i);
            spans.record("serve.resolve", "serve", t1, t2, i);
            spans.record("models.build", "models", t2, t3, i);
            spans.record("service.key", "service", t3, t4, i);
            spans.record(outcome == CacheOutcome::kDisk
                             ? "service.lookup_disk"
                             : "service.lookup_memory",
                         "service", t4, t5, i);
            spans.record("serve.render", "serve", t5, t6, i);
        }
    }
    double transport = transportRoundTrip(requestLine("r1000", plans[0]),
                                          std::string(responseBytes, 'x'),
                                          *args.spans);

    double resolveSelf = mean(resolve) - mean(build);
    double attributed = mean(tracedLag) + transport + mean(parse)
                      + resolveSelf + mean(build) + mean(key)
                      + mean(queueWait) + mean(execute) + mean(render);
    out->metric("models.build_s", mean(build), "s");
    out->metric("service.key_s", mean(key), "s");
    out->metric("service.lookup_memory_s", mean(memory), "s");
    out->metric("service.lookup_disk_s", mean(disk), "s");
    out->metric("serve.parse_s", mean(parse), "s");
    out->metric("serve.resolve_s", resolveSelf, "s");
    out->metric("serve.render_s", mean(render), "s");
    out->metric("serve.queue_wait_s", mean(queueWait), "s");
    out->metric("serve.execute_s", mean(execute), "s");
    out->metric("serve.transport_s", transport, "s");
    out->metric("serve.coalesced_frac",
                ok > 0 ? static_cast<double>(coalesced)
                             / static_cast<double>(ok)
                       : 0.0,
                "ratio");
    out->metric("serve.shed_frac",
                static_cast<double>(shed)
                    / static_cast<double>(std::max<s64>(1, out->attempted)),
                "ratio");
    out->metric("serve.blank_lines", static_cast<double>(blankLines),
                "count");
    out->metric("loadgen.lag_p99_s", quantile(lags, 0.99), "s");
    const char *outcomeNames[] = {"memory", "disk", "neighbor", "cold"};
    for (std::size_t o = 0; o < outcomes.size(); ++o)
        out->metric(std::string("service.outcome_") + outcomeNames[o],
                    static_cast<double>(outcomes[o]), "count");
    out->metric("trace.unattributed_s", tracedMean - attributed, "s");
    out->metric("trace.overhead_frac",
                plainMean > 0 ? tracedMean / plainMean - 1.0 : 0.0, "ratio");

    // The daemon's own registry: it must have compiled nothing.
    std::ifstream in("daemon-metrics.json");
    std::stringstream text;
    text << in.rdbuf();
    JsonValue snapshot;
    std::string error;
    bool parsed = parseJson(text.str(), &snapshot, &error);
    out->check(parsed, "daemon metrics snapshot unreadable");
    out->metric("compiler.dp_boundaries",
                snapshotCounter(snapshot, "dp.boundaries"), "count");
    out->metric("compiler.alloc_probes",
                snapshotCounter(snapshot, "alloc.probes"), "count");
    out->metric("solver.mip_solves", snapshotCounter(snapshot, "mip.solves"),
                "count");
    out->metric("solver.lp_solves", snapshotCounter(snapshot, "lp.solves"),
                "count");
    out->check(snapshotCounter(snapshot, "compile.compiles") == 0.0,
               "the daemon compiled during serve_hot");
}

} // namespace perfbench
