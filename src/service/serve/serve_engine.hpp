/**
 * @file
 * The serve daemon's core: request lifecycle management between the
 * wire protocol (serve_protocol.hpp) and the compile service.
 *
 * Shape: one session thread calls handleLine() for every request line,
 * and maxInflight worker threads pull admitted requests off a
 * ServeQueue and run them through CompileService::compileNow — so the
 * admission gate bounds concurrent compiles directly, and the service's
 * memory/disk/neighbor cache chain plus single-flight semantics apply
 * unchanged under serving load.
 *
 * What the engine adds on top of the queue's policy:
 *
 *  - Cross-request coalescing: a compile request whose key matches a
 *    request already queued or in flight does not take a queue slot —
 *    it rides as a "rider" on that group and receives the same
 *    artifact in its own response (marked "coalesced":true). This is
 *    the serve-layer face of PlanCache's single-flight dedup; it
 *    differs in refusing even a second *slot*, not just a second
 *    compile.
 *  - Latency accounting: every completed request records queue-wait
 *    (receipt -> worker pickup), execute (pickup -> artifact) and
 *    total seconds into LogHistograms, reported as p50/p90/p95/p99 in
 *    the cmswitch-serve-status-v2 document and mirrored to the global
 *    obs:: registry when one is installed (--trace/--metrics). The
 *    quantiles are *cumulative since daemon start*; periodic
 *    --status-every lines additionally carry an "interval" block —
 *    true deltas since the previous periodic line, computed by
 *    snapshot-and-subtract on the histograms (LogHistogram::
 *    subtractSnapshot). The on-demand "status" op never advances the
 *    snapshot, so scripted status probes cannot perturb the periodic
 *    intervals.
 *  - Scripting ops for determinism: "hold" parks the workers so a test
 *    can fill the queue and force exact admission/coalescing/deadline
 *    decisions, "release" resumes, "drain" acks once the engine is
 *    idle. The serve smoke test and the service_test status-determinism
 *    case are built entirely from these.
 *
 * Thread-safety: all engine state sits behind one mutex; response
 * emission happens outside it (under its own lock) so a slow client
 * write never blocks admission decisions. Response lines for
 * *different* request ids may interleave arbitrarily; per id the
 * protocol emits exactly one terminal response.
 */

#ifndef CMSWITCH_SERVICE_SERVE_SERVE_ENGINE_HPP
#define CMSWITCH_SERVICE_SERVE_SERVE_ENGINE_HPP

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "service/serve/serve_queue.hpp"

namespace cmswitch {

struct ServeEngineOptions
{
    s64 maxInflight = 1; ///< concurrent compiles == worker threads
    s64 maxQueue = 16;   ///< admitted requests waiting behind them

    /** Emit a status line (via the status sink) every N completed
     *  compile groups; 0 disables. */
    s64 statusEvery = 0;

    /** The compile service behind the gate. `threads` is forced to 1:
     *  serve workers call compileNow() themselves, so the service's
     *  own pool would only idle. */
    CompileServiceOptions service;
};

class ServeEngine
{
  public:
    /** Sink for one complete response/status line (no newline). Called
     *  serially — never concurrently with itself. */
    using LineFn = std::function<void(const std::string &)>;

    /** @p onStatus (may be null) receives periodic status lines;
     *  responses always go to @p onResponse. */
    ServeEngine(ServeEngineOptions options, LineFn onResponse,
                LineFn onStatus = nullptr);

    /** Releases any hold, drains admitted work, joins the workers. */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Process one request line from the session. Every line produces
     * at least one response line (compiles produce theirs later, from
     * a worker). Returns false when the line was a shutdown request —
     * the ack has been sent and admitted work drained; the caller
     * should close the session.
     */
    bool handleLine(const std::string &line);

    /** Block until nothing is queued or in flight AND every response
     *  line for finished work has been written to the sink — a caller
     *  may close the transport right after this returns. A hold blocks
     *  this until released. */
    void drainIdle();

    /** The cmswitch-serve-status-v2 document (compact one-liner,
     *  cumulative counters/quantiles, no interval block). */
    std::string statusJson();

  private:
    /** One admitted compile: the leader request plus coalesced riders. */
    struct Group
    {
        u64 seq = 0;
        std::string key;
        ServeRequest lead;
        CompileRequest request;
        std::vector<std::string> riderIds;
        double enqueuedSeconds = 0.0;
    };

    void workerLoop();
    void handleCompile(const ServeRequest &request);
    double nowSeconds() const;

    /** Wake drainIdle() waiters if nothing is queued, running, or
     *  still being written to the sink. Caller must hold mutex_. */
    void notifyIfIdleLocked();

    /** statusJson() with the requesting id echoed ("" for periodic).
     *  @p interval appends the delta block since the last periodic
     *  line and advances the snapshot — periodic emits only, so the
     *  "status" op stays a pure read. */
    std::string statusLine(const std::string &id, bool interval);

    /** Serialize @p line to the response sink. */
    void emit(const std::string &line);
    void emitStatus();

    /** Shed every member of @p group with @p reason. Caller must NOT
     *  hold mutex_. @p depth/@p inflight snapshot the load at decision
     *  time for the backpressure response. */
    void emitShedGroup(const Group &group, const char *reason, s64 depth,
                       s64 inflight);

    ServeEngineOptions options_;
    CompileService service_;
    LineFn onResponse_;
    LineFn onStatus_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;  ///< workers: work available / stop
    std::condition_variable idle_;  ///< drainIdle(): engine went idle
    ServeQueue queue_;
    std::map<u64, Group> queued_;           ///< seq -> admitted group
    std::map<std::string, u64> keyToSeq_;   ///< coalescing: queued+inflight
    std::map<u64, Group> inflight_;         ///< seq -> running group
    u64 nextSeq_ = 1;
    s64 inflightCount_ = 0;

    /** Worker-side response batches not yet written to the sink.
     *  drainIdle() waits on this too: "drained" must mean the client
     *  has (or is guaranteed to get) every response line, or a daemon
     *  closing the connection after a drain would drop late riders. */
    s64 pendingEmits_ = 0;
    bool held_ = false;
    bool stopping_ = false;

    /** @{ status-v1 counters (guarded by mutex_). */
    s64 received_ = 0;       ///< compile requests seen
    s64 admitted_ = 0;       ///< granted a queue slot
    s64 coalesced_ = 0;      ///< riders on an existing group
    s64 shedAdmission_ = 0;  ///< refused (or evicted) at the gate
    s64 shedDeadline_ = 0;   ///< expired while queued
    s64 errors_ = 0;         ///< parse/resolve/compile failures
    s64 completed_ = 0;      ///< ok compile responses (incl. riders)
    s64 completedGroups_ = 0;
    std::array<s64, 4> cacheOutcomes_{}; ///< indexed by CacheOutcome
    /** @} */

    /** Latency estimators, cumulative since start (internally
     *  thread-safe; written under mutex_ anyway). */
    obs::LogHistogram queueWaitHist_;
    obs::LogHistogram executeHist_;
    obs::LogHistogram totalHist_;

    /** @{ State of the *previous* periodic status line: subtracting it
     *  from the cumulative estimators yields the interval block.
     *  Guarded by mutex_. */
    obs::LogHistogram queueWaitSnap_;
    obs::LogHistogram executeSnap_;
    obs::LogHistogram totalSnap_;
    s64 completedSnap_ = 0;
    /** @} */

    std::mutex emitMutex_; ///< serializes the response sink
    std::vector<std::thread> workers_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_SERVE_SERVE_ENGINE_HPP
