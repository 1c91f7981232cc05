/**
 * @file
 * cmswitchc — command-line driver for the CMSwitch compiler.
 *
 * Modes:
 *   cmswitchc --model ... [options]   single compile (the classic CLI)
 *   cmswitchc batch --jobs FILE ...   many compiles through the
 *                                     thread-pooled compile service
 *   cmswitchc serve [options]         long-lived compile daemon over
 *                                     stdin/stdout or a Unix socket
 *                                     (docs/serving.md)
 *   cmswitchc sim --scenario FILE     discrete-event serving
 *                                     simulator: compiled plans under
 *                                     traffic (docs/simulation.md)
 *   cmswitchc cache <gc|stats|verify> lifecycle maintenance of a
 *                                     --cache-dir plan directory
 *   cmswitchc fingerprint             plan fingerprint + algorithm
 *                                     revision table as JSON
 *
 * Flags, defaults and examples live in one place: the kUsage text
 * below, printed by `cmswitchc --help`. Running without arguments
 * prints the same text and exits with status 2, as does any malformed
 * invocation; semantic errors (unknown model/chip) exit 1 via fatal().
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/chip_parser.hpp"
#include "baselines/baseline.hpp"
#include "eval/evaluation.hpp"
#include "graph/serialize.hpp"
#include "metaop/printer.hpp"
#include "metaop/validator.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "service/artifact_io.hpp"
#include "service/cache_maintenance.hpp"
#include "service/compile_service.hpp"
#include "service/json_report.hpp"
#include "service/plan_fingerprint.hpp"
#include "service/serve/serve_engine.hpp"
#include "service/serve/serve_io.hpp"
#include "sim/energy.hpp"
#include "sim/serving/scenario.hpp"
#include "sim/serving/simulator.hpp"
#include "sim/timing.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

#ifndef CMSWITCH_VERSION
#define CMSWITCH_VERSION "dev"
#endif

namespace cmswitch {
namespace {

const char kUsage[] =
    R"(usage: cmswitchc --model <zoo-name | file.graph> [options]
       cmswitchc batch --jobs <file> --out-dir <dir> [batch options]
       cmswitchc serve [--socket <path>] [serve options]
       cmswitchc serve --connect <path> --script <file>
       cmswitchc sim --scenario <file> [sim options]
       cmswitchc cache <gc|stats|verify> --cache-dir <dir> [cache options]
       cmswitchc fingerprint

Compile a DNN for a dual-mode CIM chip and report the schedule.

Options:
  --model NAME|FILE   zoo model name (vgg16, resnet18, resnet50,
                      mobilenetv2, bert-base, bert-large, gpt,
                      llama2-7b, opt-6.7b, opt-13b) or a path to a
                      textual graph file (graph/serialize.hpp format)
  --chip NAME|FILE    dynaplasia (default), prime, or a chip
                      description file (arch/chip_parser.hpp format)
  --compiler NAME     cmswitch (default), cim-mlc, occ, puma
  --batch N           batch size for zoo models (default 1)
  --seq N             sequence length for transformers (default 64)
  --decode N          compile a decode step with kv length N instead
                      of a prefill pass (decoder-only models)
  --layers N          override transformer layer count
  --optimize          run the frontend graph passes before compiling
  --out FILE          write the meta-operator program to FILE
  --emit-json FILE    write the machine-readable compile report to
                      FILE (schema: docs/schemas.md)
  --cache-dir DIR     persistent plan cache shared across processes:
                      lookups go memory -> disk -> neighbor (warm
                      start from a similar request's retained search
                      state) -> cold, fresh compiles are stored back
                      to DIR, and stderr names the tier that served
  --stats             print the latency/energy breakdown only
  --trace FILE        record the compile pipeline (frontend passes,
                      segmenter DP, allocator probes, solver
                      calls, cache lookups) and write a Chrome
                      trace-event JSON to FILE; open it in
                      chrome://tracing or https://ui.perfetto.dev.
                      Plans are byte-identical with or without tracing
  --metrics FILE      write a JSON metrics snapshot (counters, gauges
                      and per-phase latency quantiles) to FILE.
                      --trace/--metrics also add an "observability"
                      section to --emit-json reports
  --help              print this message and exit
  --version           print version + plan fingerprint and exit

Batch mode compiles one job per line of the jobs file (each line is a
list of the single-mode flags above; '#' starts a comment) through a
worker pool with a shared content-keyed plan cache, writing one JSON
report per job plus an aggregate summary:
  --jobs FILE            job list (required)
  --out-dir DIR          directory for per-job reports (required)
  --threads N            worker threads (default 1)
  --summary FILE         summary path (default: <out-dir>/summary.json)
  --cache-capacity N     compiled plans kept in memory (default 256)
  --cache-dir DIR        persistent plan cache shared with other runs
                         (lookups go memory -> disk -> compile)
  --trace FILE           one Chrome trace-event JSON covering every
                         job; each service worker appears as a
                         separate trace thread
  --job-latency          add each job's queue-wait/execute split to its
                         report (the same "observability"."request"
                         section serve responses and single-mode
                         --metrics reports carry). Off by default:
                         timing fields make per-job reports
                         non-byte-comparable across runs

Serve mode runs a long-lived compile daemon: one JSON request object
per line in, one JSON response line per request out (protocol and
schemas: docs/serving.md). Requests carry priorities and deadlines; a
max-in-flight admission gate sheds overload with explicit backpressure
responses, duplicate in-flight requests coalesce onto one compile, and
a status op reports cumulative latency quantiles and cache
outcomes (periodic --status-every lines add interval deltas):
  --socket PATH          listen on a Unix-domain socket; without it the
                         daemon serves one session on stdin/stdout
  --pid-file FILE        write the daemon pid once the socket is
                         listening (the file doubles as the readiness
                         signal for scripts; --socket only)
  --max-inflight N       concurrent compiles (default 1)
  --max-queue N          admitted requests waiting behind them
                         (default 16); an arriving request beyond this
                         either evicts a strictly lower-priority entry
                         or is shed with a backpressure response
  --status-every N       emit a status line to stderr every N completed
                         compiles (default 0 = off)
  --cache-capacity N     compiled plans kept in memory (default 256)
  --cache-dir DIR        persistent plan cache; lookups go memory ->
                         disk -> neighbor -> cold and responses say
                         which step served them
  --trace FILE           Chrome trace-event JSON covering the whole
                         serve run, written on exit
  --metrics FILE         JSON metrics snapshot written on exit
  --connect PATH         client mode: connect to a serving daemon,
                         send the --script request lines ('#' comments
                         and blanks skipped), print every response
  --script FILE          request lines for --connect (required with it)

Sim mode runs the discrete-event serving simulator: a scenario file
(cmswitch-sim-scenario-v1, see docs/simulation.md) describes a fleet
of CIM chips, a workload mix and an open-loop arrival process; the
report (cmswitch-sim-v1) carries throughput, latency quantiles,
per-chip utilization and mode-switch counts. Runs are deterministic:
all randomness comes from the scenario's seed, for any --threads:
  --scenario FILE        scenario config (required)
  --out FILE             write the report to FILE (default stdout)
  --threads N            plan-table compile threads (default 1; the
                         event loop itself is single-threaded)

Cache mode maintains a --cache-dir populated by earlier runs; every
verb prints a JSON report to stdout:
  cache gc --cache-dir DIR --max-bytes N [--max-age SEC]
                         delete the least-recently-used artifacts (by
                         file mtime; hits refresh it) until the *.plan
                         bytes fit under N; --max-age SEC first expires
                         artifacts unused for longer than SEC seconds.
                         At least one bound is required. Orphaned
                         writer temp files are reaped; the stats
                         sidecar is never deleted
  cache stats --cache-dir DIR
                         cross-process lifetime hit/miss/store/reject
                         totals (the cache-stats.sidecar file), plan
                         file count/bytes, and the build fingerprint
  cache verify --cache-dir DIR [--delete]
                         validate every artifact envelope, digest and
                         embedded key; --delete removes damaged files;
                         exits 1 when damaged files remain

Fingerprint mode prints the build's plan fingerprint — the digest that
keys --cache-dir compatibility — plus the per-pass algorithm revision
table behind it, as JSON on stdout:
  cmswitchc fingerprint

Examples:
  cmswitchc --model opt-6.7b --decode 512 --layers 2 --stats
  cmswitchc --model vgg16 --compiler cim-mlc --out vgg16.cmprog
  cmswitchc --model resnet18 --emit-json resnet18.json --stats
  cmswitchc --model bert-base --stats --trace bert.trace.json
  cmswitchc batch --jobs jobs.txt --threads 4 --out-dir reports/
  cmswitchc serve --socket /tmp/cmswitch.sock --max-inflight 2 \
      --pid-file /tmp/cmswitch.pid --cache-dir plans/
  cmswitchc serve --connect /tmp/cmswitch.sock --script requests.txt
  cmswitchc sim --scenario traffic.json --out sim-report.json
  cmswitchc cache gc --cache-dir plans/ --max-bytes 104857600
)";

/** CLI usage error: complain, point at --help, exit 2 (not a crash). */
[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "cmswitchc: error: " << message << "\n"
              << "run 'cmswitchc --help' for usage\n";
    std::exit(2);
}

struct CliArgs
{
    std::string model;
    std::string chip = "dynaplasia";
    std::string compiler = "cmswitch";
    s64 batch = 1;
    s64 seq = 64;
    s64 decodeKv = 0;
    s64 layers = 0;
    std::string outFile;
    std::string emitJson;
    std::string cacheDir;
    std::string traceFile;
    std::string metricsFile;
    bool statsOnly = false;
    bool optimize = false;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    cmswitch_fatal_if(!in, "cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

/** "<context>: <msg>", or just @p msg for the bare command line. */
std::string
inContext(const std::string &context, const std::string &msg)
{
    return context.empty() ? msg : context + ": " + msg;
}

/** Parse @p value as an integer >= @p min_value; usage error naming
 *  @p flag (and @p context) otherwise. Shared by every flag parser. */
s64
parseIntToken(const std::string &flag, const std::string &value,
              s64 min_value, const std::string &context)
{
    s64 parsed = 0;
    try {
        size_t used = 0;
        parsed = std::stoll(value, &used);
        if (used != value.size())
            throw std::invalid_argument(value);
    } catch (const std::exception &) {
        usageError(inContext(context, flag + " needs an integer, got '"
                                          + value + "'"));
    }
    if (parsed < min_value)
        usageError(inContext(context,
                             flag + " must be >= "
                                 + std::to_string(min_value) + ", got "
                                 + value));
    return parsed;
}

/**
 * Parse single-mode flags from @p tokens. @p context names the source
 * in errors ("" for the command line, "jobs file line N" for batch).
 */
CliArgs
parseFlags(const std::vector<std::string> &tokens, const std::string &context)
{
    CliArgs args;
    auto where = [&](const std::string &msg) {
        return inContext(context, msg);
    };
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &flag = tokens[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= tokens.size())
                usageError(where(flag + " needs a value"));
            return tokens[++i];
        };
        auto nextInt = [&](s64 min_value) -> s64 {
            return parseIntToken(flag, next(), min_value, context);
        };
        if (flag == "--model")
            args.model = next();
        else if (flag == "--chip")
            args.chip = next();
        else if (flag == "--compiler")
            args.compiler = next();
        else if (flag == "--batch")
            args.batch = nextInt(1);
        else if (flag == "--seq")
            args.seq = nextInt(1);
        else if (flag == "--decode")
            args.decodeKv = nextInt(0); // 0 == prefill, same as the default
        else if (flag == "--layers")
            args.layers = nextInt(0); // 0 == keep the zoo's layer count
        else if (flag == "--out")
            args.outFile = next();
        else if (flag == "--emit-json")
            args.emitJson = next();
        else if (flag == "--cache-dir")
            args.cacheDir = next();
        else if (flag == "--trace")
            args.traceFile = next();
        else if (flag == "--metrics")
            args.metricsFile = next();
        else if (flag == "--stats")
            args.statsOnly = true;
        else if (flag == "--optimize")
            args.optimize = true;
        else if (flag == "--help" && context.empty()) {
            std::cout << kUsage;
            std::exit(0);
        } else if (flag == "--version" && context.empty()) {
            std::cout << "cmswitchc " << CMSWITCH_VERSION << "\n"
                      << "plan fingerprint " << buildFingerprintHex()
                      << "\n";
            std::exit(0);
        } else {
            usageError(where("unknown flag '" + flag + "'"));
        }
    }
    if (args.model.empty())
        usageError(where("--model is required"));
    return args;
}

CliArgs
parseCli(int argc, char **argv)
{
    if (argc <= 1) {
        std::cerr << kUsage;
        std::exit(2);
    }
    std::vector<std::string> tokens(argv + 1, argv + argc);
    return parseFlags(tokens, "");
}

ChipConfig
resolveChip(const std::string &name)
{
    if (name == "dynaplasia")
        return ChipConfig::dynaplasia();
    if (name == "prime")
        return ChipConfig::prime();
    if (fileExists(name))
        return parseChipConfig(readFile(name));
    cmswitch_fatal("unknown chip '", name, "' (not a preset, not a file)");
}

bool
isCnnZooName(const std::string &name)
{
    return name == "vgg16" || name == "resnet18" || name == "resnet50"
        || name == "mobilenetv2";
}

/** Build a model-zoo workload (@p args.model is NOT a file path). The
 *  only fatal() here is an unknown transformer name — callers that run
 *  off the main thread must have name-checked first. */
Graph
buildZooModel(const CliArgs &args)
{
    if (args.decodeKv > 0) {
        TransformerConfig cfg = transformerConfigByName(args.model);
        if (args.layers > 0)
            cfg.layers = args.layers;
        return buildTransformerDecodeStep(cfg, args.batch, args.decodeKv);
    }
    if (isCnnZooName(args.model))
        return buildModelByName(args.model, args.batch);
    TransformerConfig cfg = transformerConfigByName(args.model);
    if (args.layers > 0)
        cfg.layers = args.layers;
    return buildTransformerPrefill(cfg, args.batch, args.seq);
}

Graph
resolveModel(const CliArgs &args)
{
    if (fileExists(args.model))
        return parseGraph(readFile(args.model));
    return buildZooModel(args);
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    cmswitch_fatal_if(!out, "cannot write ", path);
    out << text;
}

/** Lowercase token safe for file names: non-alnum squashed to '-'. */
std::string
sanitizeToken(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "job" : out;
}

/**
 * Owns a --trace/--metrics observability session: installs the
 * registry/recorder pair into the process-wide obs hooks for the
 * duration of the compile, then writes the requested files. When
 * neither tracing nor @p metrics is asked for nothing is installed and
 * every obs:: call in the pipeline stays a single disabled-branch.
 */
struct ObsSession
{
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> recorder;

    void start(const std::string &trace_file, bool metrics)
    {
        if (trace_file.empty() && !metrics)
            return;
        registry = std::make_unique<obs::MetricsRegistry>();
        if (!trace_file.empty()) {
            recorder = std::make_unique<obs::TraceRecorder>();
            recorder->setThreadName("main");
        }
        obs::install(registry.get(), recorder.get());
    }

    /** Uninstall and write the output files; safe to call when start()
     *  was a no-op. Must run before the recorder/registry die. */
    void finish(const std::string &trace_file,
                const std::string &metrics_file)
    {
        if (!registry)
            return;
        obs::uninstall();
        if (recorder) {
            writeTextFile(trace_file, recorder->exportJson());
            std::cerr << "cmswitchc: trace written to " << trace_file
                      << " (" << recorder->eventCount() << " event(s)";
            if (recorder->droppedEvents() > 0)
                std::cerr << ", " << recorder->droppedEvents()
                          << " dropped";
            std::cerr << ")\n";
        }
        if (!metrics_file.empty()) {
            writeTextFile(metrics_file, registry->snapshotJson());
            std::cerr << "cmswitchc: metrics written to " << metrics_file
                      << "\n";
        }
    }
};

int
singleMain(int argc, char **argv)
{
    CliArgs args = parseCli(argc, argv);
    ObsSession session;
    session.start(args.traceFile, !args.metricsFile.empty());

    // The passes run inside compileArtifact (driven by request.optimize)
    // so a single-mode compile and the identical batch job line hash to
    // the same request key.
    CompileRequest request;
    request.chip = resolveChip(args.chip);
    request.workload = resolveModel(args);
    request.compilerId = args.compiler;
    request.optimize = args.optimize;

    // A one-request compile service: the memory -> disk -> neighbor ->
    // cold lookup chain batch, serve and sim use. Its scope ends before
    // the reports are written, flushing the --cache-dir stats sidecar.
    ArtifactPtr artifact;
    auto executeStart = std::chrono::steady_clock::now();
    {
        CompileService service({.cacheDir = args.cacheDir});
        CacheOutcome outcome = CacheOutcome::kCold;
        artifact = service.compileNow(request, &outcome);
        if (!args.cacheDir.empty()) {
            std::cerr << "cmswitchc: ";
            if (outcome == CacheOutcome::kDisk)
                std::cerr << "plan cache disk hit (" << artifact->key
                          << ") in " << args.cacheDir;
            else if (service.stats().disk.stores > 0)
                std::cerr << "plan cache miss; stored " << artifact->key
                          << " in " << args.cacheDir << " ("
                          << cacheOutcomeName(outcome) << ")";
            else // the publication failed and has already warned
                std::cerr << "plan cache miss; not stored ("
                          << cacheOutcomeName(outcome) << ")";
            std::cerr << "\n";
        }
    }
    // Same queue-wait/execute split the serve daemon and batch jobs
    // report; single mode has no queue, so the wait is identically 0.
    ServiceRequestLatency latency;
    latency.executeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - executeStart)
            .count();
    if (args.optimize) {
        std::cerr << "cmswitchc: frontend passes removed "
                  << artifact->passStats.removedOps << " op(s)\n";
    }

    const CompileResult &result = artifact->result;
    cmswitch_fatal_if(!artifact->validation.ok(),
                      "generated program failed validation:\n",
                      artifact->validation.summary());

    std::cerr << "cmswitchc: " << result.program.modelName() << " -> "
              << result.numSegments() << " segments, "
              << result.totalCycles() << " cycles (intra "
              << result.latency.intra << ", write-back "
              << result.latency.writeback << ", switch "
              << result.latency.modeSwitch << ", rewrite "
              << result.latency.rewrite << "), memory-array ratio "
              << formatDouble(result.avgMemoryArrayRatio(), 3)
              << ", compiled in "
              << formatDouble(result.compileSeconds, 3) << "s\n";
    std::cerr << "cmswitchc: estimated energy "
              << formatDouble(artifact->energy.totalUj(), 2) << " uJ\n";

    // The compile is over: stop recording before rendering reports so
    // the trace/metrics files and the --emit-json observability section
    // all see the same final snapshot.
    session.finish(args.traceFile, args.metricsFile);

    if (!args.emitJson.empty()) {
        // The latency section rides with the metrics snapshot: both are
        // timing-dependent, so reports without --trace/--metrics stay
        // byte-comparable across runs (json_smoke pins this).
        writeTextFile(args.emitJson,
                      renderCompileReport(*artifact,
                                          session.registry.get(),
                                          session.registry ? &latency
                                                           : nullptr));
        std::cerr << "cmswitchc: report written to " << args.emitJson
                  << "\n";
    }

    if (!args.statsOnly) {
        std::string text = printProgram(result.program);
        if (args.outFile.empty()) {
            std::cout << text;
        } else {
            writeTextFile(args.outFile, text);
            std::cerr << "cmswitchc: program written to " << args.outFile
                      << "\n";
        }
    }
    return 0;
}

/** One parsed batch job: the request plus report bookkeeping. */
struct BatchJob
{
    CliArgs cliArgs;        ///< parsed flags; resolveJobs() turns them
                            ///< into the request
    CompileRequest request;
    std::string key;
    std::string reportFile;
    bool graphResolved = false; ///< workload already built (file models)
    bool expectHit = false; ///< key already submitted by an earlier job
};

/**
 * Resolve every job's chip + workload graph and request key, spreading
 * the expensive part — zoo graph construction and request hashing —
 * over up to @p threads worker threads.
 *
 * Everything that can fatal() on user error stays on the main thread:
 * fatal() calls std::exit, and exiting from a worker while its
 * siblings run would tear down static state under them. So the serial
 * prologue resolves every unique chip once (memoized — also skipping
 * repeated chip-file parsing), parses file-based model graphs, and
 * name-checks zoo models; workers then only run buildZooModel on
 * validated names (never re-probing the filesystem, so a file
 * appearing mid-run cannot reroute them onto a fatal() path) plus
 * requestKey hashing. Each job is independent and deterministic, so
 * the parallel fill is observationally identical to a serial loop —
 * only faster for long job lists.
 */
void
resolveJobs(std::vector<BatchJob> *jobs, s64 threads)
{
    std::map<std::string, ChipConfig> chips;
    for (BatchJob &job : *jobs) {
        auto [it, inserted] = chips.try_emplace(job.cliArgs.chip);
        if (inserted)
            it->second = resolveChip(job.cliArgs.chip);
        job.request.chip = it->second;
        job.request.compilerId = job.cliArgs.compiler;
        job.request.optimize = job.cliArgs.optimize;
        if (fileExists(job.cliArgs.model)) {
            job.request.workload = resolveModel(job.cliArgs);
            job.graphResolved = true;
        } else if (job.cliArgs.decodeKv > 0
                   || !isCnnZooName(job.cliArgs.model)) {
            // Cheap name validation; fatals here, not in a worker.
            transformerConfigByName(job.cliArgs.model);
        }
    }

    auto resolveOne = [](BatchJob &job) {
        if (!job.graphResolved)
            job.request.workload = buildZooModel(job.cliArgs);
        job.key = requestKey(job.request);
    };

    s64 workers = std::min(threads, static_cast<s64>(jobs->size()));
    if (workers <= 1) {
        for (BatchJob &job : *jobs)
            resolveOne(job);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (s64 i = 0; i < workers; ++i) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t index = next.fetch_add(1);
                if (index >= jobs->size())
                    return;
                resolveOne((*jobs)[index]);
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();
}

struct BatchArgs
{
    std::string jobsFile;
    std::string outDir;
    std::string summaryFile;
    std::string cacheDir;
    std::string traceFile;
    s64 threads = 1;
    s64 cacheCapacity = 256;
    bool jobLatency = false;
};

BatchArgs
parseBatchArgs(int argc, char **argv)
{
    BatchArgs args;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(flag + " needs a value");
            return argv[++i];
        };
        auto nextInt = [&](s64 min_value) -> s64 {
            return parseIntToken(flag, next(), min_value, "");
        };
        if (flag == "--jobs")
            args.jobsFile = next();
        else if (flag == "--out-dir")
            args.outDir = next();
        else if (flag == "--summary")
            args.summaryFile = next();
        else if (flag == "--threads")
            args.threads = nextInt(1);
        else if (flag == "--cache-capacity")
            args.cacheCapacity = nextInt(1);
        else if (flag == "--cache-dir")
            args.cacheDir = next();
        else if (flag == "--trace")
            args.traceFile = next();
        else if (flag == "--job-latency")
            args.jobLatency = true;
        else if (flag == "--help") {
            std::cout << kUsage;
            std::exit(0);
        } else {
            usageError("unknown batch flag '" + flag + "'");
        }
    }
    if (args.jobsFile.empty())
        usageError("batch mode requires --jobs");
    if (args.outDir.empty())
        usageError("batch mode requires --out-dir");
    if (args.summaryFile.empty())
        args.summaryFile = (std::filesystem::path(args.outDir)
                            / "summary.json").string();
    return args;
}

std::vector<BatchJob>
parseJobs(const BatchArgs &batch)
{
    std::vector<BatchJob> jobs;
    std::istringstream iss(readFile(batch.jobsFile));
    std::string line;
    s64 line_no = 0;
    std::map<std::string, bool> seen;
    while (std::getline(iss, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;

        std::vector<std::string> tokens;
        std::istringstream ls(t);
        std::string tok;
        while (ls >> tok)
            tokens.push_back(tok);

        std::string context =
            batch.jobsFile + " line " + std::to_string(line_no);
        CliArgs args = parseFlags(tokens, context);
        if (!args.outFile.empty() || !args.emitJson.empty()
            || !args.cacheDir.empty() || args.statsOnly
            || !args.traceFile.empty() || !args.metricsFile.empty()) {
            usageError(context + ": --out/--emit-json/--cache-dir/--stats/"
                       "--trace/--metrics are not valid in batch jobs "
                       "(reports go to --out-dir; the cache and trace "
                       "are batch-level)");
        }

        BatchJob job;
        job.cliArgs = args;

        std::ostringstream name;
        name << "job" << std::setw(3) << std::setfill('0') << jobs.size()
             << "_" << sanitizeToken(args.model) << "_"
             << sanitizeToken(args.chip) << "_"
             << sanitizeToken(args.compiler) << ".json";
        job.reportFile = name.str();
        jobs.push_back(std::move(job));
    }
    cmswitch_fatal_if(jobs.empty(), batch.jobsFile, " contains no jobs");

    // Model/chip graph construction is the expensive half of job setup
    // (huge job lists spend seconds here), so it runs on the batch's
    // thread budget instead of serially on the main thread. Each job is
    // independent; requestKey hashing rides along.
    resolveJobs(&jobs, batch.threads);

    // Hit/miss labels derive from submission order (first occurrence of
    // a key compiles, repeats hit) — serial on purpose, so the labels
    // are deterministic under any thread count.
    for (BatchJob &job : jobs) {
        job.expectHit = seen[job.key];
        seen[job.key] = true;
    }
    return jobs;
}

int
batchMain(int argc, char **argv)
{
    BatchArgs batch = parseBatchArgs(argc, argv);
    std::vector<BatchJob> jobs = parseJobs(batch);
    std::filesystem::create_directories(batch.outDir);

    // Metrics are always on in batch mode — the summary's latency
    // quantiles come from them. Declared before the service so workers
    // never outlive the registry; tracing stays opt-in (--trace).
    ObsSession session;
    session.start(batch.traceFile, /*metrics=*/true);
    obs::MetricsRegistry &registry = *session.registry;
    obs::setGauge(obs::Gau::kServiceThreads, batch.threads);

    auto t0 = std::chrono::steady_clock::now();
    CompileService service({.threads = batch.threads,
                            .cacheCapacity = batch.cacheCapacity,
                            .cacheDir = batch.cacheDir});

    // Stable addresses for the per-job latency out-structs: workers
    // write them before their futures become ready (--job-latency).
    std::vector<ServiceRequestLatency> latencies(jobs.size());
    std::vector<std::future<ArtifactPtr>> futures;
    futures.reserve(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k)
        futures.push_back(service.submit(
            jobs[k].request,
            batch.jobLatency ? &latencies[k] : nullptr));

    s64 invalid = 0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        // Drop the ArtifactPtr as soon as its report is on disk: the
        // plan cache (bounded by --cache-capacity) is the only thing
        // keeping plans alive across jobs.
        ArtifactPtr artifact = futures[k].get();
        if (!artifact->validation.ok()) {
            ++invalid;
            warn("batch job ", k, " (", jobs[k].cliArgs.model, " / ",
                 jobs[k].cliArgs.chip, " / ", jobs[k].cliArgs.compiler,
                 ") failed validation:\n",
                 artifact->validation.summary());
        }
        writeTextFile((std::filesystem::path(batch.outDir)
                       / jobs[k].reportFile).string(),
                      renderCompileReport(*artifact, nullptr,
                                          batch.jobLatency
                                              ? &latencies[k]
                                              : nullptr));
    }
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();

    // Every future is drained, so the workers are idle: stop observing
    // before reading the registry for the summary. Late stragglers
    // (none expected) would see the disabled branch, not a torn write.
    session.finish(batch.traceFile, "");

    CompileServiceStats stats = service.stats();
    // Lifetime totals across every process that ever used this
    // --cache-dir: flush this run's deltas into the sidecar now (the
    // destructor's flush then adds nothing) and report the merged sums.
    DiskPlanCacheStats sidecar;
    if (service.diskCache())
        sidecar = service.diskCache()->flushSidecar();
    JsonWriter w;
    w.beginObject()
        .field("schema", "cmswitch-batch-summary-v6")
        .field("jobs", static_cast<s64>(jobs.size()))
        .field("threads", batch.threads)
        .field("invalid_jobs", invalid)
        .field("wall_seconds", wall);
    w.key("cache")
        .beginObject()
        .field("capacity", batch.cacheCapacity)
        .field("hits", stats.cache.hits)
        .field("misses", stats.cache.misses)
        .field("evictions", stats.cache.evictions)
        .field("dir", batch.cacheDir)
        .field("fingerprint", buildFingerprintHex());
    // In-memory misses that a --cache-dir plan file satisfied show up
    // as disk_hits; only (misses - disk_hits) actually compiled.
    stats.disk.writeJsonFields(w, "disk_");
    // Cross-process lifetime totals from the stats sidecar (all zero
    // when --cache-dir is off).
    sidecar.writeJsonFields(w, "sidecar_");
    w.endObject();
    // v4: compile-latency quantiles (p50/p90/p95/p99 from the log
    // histograms) plus the full metrics snapshot — the timing half of
    // the summary, intentionally not byte-stable across runs.
    w.key("latency").beginObject();
    w.key("compile_seconds");
    registry.histogram(obs::Hist::kPhaseCompile).writeJson(w);
    w.key("execute_seconds");
    registry.histogram(obs::Hist::kServiceExecute).writeJson(w);
    w.key("queue_wait_seconds");
    registry.histogram(obs::Hist::kServiceQueueWait).writeJson(w);
    w.endObject();
    w.key("metrics");
    registry.writeJson(w);
    w.key("job_reports").beginArray();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        w.beginObject()
            .field("index", static_cast<s64>(k))
            .field("report", jobs[k].reportFile)
            .field("key", jobs[k].key)
            .field("model", jobs[k].cliArgs.model)
            .field("chip", jobs[k].cliArgs.chip)
            .field("compiler", jobs[k].cliArgs.compiler)
            // First submission of a key compiles, repeats hit the plan
            // cache — derived from submission order, so deterministic
            // under any thread count. If --cache-capacity is smaller
            // than the unique-key count, evicted repeats recompile and
            // the aggregate counters above will exceed these labels.
            .field("cache", jobs[k].expectHit ? "hit" : "miss")
            .endObject();
    }
    w.endArray();
    w.endObject();
    writeTextFile(batch.summaryFile, w.str());

    std::cerr << "cmswitchc: batch of " << jobs.size() << " job(s) on "
              << batch.threads << " thread(s): "
              << stats.cache.misses - stats.disk.hits << " compiled, "
              << stats.cache.hits << " cache hit(s), ";
    if (!batch.cacheDir.empty())
        std::cerr << stats.disk.hits << " disk hit(s), ";
    std::cerr << invalid << " invalid, in " << formatDouble(wall, 2)
              << "s\n"
              << "cmswitchc: summary written to " << batch.summaryFile
              << "\n";
    return invalid == 0 ? 0 : 1;
}

struct ServeArgs
{
    std::string socketPath;
    std::string pidFile;
    std::string connectPath;
    std::string scriptFile;
    std::string cacheDir;
    std::string traceFile;
    std::string metricsFile;
    s64 maxInflight = 1;
    s64 maxQueue = 16;
    s64 statusEvery = 0;
    s64 cacheCapacity = 256;
};

ServeArgs
parseServeArgs(int argc, char **argv)
{
    ServeArgs args;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(flag + " needs a value");
            return argv[++i];
        };
        auto nextInt = [&](s64 min_value) -> s64 {
            return parseIntToken(flag, next(), min_value, "");
        };
        if (flag == "--socket")
            args.socketPath = next();
        else if (flag == "--pid-file")
            args.pidFile = next();
        else if (flag == "--connect")
            args.connectPath = next();
        else if (flag == "--script")
            args.scriptFile = next();
        else if (flag == "--max-inflight")
            args.maxInflight = nextInt(1);
        else if (flag == "--max-queue")
            args.maxQueue = nextInt(1);
        else if (flag == "--status-every")
            args.statusEvery = nextInt(0);
        else if (flag == "--cache-capacity")
            args.cacheCapacity = nextInt(1);
        else if (flag == "--cache-dir")
            args.cacheDir = next();
        else if (flag == "--trace")
            args.traceFile = next();
        else if (flag == "--metrics")
            args.metricsFile = next();
        else if (flag == "--help") {
            std::cout << kUsage;
            std::exit(0);
        } else {
            usageError("unknown serve flag '" + flag + "'");
        }
    }
    if (!args.connectPath.empty() && args.scriptFile.empty())
        usageError("serve --connect requires --script");
    if (args.connectPath.empty() && !args.scriptFile.empty())
        usageError("serve --script only makes sense with --connect");
    if (!args.connectPath.empty() && !args.socketPath.empty())
        usageError("serve --connect (client) and --socket (daemon) are "
                   "mutually exclusive");
    if (!args.pidFile.empty() && args.socketPath.empty())
        usageError("serve --pid-file requires --socket");
    return args;
}

/** `cmswitchc serve`: the long-lived compile daemon (docs/serving.md),
 *  or — with --connect — the script-driven client that tests and
 *  operators use to talk to one. */
int
serveMain(int argc, char **argv)
{
    ServeArgs args = parseServeArgs(argc, argv);
    if (!args.connectPath.empty())
        return runServeClient(args.connectPath, args.scriptFile);

    installServeSignalHandlers();
    ObsSession session;
    session.start(args.traceFile, !args.metricsFile.empty());

    int exitCode = 0;
    {
        // stdin mode answers on stdout (fd 1); socket mode retargets
        // the writer at each accepted connection.
        ServeWriter writer(args.socketPath.empty() ? 1 : -1);
        ServeEngineOptions options;
        options.maxInflight = args.maxInflight;
        options.maxQueue = args.maxQueue;
        options.statusEvery = args.statusEvery;
        options.service.cacheCapacity = args.cacheCapacity;
        options.service.cacheDir = args.cacheDir;
        ServeEngine engine(
            options,
            [&writer](const std::string &line) { writer.writeLine(line); },
            [](const std::string &line) { std::cerr << line + "\n"; });
        if (args.socketPath.empty()) {
            runServeSession(engine, 0);
            engine.drainIdle();
            std::cerr << "cmswitchc: serve: session ended\n";
        } else {
            exitCode = runServeSocketDaemon(engine, writer,
                                            args.socketPath, args.pidFile);
        }
    } // engine destructor: drain admitted work, join the workers
    session.finish(args.traceFile, args.metricsFile);
    return exitCode;
}

/** `cmswitchc cache <gc|stats|verify>`: plan-cache lifecycle ops. All
 *  verbs print their JSON report to stdout (stderr stays free for
 *  warnings), so CI steps and scripts can pipe straight into a JSON
 *  parser. */
int
cacheMain(int argc, char **argv)
{
    if (argc <= 2)
        usageError("cache mode requires a verb: gc, stats, or verify");
    std::string verb = argv[2];
    if (verb == "--help") {
        std::cout << kUsage;
        return 0;
    }
    if (verb != "gc" && verb != "stats" && verb != "verify")
        usageError("unknown cache verb '" + verb
                   + "' (expected gc, stats, or verify)");

    std::string dir;
    s64 max_bytes = -1;
    s64 max_age = -1;
    bool remove_damaged = false;
    for (int i = 3; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--cache-dir")
            dir = next();
        else if (flag == "--max-bytes" && verb == "gc")
            max_bytes = parseIntToken(flag, next(), 0, "");
        else if (flag == "--max-age" && verb == "gc")
            max_age = parseIntToken(flag, next(), 0, "");
        else if (flag == "--delete" && verb == "verify")
            remove_damaged = true;
        else if (flag == "--help") {
            std::cout << kUsage;
            return 0;
        } else {
            usageError("unknown cache " + verb + " flag '" + flag + "'");
        }
    }
    if (dir.empty())
        usageError("cache " + verb + " requires --cache-dir");

    JsonWriter w;
    if (verb == "gc") {
        if (max_bytes < 0 && max_age < 0)
            usageError("cache gc needs --max-bytes and/or --max-age "
                       "(otherwise there is nothing to collect)");
        CacheGcReport report = gcPlanCache({dir, max_bytes, max_age});
        report.writeJson(w);
        std::cout << w.str() << "\n";
        std::cerr << "cmswitchc: cache gc deleted " << report.deletedFiles
                  << " of " << report.scannedFiles << " artifact(s) ("
                  << report.deletedBytes << " of " << report.scannedBytes
                  << " bytes) in " << dir << "\n";
        return 0;
    }
    if (verb == "stats") {
        statsPlanCache(dir).writeJson(w);
        std::cout << w.str() << "\n";
        return 0;
    }
    CacheVerifyReport report = verifyPlanCache({dir, remove_damaged});
    report.writeJson(w);
    std::cout << w.str() << "\n";
    std::cerr << "cmswitchc: cache verify found " << report.damagedFiles
              << " damaged of " << report.scannedFiles << " artifact(s) in "
              << dir << "\n";
    return report.clean() ? 0 : 1;
}

/** `cmswitchc fingerprint`: the plan-fingerprint digest that keys
 *  --cache-dir compatibility, plus the algorithm-revision table it
 *  hashes, as JSON on stdout — so scripts can tell whether two builds
 *  share plan caches without compiling anything. */
int
fingerprintMain(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help") {
            std::cout << kUsage;
            return 0;
        }
        usageError("unknown fingerprint flag '" + flag + "'");
    }
    std::string plan_format(kPlanFormatTag);
    if (!plan_format.empty() && plan_format.back() == '\n')
        plan_format.pop_back();
    JsonWriter w;
    w.beginObject()
        .field("schema", "cmswitch-fingerprint-v1")
        .field("version", CMSWITCH_VERSION)
        .field("fingerprint", buildFingerprintHex())
        .field("plan_format", plan_format);
    w.key("algorithm_revisions").beginArray();
    for (const AlgorithmRevision &rev : algorithmRevisions()) {
        w.beginObject()
            .field("pass", rev.pass)
            .field("revision", rev.revision)
            .endObject();
    }
    w.endArray().endObject();
    std::cout << w.str() << "\n";
    return 0;
}

/** `cmswitchc sim`: compile a scenario's plan table and replay its
 *  traffic through the discrete-event serving simulator. Scenario
 *  errors exit 1 with a message (they are semantic, not usage); the
 *  report goes to --out or stdout, a one-line summary to stderr. */
int
simMain(int argc, char **argv)
{
    std::string scenario_file;
    std::string out_file;
    s64 threads = 1;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--scenario")
            scenario_file = next();
        else if (flag == "--out")
            out_file = next();
        else if (flag == "--threads")
            threads = parseIntToken(flag, next(), 1, "");
        else if (flag == "--help") {
            std::cout << kUsage;
            return 0;
        } else {
            usageError("unknown sim flag '" + flag + "'");
        }
    }
    if (scenario_file.empty())
        usageError("sim mode requires --scenario");

    SimScenario scenario;
    std::string error;
    if (!parseSimScenario(readFile(scenario_file), &scenario, &error)) {
        std::cerr << "cmswitchc: sim: bad scenario '" << scenario_file
                  << "': " << error << "\n";
        return 1;
    }
    ServingSimOptions options;
    options.compileThreads = threads;
    SimResult result;
    if (!runServingSimulation(scenario, options, &result, &error)) {
        std::cerr << "cmswitchc: sim: " << error << "\n";
        return 1;
    }
    std::string report = renderSimReport(scenario, result);
    if (out_file.empty())
        std::cout << report << "\n";
    else
        writeTextFile(out_file, report + "\n");
    std::cerr << "cmswitchc: sim '" << scenario.name << "': "
              << result.arrived << " arrived, " << result.completed
              << " completed, "
              << result.shedAdmission + result.shedDeadline
              << " shed; throughput "
              << result.throughputPerSecond() << " req/s, p99 total "
              << result.totalSeconds.quantile(0.99) << " s\n";
    return 0;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "batch")
        return batchMain(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "serve")
        return serveMain(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "sim")
        return simMain(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "cache")
        return cacheMain(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "fingerprint")
        return fingerprintMain(argc, argv);
    return singleMain(argc, argv);
}

} // namespace cmswitch

int
main(int argc, char **argv)
{
    return cmswitch::cliMain(argc, argv);
}
