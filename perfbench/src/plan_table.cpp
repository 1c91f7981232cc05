/**
 * @file
 * plan_table: an inference server building its plan table.
 *
 * A closed loop of min(nproc, 4) client threads calls
 * CompileService::compileNow over a fresh cacheDir. Each thread takes
 * the next (model, batch) family of fig14's set (6 models x batch
 * {1, 4} on dynaplasia, transformers trimmed to 2 layers) and walks it:
 * generative families compile the prefill plan, then 8 decode KV
 * buckets in ascending order — fig14's two buckets first, then a
 * seeded longer walk. Each family's first graph of each kind is cold,
 * every later bucket is a neighbor recompile, and every plan is stored
 * to disk. One pass over all families is one plan-table build; passes
 * repeat, each over a new cacheDir, until the time is up.
 *
 * The fig14 end-to-end number falls out of the same plans: prefill plus
 * the two fig14 decode buckets weighted by the tokens they cover, over
 * CIM-MLC's cycles for the same graphs.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "arch/chip_config.hpp"
#include "baselines/baseline.hpp"
#include "common.hpp"
#include "eval/evaluation.hpp"
#include "models/model_zoo.hpp"
#include "obs/obs.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"

namespace perfbench {

using namespace cmswitch;

namespace {

constexpr s64 kSeq = 64;          ///< fig14's prompt and output length
constexpr s64 kFig14Buckets = 2;  ///< fig14's trimmed decode buckets
constexpr s64 kWalkBuckets = 8;   ///< decode buckets per generative family
constexpr s64 kSetupRepeats = 25;
constexpr s64 kByteCheckSamples = 3;

struct Step
{
    CompileRequest request;
    /** Weight of this plan in fig14's end-to-end cycle sum: 1 for a
     *  prefill/single pass, the tokens covered for a fig14 decode
     *  bucket, 0 for the longer walk. */
    s64 fig14Weight = 0;
};

struct Family
{
    ZooEntry entry;
    s64 batch = 1;
    std::vector<Step> steps;
};

struct StepRun
{
    double seconds = 0.0;
    CacheOutcome outcome = CacheOutcome::kCold;
    bool ok = false;  ///< compiled, and the plan is validator-clean
    Cycles cycles = 0;
    /** Kept for the latest pass and the latest traced pass only, so
     *  the harness's own footprint does not grow with the pass count. */
    ArtifactPtr artifact;
};

struct PassRun
{
    double wallSeconds = 0.0;
    std::vector<std::vector<StepRun>> families;
    bool traced = false;
    std::map<std::string, double> layers; ///< registry reads (traced)
};

TransformerConfig
trimmedConfig(const std::string &name)
{
    TransformerConfig cfg = transformerConfigByName(name);
    cfg.layers = std::min<s64>(cfg.layers, 2);
    return cfg;
}

/** Build every family's request graphs; @p buildSeconds receives the
 *  time spent in the models layer. */
std::vector<Family>
buildFamilies(const ChipConfig &chip, u64 seed, double *buildSeconds,
              s64 *graphs)
{
    Rng rng(seed ^ 0x706c616e5f746162ull);
    std::vector<Family> families;
    *buildSeconds = 0.0;
    *graphs = 0;
    auto add = [&](Family &family, auto build, s64 weight) {
        double t0 = nowSeconds();
        Graph graph = build();
        *buildSeconds += nowSeconds() - t0;
        ++*graphs;
        Step step;
        step.request.chip = chip;
        step.request.workload = std::move(graph);
        step.fig14Weight = weight;
        family.steps.push_back(std::move(step));
    };
    for (s64 batch : {s64{1}, s64{4}}) {
        for (const ZooEntry &entry : fig14Benchmarks()) {
            Family family;
            family.entry = entry;
            family.batch = batch;
            if (entry.generative) {
                TransformerConfig cfg = trimmedConfig(entry.name);
                add(family,
                    [&] { return buildTransformerPrefill(cfg, batch, kSeq); },
                    1);
                s64 kv = 0;
                for (s64 b = 0; b < kWalkBuckets; ++b) {
                    s64 weight = 0;
                    if (b < kFig14Buckets) {
                        // evaluateGenerative's bucket placement.
                        s64 lo = b * kSeq / kFig14Buckets;
                        s64 hi = (b + 1) * kSeq / kFig14Buckets;
                        kv = kSeq + (lo + hi) / 2 + 1;
                        weight = hi - lo;
                    } else {
                        kv += 32 + rng.below(16);
                    }
                    add(family,
                        [&] {
                            return buildTransformerDecodeStep(cfg, batch,
                                                              kv);
                        },
                        weight);
                }
            } else if (entry.name == "bert-large") {
                TransformerConfig cfg = trimmedConfig(entry.name);
                add(family,
                    [&] { return buildTransformerPrefill(cfg, batch, kSeq); },
                    1);
            } else {
                add(family,
                    [&] { return buildModelByName(entry.name, batch, kSeq); },
                    1);
            }
            families.push_back(std::move(family));
        }
    }
    return families;
}

/** fig14's runEntry: the end-to-end evaluation of one benchmark entry
 *  with @p compiler. */
EndToEndResult
fig14Entry(const Compiler &compiler, const ZooEntry &entry, s64 batch)
{
    if (entry.generative) {
        return evaluateGenerative(compiler, trimmedConfig(entry.name),
                                  batch, kSeq, kSeq, kFig14Buckets);
    }
    if (entry.name == "bert-large") {
        return evaluateGraph(compiler,
                             buildTransformerPrefill(
                                 trimmedConfig(entry.name), batch, kSeq));
    }
    return evaluateGraph(compiler, buildModelByName(entry.name, batch, kSeq));
}

/** fig14's geomean of baseline / ours, accumulated in fig14's order. */
double
fig14Geomean(const std::vector<double> &baseline,
             const std::vector<double> &ours)
{
    double logSum = 0.0;
    for (std::size_t i = 0; i < ours.size(); ++i)
        logSum += std::log(baseline[i] / ours[i]);
    return std::exp(logSum / static_cast<double>(ours.size()));
}

/** fig14 end-to-end cycles of @p family from one pass's plans. */
double
familyCycles(const Family &family, const std::vector<StepRun> &runs)
{
    Cycles total = 0;
    for (std::size_t s = 0; s < family.steps.size(); ++s) {
        total += runs[s].cycles * family.steps[s].fig14Weight;
    }
    return static_cast<double>(total);
}

/** The span name of a compileNow call that ended in @p outcome. */
const char *
lookupSpanName(CacheOutcome outcome)
{
    switch (outcome) {
    case CacheOutcome::kMemory: return "service.lookup_memory";
    case CacheOutcome::kDisk: return "service.lookup_disk";
    case CacheOutcome::kNeighbor: return "service.lookup_neighbor";
    case CacheOutcome::kCold: break;
    }
    return "service.lookup_cold";
}

/** One plan-table build. A traced pass installs @p registry and
 *  records a span per compileNow call into @p spans. */
PassRun
runPass(const std::vector<Family> &families, const std::string &dir,
        s64 threads, obs::MetricsRegistry *registry, SpanLog *spans)
{
    PassRun pass;
    pass.traced = registry != nullptr;
    pass.families.resize(families.size());
    removeTree(dir);
    CompileServiceOptions options;
    options.threads = 1;
    options.searchThreads = 1;
    options.cacheDir = dir;
    auto service = std::make_unique<CompileService>(options);
    if (registry != nullptr) {
        registry->reset();
        obs::install(registry, nullptr);
    }

    // One wave per batch size: the warm-state store treats a model's
    // batch sizes as one structural family, so walking them at the same
    // time would make neighbor choice (and the outcome split) depend on
    // thread timing. Between waves the store's contents are fixed.
    std::atomic<std::size_t> next{0};
    std::size_t waveEnd = 0;
    auto client = [&] {
        for (std::size_t f = next++; f < waveEnd; f = next++) {
            std::vector<StepRun> &runs = pass.families[f];
            for (const Step &step : families[f].steps) {
                StepRun run;
                double t0 = nowSeconds();
                try {
                    run.artifact =
                        service->compileNow(step.request, &run.outcome);
                } catch (const std::exception &) {
                    run.artifact = nullptr;
                }
                double t1 = nowSeconds();
                run.seconds = t1 - t0;
                if (spans != nullptr)
                    spans->record(lookupSpanName(run.outcome), "service", t0,
                                  t1,
                                  static_cast<s64>(f * 16 + runs.size()));
                if (run.artifact) {
                    run.ok = run.artifact->validation.ok();
                    run.cycles = run.artifact->result.totalCycles();
                }
                runs.push_back(std::move(run));
            }
        }
    };
    double t0 = nowSeconds();
    while (waveEnd < families.size()) {
        next = waveEnd;
        s64 batch = families[waveEnd].batch;
        while (waveEnd < families.size() && families[waveEnd].batch == batch)
            ++waveEnd;
        std::vector<std::thread> pool;
        for (s64 t = 0; t < threads; ++t)
            pool.emplace_back(client);
        for (std::thread &t : pool)
            t.join();
    }
    pass.wallSeconds = nowSeconds() - t0;
    if (spans != nullptr)
        spans->record("plan_table.pass", "bench", t0, t0 + pass.wallSeconds);

    if (registry != nullptr) {
        obs::uninstall();
        using obs::Hist;
        using obs::Met;
        auto c = [&](Met m) { return counterValue(*registry, m); };
        auto h = [&](Hist x) { return histogramSum(*registry, x); };
        pass.layers = {
            {"partition", h(Hist::kPhasePartition)},
            {"segment", h(Hist::kPhaseSegment)},
            {"allocate", h(Hist::kPhaseAllocate)},
            {"codegen", h(Hist::kPhaseCodegen)},
            {"validate", h(Hist::kPhaseValidate)},
            {"energy", h(Hist::kPhaseEnergy)},
            {"dp_boundaries", c(Met::kDpBoundaries)},
            {"dp_sig_hits", c(Met::kDpSigCacheHits)},
            {"dp_sig_misses", c(Met::kDpSigCacheMisses)},
            {"alloc_probes", c(Met::kAllocProbes)},
            {"alloc_probe_shortcuts", c(Met::kAllocProbeShortcuts)},
            {"alloc_bisection_iters", c(Met::kAllocBisectionIters)},
            {"mip_solves", c(Met::kMipSolves)},
            {"mip_nodes", c(Met::kMipNodes)},
            {"lp_solves", c(Met::kLpSolves)},
            {"lp_warm_hits", c(Met::kLpWarmHits)},
            {"lp_warm_misses", c(Met::kLpWarmMisses)},
            {"dp_rows_reused", c(Met::kIncrementalDpRowsReused)},
        };
    }
    service.reset();
    removeTree(dir);
    return pass;
}

/** Outcome per plan and plan cycles: what every pass must reproduce. */
std::string
passSignature(const PassRun &pass)
{
    std::string sig;
    for (const auto &runs : pass.families) {
        for (const StepRun &run : runs) {
            sig += cacheOutcomeName(run.outcome);
            sig += ':';
            sig += run.ok ? std::to_string(run.cycles) : "error";
            sig += ';';
        }
    }
    return sig;
}

} // namespace

void
runPlanTable(const Args &args, Result *out)
{
    const ChipConfig chip = ChipConfig::dynaplasia();
    const s64 threads = std::clamp<s64>(
        static_cast<s64>(std::thread::hardware_concurrency()), 1, 4);
    const std::string root = args.workDir + "/plan_table";

    // ---- Set-up, repeated: build every request graph and open a fresh
    // plan-cache directory (what a server does before it compiles).
    std::vector<Family> families;
    std::vector<double> setupSamples;
    double buildSeconds = 0.0;
    s64 graphs = 0;
    for (s64 r = 0; r < kSetupRepeats; ++r) {
        double t0 = nowSeconds();
        families = buildFamilies(chip, args.seed, &buildSeconds, &graphs);
        std::string dir = root + "/setup";
        CompileServiceOptions options;
        options.cacheDir = dir;
        { CompileService probe(options); }
        setupSamples.push_back(nowSeconds() - t0);
        removeTree(dir);
    }

    // ---- CIM-MLC yardstick (untimed): fig14's own evaluation path.
    std::unique_ptr<Compiler> cimMlc = makeCimMlcCompiler(chip);
    std::vector<double> baselineCycles;
    for (const Family &family : families) {
        baselineCycles.push_back(static_cast<double>(
            fig14Entry(*cimMlc, family.entry, family.batch).totalCycles()));
    }

    // ---- Timed passes. A traced run alternates untraced and traced
    // passes so the registry's overhead is measured in the same run.
    obs::MetricsRegistry registry;
    std::vector<PassRun> passes;
    double start = nowSeconds();
    const std::size_t minPasses = args.trace ? 2 : 1;
    while (passes.size() < minPasses || nowSeconds() - start < args.seconds) {
        bool traced = args.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(families,
                                 root + "/pass" + std::to_string(passes.size()),
                                 threads, traced ? &registry : nullptr,
                                 traced ? args.spans : nullptr));
        // Keep the artifacts of the latest pass and of the latest traced
        // pass (the disk-store probe reads those) only.
        std::size_t lastTraced = passes.size();
        for (std::size_t p = 0; p < passes.size(); ++p)
            lastTraced = passes[p].traced ? p : lastTraced;
        for (std::size_t p = 0; p + 1 < passes.size(); ++p) {
            if (p == lastTraced)
                continue;
            for (auto &runs : passes[p].families)
                for (StepRun &run : runs)
                    run.artifact.reset();
        }
    }

    // ---- Output checks: one operation per request, failing when the
    // compile threw or the plan is not validator-clean.
    std::vector<double> latencies;
    double wall = 0.0;
    for (const PassRun &pass : passes) {
        wall += pass.wallSeconds;
        for (const auto &runs : pass.families) {
            for (const StepRun &run : runs) {
                ++out->attempted;
                if (!run.ok) {
                    ++out->failed;
                    out->correct = false;
                    if (out->checkFailures.size() < 8)
                        out->checkFailures.push_back(
                            "compile threw or plan failed validation");
                }
                latencies.push_back(run.seconds);
            }
        }
    }
    // Every pass is the same input: its outcomes and plans must be too.
    std::string signature = passSignature(passes.front());
    for (std::size_t p = 1; p < passes.size(); ++p) {
        out->check(passSignature(passes[p]) == signature,
                   "pass " + std::to_string(p)
                       + " outcomes/cycles differ from pass 0");
    }
    // Neighbor recompiles must equal a cold compile byte for byte.
    const PassRun &last = passes.back();
    std::vector<std::pair<std::size_t, std::size_t>> warm;
    for (std::size_t f = 0; f < last.families.size(); ++f) {
        for (std::size_t s = 0; s < last.families[f].size(); ++s) {
            if (last.families[f][s].outcome == CacheOutcome::kNeighbor
                && last.families[f][s].artifact)
                warm.emplace_back(f, s);
        }
    }
    Rng pick(args.seed ^ 0x6279746573ull);
    for (s64 i = 0; i < kByteCheckSamples && !warm.empty(); ++i) {
        std::size_t at = static_cast<std::size_t>(
            pick.below(static_cast<s64>(warm.size())));
        auto [f, s] = warm[at];
        warm.erase(warm.begin() + static_cast<std::ptrdiff_t>(at));
        ArtifactPtr cold = compileArtifact(families[f].steps[s].request);
        out->check(planBytes(cold->result)
                       == planBytes(last.families[f][s].artifact->result),
                   "neighbor plan differs from cold compile ("
                       + families[f].entry.name + ")");
    }
    // The plan-quality number must be fig14_end_to_end's.
    std::vector<double> ours;
    for (std::size_t f = 0; f < families.size(); ++f)
        ours.push_back(familyCycles(families[f], last.families[f]));
    double speedup = fig14Geomean(baselineCycles, ours);
    std::unique_ptr<Compiler> cmswitch = makeCmSwitchCompiler(chip);
    std::vector<double> fig14Ours;
    for (const Family &family : families) {
        fig14Ours.push_back(static_cast<double>(
            fig14Entry(*cmswitch, family.entry, family.batch).totalCycles()));
    }
    double fig14 = fig14Geomean(baselineCycles, fig14Ours);
    out->check(speedup == fig14, "speedup_vs_cimmlc differs from fig14's "
                                 "geomean");
    out->info["fig14_geomean"] = fig14;

    // ---- Exact quantities (the cross-run self-check compares them).
    std::array<s64, 4> outcomes{};
    for (const auto &runs : passes.front().families)
        for (const StepRun &run : runs)
            ++outcomes[static_cast<std::size_t>(run.outcome)];
    const char *outcomeNames[] = {"memory", "disk", "neighbor", "cold"};
    for (std::size_t o = 0; o < outcomes.size(); ++o)
        out->exact[std::string("outcome_") + outcomeNames[o]] =
            static_cast<double>(outcomes[o]);
    out->exact["speedup_vs_cimmlc"] = speedup;
    out->exact["plan_cycles_geomean"] = geomean(ours);
    double cycleSum = 0.0;
    for (const auto &runs : passes.front().families)
        for (const StepRun &run : runs)
            cycleSum += static_cast<double>(run.cycles);
    out->exact["plan_cycles_sum"] = cycleSum;
    out->info["passes"] = static_cast<double>(passes.size());
    out->info["requests_per_pass"] = static_cast<double>(graphs);
    out->info["client_threads"] = static_cast<double>(threads);

    if (!args.trace) {
        double throughput = static_cast<double>(latencies.size()) / wall;
        Tail tail = tailLatency(latencies);
        out->metric("setup_s", median(setupSamples), "s");
        out->metric("latency_p50_s", quantile(latencies, 0.5), "s");
        out->metric("latency_tail_s", tail.value, "s");
        out->info["latency_tail_percentile"] = tail.percentile;
        out->metric("throughput_rps", throughput, "1/s");
        out->metric("max_rate_rps", throughput, "1/s");
        out->metric("sim_events_per_s", throughput, "1/s");
        out->metric("speedup_vs_cimmlc", speedup, "x");
        out->metric("plan_cycles_geomean", geomean(ours), "cycles");
        out->metric("peak_rss_mb", selfPeakRssMb(), "MiB");
        return;
    }

    // ---- Traced run: per-layer self times per request, counters per
    // pass, all from the traced passes.
    std::vector<const PassRun *> traced;
    double tracedWall = 0.0, plainWall = 0.0;
    s64 plainPasses = 0;
    for (const PassRun &pass : passes) {
        if (pass.traced) {
            traced.push_back(&pass);
            tracedWall += pass.wallSeconds;
        } else {
            plainWall += pass.wallSeconds;
            ++plainPasses;
        }
    }
    std::map<std::string, double> sums;
    double latencySum = 0.0;
    s64 requests = 0;
    std::array<std::vector<double>, 4> byOutcome;
    for (const PassRun *pass : traced) {
        for (const auto &[name, value] : pass->layers)
            sums[name] += value;
        for (const auto &runs : pass->families) {
            for (const StepRun &run : runs) {
                latencySum += run.seconds;
                ++requests;
                byOutcome[static_cast<std::size_t>(run.outcome)].push_back(
                    run.seconds);
            }
        }
        // The counters are exact: every traced pass must agree.
        for (const char *counter :
             {"dp_boundaries", "alloc_probes", "mip_solves", "lp_solves",
              "dp_rows_reused"}) {
            out->check(pass->layers.at(counter)
                           == traced.front()->layers.at(counter),
                       std::string("traced pass counter ") + counter
                           + " differs between passes");
        }
    }
    double n = static_cast<double>(requests);
    double perPass = 1.0 / static_cast<double>(traced.size());
    auto ratio = [](double a, double b) { return a + b > 0 ? a / (a + b) : 0.0; };

    // Disk stores happen inside compileNow; time the public store()
    // from outside on the last traced pass's fresh plans.
    std::vector<double> storeSamples;
    const std::string probeDir = root + "/store_probe";
    {
        DiskPlanCache probe(probeDir);
        for (const auto &runs : traced.back()->families) {
            for (const StepRun &run : runs) {
                if (!run.ok || run.outcome == CacheOutcome::kMemory
                    || run.outcome == CacheOutcome::kDisk)
                    continue;
                double t0 = nowSeconds();
                probe.store(run.artifact->key, run.artifact);
                double t1 = nowSeconds();
                storeSamples.push_back(t1 - t0);
                args.spans->record("service.disk_store", "service", t0, t1);
            }
        }
    }
    removeTree(probeDir);
    double storeMean = mean(storeSamples);
    double storesPerPass = static_cast<double>(storeSamples.size());

    double segmentSelf = sums["segment"] - sums["allocate"];
    double attributed = sums["partition"] + segmentSelf + sums["allocate"]
                      + sums["codegen"] + sums["validate"] + sums["energy"]
                      + storeMean * storesPerPass
                            * static_cast<double>(traced.size());
    const auto &first = traced.front()->layers;
    out->metric("compiler.partition_s", sums["partition"] / n, "s");
    out->metric("compiler.segment_s", segmentSelf / n, "s");
    out->metric("compiler.allocate_s", sums["allocate"] / n, "s");
    out->metric("compiler.codegen_s", sums["codegen"] / n, "s");
    out->metric("compiler.dp_boundaries", first.at("dp_boundaries"), "count");
    out->metric("compiler.dp_sig_cache_hit_ratio",
                ratio(first.at("dp_sig_hits"), first.at("dp_sig_misses")),
                "ratio");
    out->metric("compiler.alloc_probes", first.at("alloc_probes"), "count");
    out->metric("compiler.alloc_probe_shortcut_ratio",
                first.at("alloc_probes") > 0
                    ? first.at("alloc_probe_shortcuts")
                          / first.at("alloc_probes")
                    : 0.0,
                "ratio");
    out->metric("compiler.alloc_bisection_iters",
                first.at("alloc_bisection_iters"), "count");
    out->metric("solver.mip_solves", first.at("mip_solves"), "count");
    out->metric("solver.mip_nodes", first.at("mip_nodes"), "count");
    out->metric("solver.lp_solves", first.at("lp_solves"), "count");
    out->metric("solver.lp_warm_hit_ratio",
                ratio(first.at("lp_warm_hits"), first.at("lp_warm_misses")),
                "ratio");
    out->metric("metaop.validate_s", sums["validate"] / n, "s");
    out->metric("sim.energy_s", sums["energy"] / n, "s");
    out->metric("service.disk_store_s", storeMean, "s");
    out->metric("service.lookup_cold_s",
                mean(byOutcome[static_cast<std::size_t>(CacheOutcome::kCold)]),
                "s");
    out->metric("service.lookup_neighbor_s",
                mean(byOutcome[static_cast<std::size_t>(
                    CacheOutcome::kNeighbor)]),
                "s");
    out->metric("service.neighbor_dp_rows_reused", first.at("dp_rows_reused"),
                "count");
    for (std::size_t o = 0; o < outcomes.size(); ++o)
        out->metric(std::string("service.outcome_") + outcomeNames[o],
                    static_cast<double>(byOutcome[o].size()) * perPass,
                    "count");
    out->metric("models.build_s", buildSeconds / static_cast<double>(graphs),
                "s");
    out->metric("trace.unattributed_s", (latencySum - attributed) / n, "s");
    out->metric("trace.overhead_frac",
                plainPasses > 0
                    ? (tracedWall / static_cast<double>(traced.size()))
                              / (plainWall / static_cast<double>(plainPasses))
                          - 1.0
                    : 0.0,
                "ratio");
    for (const char *counter :
         {"dp_boundaries", "dp_sig_hits", "dp_sig_misses", "alloc_probes",
          "alloc_probe_shortcuts", "alloc_bisection_iters", "mip_solves",
          "mip_nodes", "lp_solves", "lp_warm_hits", "lp_warm_misses",
          "dp_rows_reused"})
        out->exact[std::string("counter_") + counter] = first.at(counter);
}

} // namespace perfbench
