/**
 * @file
 * sim_fleet: runServingSimulation on a generated scenario long enough
 * to run for seconds.
 *
 * The scenario has a heterogeneous fleet (two dynaplasia and two prime
 * instances at different clocks), a bursty on/off arrival process, and
 * a prefill/decode mix whose decode workloads are KV-bucket plan
 * families. Every call compiles its plan table first (serially, so its
 * cost is stable) and then replays the traffic; the table alone —
 * the same scenario with a vanishing horizon — is the set-up, and the
 * rest of a call is the event loop.
 */

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "arch/deha.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "sim/serving/scenario.hpp"
#include "sim/serving/service_time.hpp"
#include "sim/serving/simulator.hpp"
#include "sim/timing.hpp"

namespace perfbench {

using namespace cmswitch;

namespace {

constexpr s64 kSetupRepeats = 3;
constexpr s64 kTimingRepeats = 5;

/** Simulated horizon of one replay: about 2 s of event loop on a
 *  4-core x86 host at HEAD. */
constexpr double kHorizonSeconds = 6000.0;

std::string
scenarioText(u64 seed, double horizon)
{
    std::ostringstream os;
    os << R"({"schema": "cmswitch-sim-scenario-v1", "name": "sim_fleet",)"
       << " \"seed\": " << seed << ", \"duration_seconds\": " << horizon
       << R"(, "max_queue": 32,
  "arrival": {"process": "onoff", "rate_per_second": 100.0,
              "burst_rate_per_second": 1200.0,
              "mean_burst_seconds": 0.5, "mean_idle_seconds": 1.0},
  "chips": [{"chip": "dynaplasia", "count": 2, "clock_ghz": 1.0},
            {"chip": "prime", "count": 2, "clock_ghz": 1.2}],
  "workloads": [
    {"name": "prefill_bert", "model": "bert-base", "layers": 2,
     "weight": 2.0, "priority": 1},
    {"name": "prefill_resnet", "model": "resnet18", "weight": 1.0},
    {"name": "decode_llama", "model": "llama2-7b", "layers": 2,
     "batch": 4, "kv_buckets": [128, 256, 512, 1024], "kv_min": 65,
     "weight": 4.0},
    {"name": "decode_opt", "model": "opt-6.7b", "layers": 2, "batch": 4,
     "kv_buckets": [128, 256, 512], "kv_min": 65, "weight": 3.0,
     "deadline_ms": 250}]})";
    return os.str();
}

SimScenario
makeScenario(u64 seed, double horizon)
{
    SimScenario scenario;
    std::string error;
    if (!parseSimScenario(scenarioText(seed, horizon), &scenario, &error))
        throw std::runtime_error("sim_fleet scenario: " + error);
    return scenario;
}

SimResult
simulate(const SimScenario &scenario)
{
    SimResult result;
    std::string error;
    if (!runServingSimulation(scenario, ServingSimOptions{}, &result,
                              &error))
        throw std::runtime_error("sim_fleet: " + error);
    return result;
}

/** The wire request that produced @p plan (for the yardstick). */
ServeRequest
planRequest(const SimScenario &scenario, const SimPlan &plan)
{
    for (const SimWorkloadSpec &spec : scenario.workloads) {
        if (spec.name != plan.workload)
            continue;
        ServeRequest wire;
        wire.model = spec.model;
        wire.chip = plan.chip;
        wire.compiler = spec.compiler;
        wire.batch = spec.batch;
        wire.seq = spec.seq;
        wire.decodeKv = plan.kvBucket;
        wire.layers = spec.layers;
        wire.optimize = spec.optimize;
        return wire;
    }
    throw std::runtime_error("sim_fleet: unknown plan workload");
}

struct Replay
{
    double seconds = 0.0;
    bool traced = false;
    s64 arrived = 0;
    s64 events = 0;
    s64 installs = 0;
    std::map<std::string, double> layers;
};

} // namespace

void
runSimFleet(const Args &args, Result *out)
{
    // ---- Set-up, repeated: the plan table alone.
    std::vector<double> setupSamples;
    SimResult table;
    for (s64 r = 0; r < kSetupRepeats; ++r) {
        SimScenario tableOnly = makeScenario(args.seed, 1e-9);
        double t0 = nowSeconds();
        table = simulate(tableOnly);
        setupSamples.push_back(nowSeconds() - t0);
        if (args.spans != nullptr)
            args.spans->record("sim_serving.plan_table", "sim", t0,
                               t0 + setupSamples.back());
    }
    double tableSeconds = median(setupSamples);

    // ---- Timed replays; a traced run alternates plain and traced.
    obs::MetricsRegistry registry;
    std::vector<Replay> replays;
    SimResult first;
    double start = nowSeconds();
    const std::size_t minReplays = args.trace ? 2 : 1;
    while (replays.size() < minReplays
           || nowSeconds() - start < args.seconds) {
        Replay replay;
        replay.traced = args.trace && replays.size() % 2 == 1;
        SimScenario scenario = makeScenario(
            args.seed * 1000 + replays.size(), kHorizonSeconds);
        if (replay.traced) {
            registry.reset();
            obs::install(&registry, nullptr);
        }
        double t0 = nowSeconds();
        SimResult result = simulate(scenario);
        replay.seconds = nowSeconds() - t0;
        if (args.spans != nullptr)
            args.spans->record("sim_serving.run", "sim", t0,
                               t0 + replay.seconds,
                               static_cast<s64>(replays.size()));
        if (replay.traced) {
            obs::uninstall();
            using obs::Hist;
            using obs::Met;
            replay.layers = {
                {"compile", histogramSum(registry, Hist::kPhaseCompile)},
                {"validate", histogramSum(registry, Hist::kPhaseValidate)},
                {"energy", histogramSum(registry, Hist::kPhaseEnergy)},
                {"partition", histogramSum(registry, Hist::kPhasePartition)},
                {"segment", histogramSum(registry, Hist::kPhaseSegment)},
                {"allocate", histogramSum(registry, Hist::kPhaseAllocate)},
                {"codegen", histogramSum(registry, Hist::kPhaseCodegen)},
                {"dp_boundaries", counterValue(registry, Met::kDpBoundaries)},
                {"alloc_probes", counterValue(registry, Met::kAllocProbes)},
                {"mip_solves", counterValue(registry, Met::kMipSolves)},
                {"lp_solves", counterValue(registry, Met::kLpSolves)},
            };
        }
        // Every arrival ends exactly one way.
        ++out->attempted;
        bool balanced = result.arrived
                     == result.completed + result.shedAdmission
                            + result.shedDeadline;
        if (!balanced) {
            ++out->failed;
            out->correct = false;
            out->checkFailures.push_back(
                "arrived != completed + shed_admission + shed_deadline");
        }
        replay.arrived = result.arrived;
        replay.events = result.arrived + result.completed;
        for (const SimChipUse &chip : result.chips)
            replay.installs += chip.installs;
        if (replays.empty())
            first = result;
        replays.push_back(std::move(replay));
    }

    // The table each replay compiled equals the set-up's.
    bool sameTable = first.plans.size() == table.plans.size();
    for (std::size_t i = 0; sameTable && i < table.plans.size(); ++i)
        sameTable = first.plans[i].key == table.plans[i].key
                 && first.plans[i].coldCycles == table.plans[i].coldCycles;
    out->check(sameTable, "replay plan table differs from the set-up's");

    // ---- CIM-MLC yardstick (untimed): the same plans, same pricing.
    SimScenario scenario = makeScenario(args.seed, kHorizonSeconds);
    std::vector<double> ratios, cycles;
    std::vector<ArtifactPtr> ours;
    for (const SimPlan &plan : table.plans) {
        ServeRequest wire = planRequest(scenario, plan);
        CompileRequest request;
        std::string error;
        if (!resolveServeRequest(wire, &request, &error))
            throw std::runtime_error(error);
        if (args.trace)
            ours.push_back(compileArtifact(request));
        request.compilerId = "cim-mlc";
        ArtifactPtr baseline = compileArtifact(request);
        TimingReport timing = TimingSimulator(Deha(baseline->chip))
                                  .run(baseline->result.program);
        ratios.push_back(
            static_cast<double>(planColdCycles(timing.breakdown))
            / static_cast<double>(plan.coldCycles));
        cycles.push_back(static_cast<double>(plan.coldCycles));
    }
    out->exact["speedup_vs_cimmlc"] = geomean(ratios);
    out->exact["plan_cycles_geomean"] = geomean(cycles);
    out->exact["plans"] = static_cast<double>(table.plans.size());
    out->exact["first_arrived"] = static_cast<double>(first.arrived);
    out->exact["first_completed"] = static_cast<double>(first.completed);
    out->exact["first_shed"] =
        static_cast<double>(first.shedAdmission + first.shedDeadline);
    out->exact["first_installs"] = static_cast<double>(replays[0].installs);
    out->info["replays"] = static_cast<double>(replays.size());

    std::vector<double> wall;
    double arrived = 0.0, events = 0.0, wallSum = 0.0;
    for (const Replay &replay : replays) {
        if (replay.traced)
            continue;
        wall.push_back(replay.seconds);
        wallSum += replay.seconds;
        arrived += static_cast<double>(replay.arrived);
        events += static_cast<double>(replay.events);
    }
    if (!args.trace) {
        double loopSeconds =
            wallSum - tableSeconds * static_cast<double>(wall.size());
        Tail tail = tailLatency(wall);
        out->metric("setup_s", tableSeconds, "s");
        out->metric("latency_p50_s", median(wall), "s");
        out->metric("latency_tail_s", tail.value, "s");
        out->info["latency_tail_percentile"] = tail.percentile;
        out->metric("throughput_rps", arrived / wallSum, "1/s");
        out->metric("max_rate_rps", arrived / wallSum, "1/s");
        out->metric("sim_events_per_s", events / loopSeconds, "1/s");
        out->metric("speedup_vs_cimmlc", out->exact["speedup_vs_cimmlc"],
                    "x");
        out->metric("plan_cycles_geomean", out->exact["plan_cycles_geomean"],
                    "cycles");
        out->metric("peak_rss_mb", selfPeakRssMb(), "MiB");
        return;
    }

    // ---- Traced run.
    std::vector<double> timingSamples;
    for (const ArtifactPtr &artifact : ours) {
        const Deha deha(artifact->chip); // the simulator keeps a pointer
        TimingSimulator simulator(deha);
        for (s64 r = 0; r < kTimingRepeats; ++r) {
            double t0 = nowSeconds();
            simulator.run(artifact->result.program);
            double t1 = nowSeconds();
            timingSamples.push_back(t1 - t0);
            args.spans->record("sim.timing", "sim", t0, t1);
        }
    }
    double timingPerPlan = mean(timingSamples);
    double plans = static_cast<double>(table.plans.size());
    std::map<std::string, double> sums;
    double tracedWall = 0.0, tracedEvents = 0.0, tracedInstalls = 0.0;
    double tracedCount = 0.0;
    for (const Replay &replay : replays) {
        if (!replay.traced)
            continue;
        tracedCount += 1.0;
        tracedWall += replay.seconds;
        tracedEvents += static_cast<double>(replay.events);
        tracedInstalls += static_cast<double>(replay.installs);
        for (const auto &[name, value] : replay.layers)
            sums[name] += value;
    }
    double perReplay = 1.0 / tracedCount;
    double compiles = plans * tracedCount;
    double loop = tracedWall * perReplay - tableSeconds;
    out->metric("sim_serving.plan_table_s", tableSeconds, "s");
    out->metric("sim_serving.event_loop_s", loop, "s");
    out->metric("sim_serving.events", tracedEvents * perReplay, "count");
    out->metric("sim_serving.installs", tracedInstalls * perReplay, "count");
    out->metric("sim.timing_s", timingPerPlan, "s");
    out->metric("compiler.partition_s", sums["partition"] / compiles, "s");
    out->metric("compiler.segment_s",
                (sums["segment"] - sums["allocate"]) / compiles, "s");
    out->metric("compiler.allocate_s", sums["allocate"] / compiles, "s");
    out->metric("compiler.codegen_s", sums["codegen"] / compiles, "s");
    out->metric("metaop.validate_s", sums["validate"] / compiles, "s");
    out->metric("sim.energy_s", sums["energy"] / compiles, "s");
    out->metric("compiler.dp_boundaries", sums["dp_boundaries"] * perReplay,
                "count");
    out->metric("compiler.alloc_probes", sums["alloc_probes"] * perReplay,
                "count");
    out->metric("solver.mip_solves", sums["mip_solves"] * perReplay, "count");
    out->metric("solver.lp_solves", sums["lp_solves"] * perReplay, "count");
    double attributed = loop
                      + (sums["compile"] + sums["validate"] + sums["energy"])
                            * perReplay
                      + timingPerPlan * plans;
    out->metric("trace.unattributed_s", tracedWall * perReplay - attributed,
                "s");
    out->metric("trace.overhead_frac",
                wall.empty() ? 0.0
                             : tracedWall * perReplay / mean(wall) - 1.0,
                "ratio");
    out->exact["counter_dp_boundaries"] = sums["dp_boundaries"] * perReplay;
}

} // namespace perfbench
