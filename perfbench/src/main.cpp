/**
 * @file
 * perfbench_harness: runs one workload of the repository benchmark and
 * prints one JSON line (correct / attempted / failed / metrics, plus
 * the exact quantities and context run.py records beside them).
 *
 *   perfbench_harness --workload plan_table|serve_hot|sim_fleet
 *                     --seed N --seconds S --trace 0|1
 *                     --work-dir DIR [--cmswitchc PATH]
 *                     [--spans FILE]     (traced runs: Chrome trace)
 *
 * Normally started by run.py, which builds it first.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
render(const Result &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value)
             + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    auto numberMap = [&](const char *key,
                         const std::map<std::string, double> &map) {
        out += std::string(", \"") + key + "\": {";
        bool head = true;
        for (const auto &[name, value] : map) {
            out += head ? "" : ", ";
            head = false;
            out += jsonString(name) + ": " + jsonNumber(value);
        }
        out += "}";
    };
    out += "}";
    numberMap("exact", r.exact);
    numberMap("info", r.info);
    out += ", \"build\": {\"compiler\": " + jsonString(PERFBENCH_COMPILER)
         + ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) + "}";
    out += ", \"check_failures\": [";
    for (std::size_t i = 0; i < r.checkFailures.size(); ++i)
        out += (i ? ", " : "") + jsonString(r.checkFailures[i]);
    out += "]}";
    return out;
}

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench_harness: " << message
              << "\nusage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--cmswitchc PATH] [--spans FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--work-dir")
            args.workDir = value;
        else if (flag == "--cmswitchc")
            args.cmswitchc = value;
        else if (flag == "--spans")
            args.spansPath = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.workload.empty() || args.workDir.empty())
        usage("--workload and --work-dir are required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args = parseArgs(argc, argv);
    SpanLog spans;
    if (args.trace)
        args.spans = &spans;

    // Timings of an unoptimised build would gate nothing real.
#ifndef NDEBUG
    std::cerr << "perfbench_harness: refusing to run an assertion-enabled "
                 "build\n";
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "perfbench_harness: refusing to run a "
                  << PERFBENCH_BUILD_TYPE << " build (Release only)\n";
        return 3;
    }
    if (!makeDirs(args.workDir)) {
        std::cerr << "perfbench_harness: cannot create " << args.workDir
                  << "\n";
        return 1;
    }

    Result result;
    try {
        if (args.workload == "plan_table")
            runPlanTable(args, &result);
        else if (args.workload == "serve_hot")
            runServeHot(args, &result);
        else if (args.workload == "sim_fleet")
            runSimFleet(args, &result);
        else
            usage("unknown workload '" + args.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << args.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    if (args.spans && !args.spansPath.empty()
        && !spans.write(args.spansPath)) {
        std::cerr << "perfbench_harness: cannot write " << args.spansPath
                  << "\n";
        return 1;
    }
    result.info["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    std::cout << render(result) << std::endl;
    return 0;
}
