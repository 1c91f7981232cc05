#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload plan_table|serve_hot|sim_fleet \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the cmswitch
library, the `cmswitchc` daemon and the perfbench harness (Release, in
`.bench_build/perfbench`), runs the harness, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer ones. The line before it
records the context of the run (nproc, hardware_concurrency, compiler,
build type, commit, the exact quantities and the checks). Build output
and diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
CMSWITCHC = os.path.join(BUILD_DIR, "cmswitch", "src", "tools", "cmswitchc")
WORKLOADS = ("plan_table", "serve_hot", "sim_fleet")
# A run measures --seconds plus a few seconds of set-up and checks; the
# build before it is not counted (the first one in a checkout is slow).
HARNESS_TIMEOUT_SECONDS = 165.0


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once (Release), then bring both targets up to date."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        os.makedirs(BUILD_DIR, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail("refusing to run a %r build (Release only)" % build_type, 3)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(nproc()), "--target",
         "perfbench_harness", "cmswitchc"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """sha256 over the sources the measured binaries are built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.join("perfbench", "src"),
                os.path.join("perfbench", "CMakeLists.txt")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def self_check(args, digest, exact):
    """Equal seeds must give identical exact quantities across runs of
    the same sources: compare with (or record) the previous run's."""
    path = os.path.join(BUILD_DIR, "exact", "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace, digest))
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f) == exact, True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(exact, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True, False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cmswitch source tree at " + ROOT, 2)
    with open(spec_path) as f:
        spec = json.load(f)
    # name -> unit, in BENCHMARK.json order.
    expected = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work = os.path.join(BUILD_DIR, "work", "%s-%d" % (args.workload,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    command = [HARNESS, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--work-dir", work, "--cmswitchc", CMSWITCHC]
    if args.trace:
        command += ["--spans", stem + ".spans.json"]
    # Own process group, so a timeout also stops the daemon it starts.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("harness timed out")
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    result = json.loads(lines[-1])

    digest = source_digest()
    same, compared = self_check(args, digest, result["exact"])
    attempted = result["attempted"] + (1 if compared else 0)
    failed = result["failed"] + (0 if same else 1)
    correct = result["correct"] and same
    checks = list(result["check_failures"])
    if not same:
        checks.append("exact quantities differ from an earlier run with "
                      "the same seed")

    values = {name: m["value"] for name, m in result["metrics"].items()}
    if args.trace:
        values["failed_frac"] = failed / attempted
        # Layers this workload does not exercise read 0.
        values = {name: values.get(name, 0.0) for name in expected}
    missing = [name for name in expected if name not in values]
    if missing:
        fail("harness did not report " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in expected.items()}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc(),
        "hardware_concurrency": result["info"].get("hardware_concurrency"),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "commit": commit(),
        "source_digest": digest,
        "spans": stem + ".spans.json" if args.trace else None,
        "self_check_compared": compared,
        "failed_frac": failed / attempted,
        "exact": result["exact"],
        "info": result["info"],
        "check_failures": checks,
    }
    with open(stem + ".json", "w") as f:
        json.dump({"context": context, "metrics": metrics}, f, indent=1,
                  sort_keys=True)
    for message in checks:
        print("perfbench: check failed: " + message, file=sys.stderr)

    print(json.dumps({"perfbench_context": context}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
