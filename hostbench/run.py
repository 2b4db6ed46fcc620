#!/usr/bin/env python3
"""Host-time campaign benchmark for the EOF fuzzer.

Run from the root of a checkout:

    python3 hostbench/run.py --workload crash_reflash --seed 1 --seconds 30 --trace 0

It builds hostbench (an optimised tree of its own under .bench_build/), runs the
workload's campaigns, checks their results, and prints the metrics BENCHMARK.json
names as the last line of stdout. --trace 0 gives the end-to-end metrics of
untraced public-entry campaigns; --trace 1 gives the per-layer table of traced
campaigns. With --workload all it runs every workload in turn and prints one
result line per workload.

A run fuzzes a fixed set of campaign seeds derived from --seed (seed * 1000 + i),
one fresh process per campaign, so peak RSS is per campaign and every campaign
starts cold as `eof fuzz` does. Host time depends strongly on how many crashes a
campaign's seed finds, so a run averages over many campaign seeds. Exit code: 0
when every correctness check holds, 1 when one fails, 2 when the benchmark cannot
run at all (for example without the eof sources next to it).
"""

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "hostbench-out")
BINARY = os.path.join(BUILD_DIR, "hostbench")

# Per workload: campaigns run side by side (a farm campaign already keeps three
# threads busy), and campaign seeds per second of --seconds for untraced and
# traced runs. A traced run times each campaign twice (untraced and traced).
WORKLOADS = {
    "crash_reflash": {"boards": 1, "parallel": 3, "rate": 2.8, "trace_rate": 1.7},
    "crash_snapshot": {"boards": 1, "parallel": 3, "rate": 5.0, "trace_rate": 2.6},
    "farm_clean": {"boards": 3, "parallel": 1, "rate": 0.45, "trace_rate": 0.23},
}
SETUP_SAMPLES = 24
CHILD_TIMEOUT_S = 120


def fail_setup(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail_setup("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once and builds the hostbench target; returns the build facts."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("the eof sources (src/) are not next to hostbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "hostbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "hostbench", "-j3"])
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail_setup("build step %s failed: %s" % (step[:2], error))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail_setup("build failed; full log in " + log_path)
    return build_info()


def build_info():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    flags = " ".join(x for x in [cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
                                 "-Wall -Wextra -Werror=return-type",
                                 "-fmacro-prefix-map=<checkout>/="] if x)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"build_type": build_type, "compiler": version, "flags": flags,
            "commit": commit or "unknown (not a git checkout)"}


def run_child(args):
    """Runs one hostbench process to completion; returns its JSON line."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out: " + " ".join(args)}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": "no result from %s: %s" % (args, proc.stderr[-500:])}
    if proc.returncode != 0:
        record["ok"] = False
    return record


def campaign_seeds(seed, count):
    return [(seed * 1000 + i) % (1 << 64) for i in range(count)]


def run_pool(workload, tasks):
    with concurrent.futures.ThreadPoolExecutor(WORKLOADS[workload]["parallel"]) as pool:
        return list(pool.map(lambda task: task(), tasks))


def measure_untraced(workload, seeds):
    """Per campaign seed: a public-entry campaign process, after a set-up process
    for the first SETUP_SAMPLES seeds."""
    def task(index, seed):
        return lambda: (run_child(["setup", workload, str(seed)]) if index < SETUP_SAMPLES
                        else None,
                        run_child(["campaign", workload, str(seed)]))
    return run_pool(workload, [task(i, s) for i, s in enumerate(seeds)])


def measure_traced(workload, seeds, trace_path):
    """Per campaign seed: an untraced campaign process and a traced one."""
    def task(index, seed):
        out = trace_path if index == 0 else "-"
        return lambda: (run_child(["campaign", workload, str(seed)]),
                        run_child(["trace", workload, str(seed), out]))
    return run_pool(workload, [task(i, s) for i, s in enumerate(seeds)])


def fingerprint(records):
    digest = hashlib.sha256(",".join(r.get("fingerprint", "?") for r in records).encode())
    return digest.hexdigest()[:16]


def check(record, label, problems):
    if not record.get("ok"):
        problems.append("%s: %s" % (label, record.get("error", "failed")))
        return False
    problems.extend("%s: %s" % (label, v) for v in record.get("gate", []))
    return True


def lost_iterations(lost, finished):
    """Iterations of campaigns that failed outright: all planned, all failed. A
    process that died without a word planned what a finished campaign ran."""
    default = finished[0]["execs"] if finished else 1
    return sum(record.get("planned", default) for record in lost)


def untraced_result(seeds, pairs, problems):
    setups, campaigns, lost = [], [], []
    for seed, (setup, campaign) in zip(seeds, pairs):
        if setup is not None and check(setup, "setup seed %d" % seed, problems):
            setups.append(setup["setup_s"])
        if check(campaign, "campaign seed %d" % seed, problems):
            campaigns.append(campaign)
        else:
            lost.append(campaign)
    # Encode skips never reach the public entry's result; the traced run counts
    # them (agent.encode_skipped).
    attempted = sum(c["execs"] for c in campaigns) + lost_iterations(lost, campaigns)
    failed = sum(c["rejected"] for c in campaigns) + lost_iterations(lost, campaigns)
    if not campaigns or not setups:
        return attempted, failed, {}, campaigns
    # Per-campaign medians: a few crash-heavy seeds would dominate a ratio of sums.
    metrics = {
        "host_execs_per_s": statistics.median(c["execs"] / c["wall_s"] for c in campaigns),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mib"] for c in campaigns),
        "vexecs_per_vhour": statistics.median(c["execs"] / (c["elapsed_us"] / 3.6e9)
                                              for c in campaigns),
        "coverage": statistics.mean(c["coverage"] for c in campaigns),
    }
    return attempted, failed, metrics, campaigns


def traced_result(workload, seeds, pairs, problems):
    exact = WORKLOADS[workload]["boards"] == 1
    layers = {}
    traces, lost = [], []
    for seed, (campaign, trace) in zip(seeds, pairs):
        campaign_ok = check(campaign, "campaign seed %d" % seed, problems)
        if not check(trace, "traced seed %d" % seed, problems):
            lost.append(trace)
            continue
        traces.append(trace)
        if campaign_ok and exact and trace["fingerprint"] != campaign["fingerprint"]:
            problems.append("seed %d: traced result %s differs from the public entry %s"
                            % (seed, trace["fingerprint"], campaign["fingerprint"]))
        for name, value in trace["layers"].items():
            layers.setdefault(name, []).append(value)
        if campaign_ok:
            layers.setdefault("trace.overhead_ratio", []).append(
                trace["wall_s"] / campaign["wall_s"])
    attempted = sum(t["attempted"] for t in traces) + lost_iterations(lost, traces)
    failed = sum(t["failed"] for t in traces) + lost_iterations(lost, traces)
    metrics = {name: statistics.median(values) for name, values in layers.items()}
    if traces:
        metrics["fuzz.bugs"] = statistics.mean(len(t["bugs"]) for t in traces)
    return attempted, failed, metrics, traces


def run_workload(workload, seed, seconds, traced, info, spec):
    config = WORKLOADS[workload]
    rate = config["trace_rate"] if traced else config["rate"]
    seeds = campaign_seeds(seed, max(1, math.ceil(seconds * rate)))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (workload, seed, int(traced)))
    problems = []
    start = time.monotonic()
    if traced:
        pairs = measure_traced(workload, seeds, stem + ".chrome.json")
        attempted, failed, metrics, records = traced_result(workload, seeds, pairs, problems)
    else:
        pairs = measure_untraced(workload, seeds)
        attempted, failed, metrics, records = untraced_result(seeds, pairs, problems)
    elapsed = time.monotonic() - start

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not problems:
        problems.append("metrics missing: " + ", ".join(missing))
    result_fingerprint = fingerprint(records)

    print("workload %s seed %d: %d campaigns (seeds %d..%d), %.1f s, %s" % (
        workload, seed, len(seeds), seeds[0], seeds[-1], elapsed,
        "traced" if traced else "untraced"))
    print("  build %s | %s | %s | commit %s" % (info["build_type"], info["compiler"],
                                                info["flags"], info["commit"]))
    print("  result_fingerprint %s%s" % (result_fingerprint, "" if config["boards"] == 1 else
                                         " (thread interleaving: not exact across runs)"))
    for m in wanted:
        if m["name"] in metrics:
            print("  %-32s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    if traced and "loop.explained_ratio" in metrics and metrics["loop.explained_ratio"] < 0.95:
        print("  note: layers explain under 95% of loop thread time")
    if traced:
        print("  chrome trace: " + os.path.relpath(stem + ".chrome.json", ROOT))
    for problem in problems:
        print("  FAILED " + problem)

    with open(stem + ".json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "build": info,
                   "campaign_seeds": seeds, "result_fingerprint": result_fingerprint,
                   "metrics": metrics, "problems": problems, "records": pairs}, f, indent=1)

    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail_setup("--seed must be >= 0 and --seconds > 0")

    spec = load_benchmark()
    info = build()
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), info, spec)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
