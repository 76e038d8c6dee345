#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout, runs one
workload in fresh processes, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Everything it builds and writes stays in
.bench_build/ there. The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics of an untraced run; with
--trace 1 the per-layer metrics of a traced run, which is compared with an
untraced run of the same seed. Lines before it report every metric with its
unit and sample count. The exit code is 1 when any output byte, virtual
finish or phase-sum check is wrong, and 2 when the benchmark cannot build or
run at all. README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(ROOT, "BENCH_pr10.json")
WORKLOADS = ("climate-grid", "open-storm", "bulk-stream")
# Every process of a run must have ended this long after the build.
TIMEOUT_S = 170
# How many fresh processes share an untraced pass. bulk-stream's median op
# keeps an offset for the life of a process (over ten seeds, the medians of
# the first and second half of a process correlated 0.57), so two processes
# average two offsets.
PROCESSES = {"open-storm": 1, "bulk-stream": 2}

# BENCHMARK.json names the metrics each mode prints and their units.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OVERHEAD = "trace.overhead."


def fail(msg):
    """Reports why the benchmark could not run and exits without a result."""
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(2)


def metric_units():
    """Returns the end-to-end and per-layer metrics of BENCHMARK.json, each
    a name -> unit map."""
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        return [{m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read %s: %s" % (SPEC, e))


def build():
    """Builds the perfbench binary with caches kept inside the checkout."""
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    tmp = BINARY + ".tmp"
    try:
        proc = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run go: %s" % e)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)
    os.replace(tmp, BINARY)


def child(workload, seed, seconds, traced, deadline):
    """Runs one fresh perfbench process, which must end by the monotonic
    time deadline, and returns its result."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-dir", work, "-ref", REFERENCE]
    if traced:
        cmd += ["-trace", "-spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s of the build" % (" ".join(cmd), TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, seed, budget, traced, deadline):
    """Measures for about budget seconds in fresh processes. climate-grid
    runs one 12-world set per process, so leaked worlds never pile up. A
    traced pass runs one process, one set on climate-grid, so its per-layer
    totals are per process or per set."""
    if workload != "climate-grid":
        n = 1 if traced else PROCESSES[workload]
        return [child(workload, seed, budget / n, traced, deadline) for _ in range(n)]
    results, start = [], time.monotonic()
    while True:
        results.append(child(workload, seed, 0, traced, deadline))
        if traced or time.monotonic() - start >= budget:
            return results


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)] if s else 0.0


def summarize(results):
    """Merges the results of one pass into its end-to-end metrics. Rates are
    computed per group (see main.go) and the median over groups reported;
    latency percentiles are taken over the ops of all groups, since a
    bulk-stream group holds only six ops of different kinds."""
    groups = [g for r in results for g in r["groups"]]
    lat = [x for g in groups for x in g["op_us"]] or [0.0]
    wall = sum(r["wall_s"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    s = {
        "setup_s": statistics.median(v for r in results for v in r["setup_s"]),
        "ops_per_s": statistics.median(len(g["op_us"]) / g["wall_s"] for g in groups),
        "op_p50_us": statistics.median(lat),
        "op_p99_us": percentile(lat, 0.99),
        "stream_mb_per_s": statistics.median(g["bytes"] / 1e6 / g["wall_s"] for g in groups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "samples": sum(len(g["op_us"]) for g in groups),
        "groups": len(groups),
        "setups": sum(len(r["setup_s"]) for r in results),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": sorted({e for r in results for e in r["errors"]}),
    }
    rt = [r["runtime"] for r in results]
    s["runtime.alloc_mb"] = sum(x["alloc_mb"] for x in rt) / attempted
    s["runtime.gc_cycles"] = sum(x["gc_cycles"] for x in rt) / attempted
    s["runtime.cpu_s"] = sum(x["cpu_s"] for x in rt) / attempted
    s["runtime.cpu_busy"] = sum(x["cpu_s"] for x in rt) / (wall * rt[0]["procs"])
    s["runtime.goroutines_left"] = statistics.median(x["goroutines_left"] for x in rt)
    if results[0].get("virt"):
        s["virt_makespan_files_s"] = results[0]["virt"]["virt_makespan_files_s"]
        s["virt_makespan_buffers_s"] = results[0]["virt"]["virt_makespan_buffers_s"]
        s["sim_wall_s"] = statistics.median(r["wall_s"] for r in results)
    return s


def check(passes):
    """Correctness problems across all processes of all passes: what each
    process reported, and processes of one seed that disagree."""
    problems = [m for results in passes for r in results for m in r["mismatches"]]
    first = passes[0][0]
    for results in passes:
        for r in results:
            if r["checksums"] != first["checksums"]:
                problems.append("%s output checksums differ between processes%s: %s vs %s" % (
                    r["workload"], " (traced vs untraced)" if r["traced"] != first["traced"] else "",
                    r["checksums"], first["checksums"]))
            if r.get("virt") != first.get("virt"):
                problems.append("%s virtual finishes differ between processes%s: %s vs %s" % (
                    r["workload"], " (traced vs untraced)" if r["traced"] != first["traced"] else "",
                    r.get("virt"), first.get("virt")))
    return problems


def report(title, s):
    """Prints every end-to-end metric with its unit and sample count."""
    print(title)
    n = "(n=%d ops)" % s["samples"]
    groups = "(median over %d groups)" % s["groups"]
    rows = [
        ("setup_s", s["setup_s"], "s", "(median of %d set-ups)" % s["setups"]),
        ("fail_ratio", s["fail_ratio"], "ratio", "(%d of %d ops)" % (s["failed"], s["attempted"])),
        ("peak_rss_mb", s["peak_rss_mb"], "MB", ""),
        ("ops_per_s", s["ops_per_s"], "1/s", groups),
        ("op_p50_us", s["op_p50_us"], "us", n),
        ("op_p99_us", s["op_p99_us"], "us", n),
        ("stream_mb_per_s", s["stream_mb_per_s"], "MB/s", groups),
    ]
    for k in ("virt_makespan_files_s", "virt_makespan_buffers_s"):
        if k in s:
            rows.append((k, s[k], "virt-s", "(sum of 6 DARLAM finishes)"))
    if "sim_wall_s" in s:
        rows.append(("sim_wall_s", s["sim_wall_s"], "s", "(median per 12-world set)"))
    for name, value, unit, note in rows:
        print("  %-26s %14.6g %-6s %s" % (name, value, unit, note))
    for e in s["errors"]:
        print("  failed op: " + e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = metric_units()
    build()
    deadline = time.monotonic() + TIMEOUT_S
    if args.trace == 0:
        passes = [run_pass(args.workload, args.seed, args.seconds, False, deadline)]
        s = summarize(passes[0])
        report("%s seed %d, untraced:" % (args.workload, args.seed), s)
        metrics = {k: {"value": s[k], "unit": u} for k, u in end_to_end.items()}
    else:
        plain = run_pass(args.workload, args.seed, args.seconds / 2, False, deadline)
        traced = run_pass(args.workload, args.seed, args.seconds / 2, True, deadline)
        passes = [plain, traced]
        s, t = summarize(plain), summarize(traced)
        report("%s seed %d, untraced pass:" % (args.workload, args.seed), s)
        report("%s seed %d, traced pass:" % (args.workload, args.seed), t)
        # A layer the workload bypasses has no spans or counters: it reads 0.
        layers = dict.fromkeys(per_layer, 0.0)
        layers.update(traced[0]["layers"])
        for k in per_layer:
            if k.startswith("runtime."):
                layers[k] = s[k]
            elif k.startswith(OVERHEAD):
                layers[k] = t[k[len(OVERHEAD):]] - s[k[len(OVERHEAD):]]
        print("%s seed %d, per layer (traced pass; runtime.* from the untraced pass):"
              % (args.workload, args.seed))
        for k in sorted(per_layer):
            print("  %-34s %14.6g %s" % (k, layers[k], per_layer[k]))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items()}

    problems = check(passes)
    for p in problems:
        print("CHECK FAILED: " + p)
    attempted = sum(r["attempted"] for results in passes for r in results)
    failed = sum(r["failed"] for results in passes for r in results)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
