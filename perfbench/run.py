#!/usr/bin/env python3
"""Builds the replay benchmark from this checkout and runs it.

One run of one workload (the last line of stdout is the result JSON):

    python3 perfbench/run.py --workload steady_datapath --seed 1 \
        --seconds 10 --trace 0

Steadiness mode: runs every workload (or one, with --workload) K times in
each of two sets of seeds, interleaved, and prints per end-to-end metric
the median, the quartiles and the spread against the bound in
BENCHMARK.json, and how far the second set's median moved from the first:

    python3 perfbench/run.py --steadiness 10 [--workload NAME]

The build goes to .bench_build/perfbench under the checkout root, with
the CMake project in this directory; the repository's own build files are
not used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "lazyctrl_perfbench"
RUN_LIMIT_S = 170  # one run must end within 180 s
BUILD_LIMIT_S = 840
SETS = 2  # steadiness mode: two sets of runs that must agree
WORKLOADS = [
    "steady_datapath",
    "drift_regroup",
    "surge_outage_sharded",
    "openflow_baseline",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "src" / "core" / "network.h").is_file():
        log(f"perfbench: no library sources under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return False
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
            return False
    return BINARY.is_file()


def run_once(workload, seed, seconds, trace, echo):
    """Runs the binary once; returns (exit code, result dict or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} ran past {RUN_LIMIT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args, spec):
    """Runs K seeds per set per workload and prints spreads and drifts."""
    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    # Set s uses seeds 1000*s + 1 .. 1000*s + K; the two sets interleave
    # so a slow spell on the machine hits both alike.
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    for w in workloads:
        for i in range(args.steadiness):
            for s in range(SETS):
                seed = 1000 * s + i + 1
                code, res = run_once(w, seed, seconds, 0, echo=False)
                if code != 0 or res is None or not res.get("correct"):
                    log(f"{w} seed {seed}: exit {code}, result {res}")
                    ok = False
                    continue
                results[w][s].append(res)
                log(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))
    print(f"# steadiness: {args.steadiness} runs per set, {SETS} sets,"
          f" {seconds} s per run")
    print(f"{'workload':22} {'metric':27} {'set':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6} {'moved':>7}")
    medians = {}
    for w in workloads:
        shares = set()
        for s, runs in enumerate(results[w]):
            shares.update(r["failed"] / r["attempted"] for r in runs)
        if len(shares) > 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for name, m in bounds.items():
            first_median = None
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                moved = ""
                if first_median is None:
                    first_median = med
                    medians[(w, name)] = med
                else:
                    worse = (med - first_median) / first_median
                    if m["better"] == "higher":
                        worse = -worse
                    moved = f"{worse:+.3f}"
                    if worse > m["bound"]:
                        ok = False
                        moved += "!"
                flag = ""
                if spread > m["bound"]:
                    flag, ok = " FAIL", False
                elif spread > m["bound"] / 3:
                    flag = " wide"
                print(f"{w:22} {name:27} {s:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>7.3f} {m['bound']:>6} "
                      f"{moved:>7}{flag}")
    key = "ctrl_packet_ins_per_kflow"
    if (("steady_datapath", key) in medians
            and ("openflow_baseline", key) in medians):
        lazy = medians[("steady_datapath", key)]
        base = medians[("openflow_baseline", key)]
        print(f"# Fig. 7 controller workload reduction (median packet-ins "
              f"per 1000 flows, steady_datapath vs openflow_baseline): "
              f"{lazy:.2f} vs {base:.2f} = {100 * (1 - lazy / base):.1f}%")
    out = BUILD_DIR / "steadiness.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"# raw results: {out}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--steadiness", type=int, metavar="K")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("perfbench: BENCHMARK.json not found at the checkout root")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.steadiness is None and (args.workload is None or args.seed is None
                                    or args.seconds is None
                                    or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if args.steadiness is not None:
        return steadiness(args, spec)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
