#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (interquartile range / median).

    python3 perfbench/spread.py [--workloads sp_cold,wire_mix] [--seeds 10]
                                [--first-seed 1] [--baseline perfbench/baseline.json]

A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json (setup_s is exempt: it is reported, not gated on spread).
With --baseline, the per-workload figures are written there together with
the commit, build type and core count they were measured on. Exits 1 when a
run fails its output checks or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-2]) if len(lines) >= 2 else {}
    contract = json.loads(lines[-1]) if lines else {}
    return result.returncode, report, contract


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    baseline = {"commit": commit(), "build_type": "RelWithDebInfo",
                "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
                "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        samples = {}
        for seed in baseline["seeds"]:
            code, report, contract = run_once(workload, seed, bench["run_seconds"], 0)
            if code != 0 or not contract.get("correct"):
                print("%s seed %d: FAILED (exit %d) %s" %
                      (workload, seed, code, report.get("failures")))
                ok = False
                continue
            for name in bounds:
                values[name].append(contract["metrics"][name]["value"])
            print("%-12s seed %-3d %s" % (workload, seed, " ".join(
                "%s=%.5g" % (name, values[name][-1]) for name in bounds)))
            for name, n in report.get("samples", {}).items():
                samples.setdefault(name, []).append(n)
        figures = {}
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok = ok and (name == "setup_s" or spread <= bounds[name])
            figures[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            print("%-12s %-15s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.4f  "
                  "bound/3 %.4f %s" % (workload, name, med, q1, q3, spread,
                                       bounds[name] / 3, "" if steady else "WIDE"))
        baseline["workloads"][workload] = {
            "metrics": figures,
            "samples_per_run": {k: [min(v), max(v)] for k, v in samples.items()}}
        sys.stdout.flush()
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
