"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads lindblad --seeds 1-5

For every workload it runs ``run.py --trace 0`` once per seed, one run at
a time and always for BENCHMARK.json's run_seconds, and reports for each
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to a third of the metric's bound from BENCHMARK.json.  With ``--trace-seed`` it adds one traced run per
workload for the per-layer baseline.  ``--out`` writes everything as
JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode})")
    return result, elapsed


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="", help="free text stored with the results")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    report = {"label": args.label, "seconds": seconds, "seeds": seeds,
              "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "cores": len(os.sched_getaffinity(0))},
              "workloads": {}}
    for workload in workloads:
        per_metric = {name: [] for name in bounds}
        attempted = failed = wall = 0
        record = None
        for seed in seeds:
            result, elapsed = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            wall += elapsed
            if record is None:
                with open(os.path.join(HERE, "out",
                                       f"result-{workload}-seed{seed}-trace0.json")) as fh:
                    record = json.load(fh)
            for name in bounds:
                per_metric[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={result['metrics'][n]['value']:.5g}" for n in bounds)
                + f"  ({elapsed:.1f} s)", flush=True)
        entry = {"attempted": attempted, "fail_ratio": failed / attempted,
                 "mean_run_wall_s": wall / len(seeds),
                 "blas_threads": record["blas_threads"],
                 "mix_seed": seeds[0], "mix": record["mix"], "kinds": record["kinds"],
                 "end_to_end": {n: summarize(v) for n, v in per_metric.items()}}
        if args.trace_seed is not None:
            result, _ = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            limit = bounds[name] / 3.0
            flag = "ok" if s["spread"] <= limit else "WIDE"
            print(f"  {name:12s} median {s['median']:11.5g}  q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}"
                  f"  spread {s['spread']:.4f}  (bound/3 {limit:.4f}) {flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
