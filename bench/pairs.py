"""Paired benchmark runs: perfbench/run.py on a parent and a changed checkout.

Usage, from the repository root:

    python bench/pairs.py --parent ../parent --change . --workload classical-noise \
        --pairs 10 --seconds 20 --seed 501

Each side first makes one warm-up run, whose metrics are discarded, so
that file caches and compiled bytecode are warm on both.  Pair i then
runs both sides with seed ``--seed + i``, and the side that runs first
alternates from pair to pair: the side that ran first tended to win, so
a fixed order biases the comparison.  Every run is a fresh
``python3 perfbench/run.py`` process in that checkout, which benchmarks
the envq sources under its own ``src``.

For each end-to-end metric that BENCHMARK.json names, the script prints
every pair, each side's median and quartiles over the pairs, and how many
pairs the change won (ties count for neither side).  The last line is one
JSON object with the same numbers.  The exit code is 1 if any run failed
a task or exited with an error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end_metrics():
    """(name, unit, better) of every end-to-end metric of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run(checkout, workload, seed, seconds):
    """Metric values of one perfbench run, or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"run failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}\n")
        return None
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics()

    failed = False
    for side in SIDES:
        print(f"warm-up {side}: {checkouts[side]}", flush=True)
        failed |= run(checkouts[side], args.workload, args.seed, args.seconds) is None
    values = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {side: run(checkouts[side], args.workload, seed, args.seconds) for side in order}
        if None in got.values():
            failed = True
            continue
        for side in SIDES:
            values[side].append(got[side])
        cells = "  ".join(f"{name} {got['parent'][name]:.4g} -> {got['change'][name]:.4g}"
                          for name, _, _ in metrics)
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    summary = {}
    n = len(values["parent"])
    print(f"\n{args.workload}: {n} pairs of {args.seconds:g} s")
    print(f"  {'metric':14s} {'parent median [q1-q3]':>30s} {'change median [q1-q3]':>30s}  wins")
    for name, unit, better in metrics:
        if not n:
            break
        sides = {side: [v[name] for v in values[side]] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        q = {side: quartiles(sides[side]) for side in SIDES}
        summary[name] = {"unit": unit, "better": better, "change_wins": wins, "pairs": n,
                         **{side: {"q1": q[side][0], "median": q[side][1], "q3": q[side][2],
                                   "runs": sides[side]} for side in SIDES}}
        cols = "".join(f" {q[s][1]:12.4g} [{q[s][0]:.4g}-{q[s][2]:.4g}]".rjust(31) for s in SIDES)
        print(f"  {name:14s}{cols}  {wins}/{n}  ({unit}, {better} is better)")
    print(json.dumps({"workload": args.workload, "pairs": n, "failed": failed,
                      "metrics": summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
