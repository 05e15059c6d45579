"""envq benchmark harness: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload lindblad --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next task starts
only after the previous one returned and was checked against its
reference.  The loop runs whole rounds of tasks (see workloads.py) until
``--seconds`` of wall time have passed.

``--trace 0`` reports the end-to-end metrics: tasks_per_s (tasks per
second of task time: the reference checks, collections and speed probes
between tasks are harness work and would dilute a change to envq),
task_ms_p50 and task_ms_p90 (latency quantiles; the rounds are built so
that the 90th percentile falls inside the block of large-model tasks,
and a percentile picked from the sample count would move with
throughput),
setup_s (median over five fresh processes of importing envq and
finishing one warm-up task, each scaled by the speed probe that process
measured right after) and peak_rss_mb.  The harness's own set-up, which
runs after them, is recorded but not counted: it read systematically
faster than the fresh processes once scaled.  ``--trace 1`` runs the
loop untraced for half the time, then the same rounds again with spans
recorded around the calls into each envq module, and reports the
per-layer metrics derived from those spans plus trace_overhead_s.

A readable table goes to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  Any
task that raises or misses its reference makes the run exit with code
1, so a wrong answer is never reported as a speed-up.  Spans and a full
result record are written under perfbench/out/.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lindblad", "classical-noise", "renewal-series", "cli-batch")
SETUP_SAMPLES = 5
SETUP_PROBES = 4
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
E2E_UNITS = {"tasks_per_s": "1/s", "task_ms_p50": "ms", "task_ms_p90": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def cap_blas_threads():
    """Pin the BLAS pools to one thread, below the nproc cores this process may use.

    On a 2-core VM a second BLAS thread made the d = 12 lindblad tasks about
    twice as slow and far less steady (166-231 ms over six runs, against
    95-100 ms over four with one thread): envq's matrices are too small to
    share between threads.
    """
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def setup(workload, seed, workdir):
    """Import envq, then finish one warm-up task.

    Returns the seconds taken and the speed probe measured right after.
    """
    start = time.perf_counter()
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import envq  # noqa: F401
    import workloads
    workloads.warmup_task(workload, seed, workdir).run()
    elapsed = time.perf_counter() - start
    import speed
    return elapsed, statistics.mean(speed.probe() for _ in range(SETUP_PROBES))


def setup_in_fresh_processes(workload, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        samples.append((result["setup_s"], result["probe_s"]))
    return samples


def run_rounds(workload, seed, workdir, seconds=None, rounds=None, tracer=None, bias=0.0,
               first_task=0):
    """Closed loop over whole rounds; stops after ``rounds`` or ``seconds`` of wall time.

    Between tasks the speed probe runs at least every PROBE_EVERY_S; each
    record keeps its raw latency and the mean of the probes around it.
    """
    import refs
    import speed
    import workloads

    records = []
    start = time.perf_counter()
    last_probe, last_probe_at, unprobed = speed.probe(), time.perf_counter(), []
    index = 0
    while True:
        gc.collect()  # start every round from the same collector state
        for task in workloads.make_round(workload, seed, index, workdir):
            chk = refs.Checker(bias)
            if tracer is not None:
                tracer.task = first_task + len(records)
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception as exc:  # a failing task is counted, not fatal
                out = None
                chk.misses.append(f"raised {type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.task = None
            if not chk.misses:
                try:
                    task.check(out, chk)
                except Exception as exc:
                    chk.misses.append(f"check raised {type(exc).__name__}: {exc}")
            records.append({"kind": task.kind, "props": task.props, "latency_s": latency,
                            "misses": chk.misses})
            unprobed.append(records[-1])
            if time.perf_counter() - last_probe_at >= speed.PROBE_EVERY_S:
                last_probe = _settle(unprobed, last_probe, speed.probe())
                last_probe_at = time.perf_counter()
        index += 1
        if rounds is not None:
            if index >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    _settle(unprobed, last_probe, speed.probe())
    return records, index, time.perf_counter() - start


def _settle(records, before, after):
    """Attach the mean of the bracketing probes and the scaled latency."""
    import speed

    probe = 0.5 * (before + after)
    for r in records:
        r["probe_s"] = probe
        r["scaled_s"] = speed.scale(r["latency_s"], probe)
    records.clear()
    return after


def latency_summary(records, key="scaled_s"):
    lat = sorted(r[key] for r in records)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "tasks_per_s": len(lat) / sum(lat),
        "task_ms_p50": 1e3 * statistics.median(lat),
        "task_ms_p90": 1e3 * p90,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "task_time_s": sum(lat),
    }


def kind_table(records):
    """Latency median and count per task kind, for reading the mix."""
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency_s"])
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v), "max_ms": 1e3 * max(v)}
            for k, v in sorted(kinds.items())}


def task_mix(records):
    """Counts of each task property value (dims, grids, couplings, waiting families)."""
    mix = {}
    for r in records:
        for key, value in r["props"].items():
            if key in ("points", "paths", "t_max"):
                continue
            mix.setdefault(key, {})
            mix[key][str(value)] = mix[key].get(str(value), 0) + 1
    return mix


def task_list(records):
    return [[r["kind"], r["props"], 1e3 * r["latency_s"], 1e3 * r["scaled_s"]] for r in records]


def failures(records):
    return [{"task": i, "kind": r["kind"], "misses": r["misses"]}
            for i, r in enumerate(records) if r["misses"]]


def print_table(title, rows, notes):
    print(title)
    print(f"  {'metric':48s} {'value':>14s}  unit   note")
    for name, value, unit in rows:
        print(f"  {name:48s} {value:14.6g}  {unit:5s}  {notes.get(name, '')}")


def main_trace0(args, threads, workdir):
    import speed

    setup_samples = setup_in_fresh_processes(args.workload, args.seed, SETUP_SAMPLES)
    own_setup = setup(args.workload, args.seed, workdir)
    records, rounds, wall = run_rounds(args.workload, args.seed, workdir, seconds=args.seconds)
    lat = latency_summary(records)
    raw = latency_summary(records, key="latency_s")
    raw["setup_s"] = statistics.median(s for s, _ in setup_samples)
    values = {
        "tasks_per_s": lat["tasks_per_s"],
        "task_ms_p50": lat["task_ms_p50"],
        "task_ms_p90": lat["task_ms_p90"],
        "setup_s": statistics.median(speed.scale(s, p) for s, p in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = len(failures(records))
    notes = {
        "tasks_per_s": f"{lat['samples']} tasks in {lat['task_time_s']:.3f} s of task time; "
                       f"raw {raw['tasks_per_s']:.6g}",
        "task_ms_p50": f"n={lat['samples']}; raw {raw['task_ms_p50']:.6g}",
        "task_ms_p90": f"n={lat['samples']}, {lat['beyond_p90']} beyond; raw {raw['task_ms_p90']:.6g}",
        "setup_s": f"median of {len(setup_samples)} processes; raw {raw['setup_s']:.6g}",
        "peak_rss_mb": "ru_maxrss of the harness process",
        "fail_ratio": f"{failed}/{len(records)}",
    }
    rows = [(name, values[name], E2E_UNITS[name]) for name in E2E_UNITS]
    rows.append(("fail_ratio", failed / len(records), "1"))
    probes = [r["probe_s"] for r in records]
    print_table(f"end-to-end, {rounds} rounds in {wall:.2f} s wall; times scaled to the "
                f"reference speed (probe {speed.PROBE_REF_S * 1e3:g} ms, measured median "
                f"{statistics.median(probes) * 1e3:.3f} ms)", rows, notes)
    print("task kinds:")
    for kind, row in kind_table(records).items():
        print(f"  {kind:28s} n={row['n']:4d}  p50 {row['p50_ms']:10.3f} ms  max {row['max_ms']:10.3f} ms")
    detail = {"setup_samples": [{"setup_s": s, "probe_s": p} for s, p in setup_samples],
              "own_setup": {"setup_s": own_setup[0], "probe_s": own_setup[1]},
              "latency": lat, "raw": raw, "rounds": rounds, "wall_s": wall,
              "probe_s_median": statistics.median(probes),
              "fail_ratio": failed / len(records), "kinds": kind_table(records),
              "mix": task_mix(records), "tasks": task_list(records)}
    return records, {k: (v, E2E_UNITS[k]) for k, v in values.items()}, detail


def main_trace1(args, threads, workdir):
    setup(args.workload, args.seed, workdir)
    import envq
    import tracing

    plain, rounds, plain_wall = run_rounds(args.workload, args.seed, workdir,
                                           seconds=args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install(envq)
    try:
        traced, _, traced_wall = run_rounds(args.workload, args.seed, workdir, rounds=rounds,
                                            tracer=tracer, first_task=len(plain))
    finally:
        tracer.uninstall()
    overhead = sum(r["scaled_s"] for r in traced) - sum(r["scaled_s"] for r in plain)
    layer = tracer.layer_metrics()
    layer["trace_overhead_s"] = overhead
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                              "blas_threads": threads})
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    notes = {"trace_overhead_s": "scaled task time traced minus untraced, same rounds"}
    print_table(f"per layer, {rounds} rounds traced ({len(tracer.spans)} spans -> "
                f"{os.path.relpath(spans_path, ROOT)})",
                [(n, v, u) for n, (v, u) in metrics.items()], notes)
    detail = {"rounds": rounds, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
              "mix": task_mix(traced)}
    return plain + traced, metrics, detail


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "envq", "__init__.py")):
        print(f"error: no envq sources under {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            elapsed, probe_s = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": elapsed, "probe_s": probe_s}))
            return 0
        print(f"envq benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"closed loop, 1 client; BLAS threads {threads} of "
              f"{len(os.sched_getaffinity(0))} cores ({', '.join(BLAS_VARS)})")
        if args.trace:
            records, metrics, detail = main_trace1(args, threads, workdir)
        else:
            records, metrics, detail = main_trace0(args, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = failures(records)
    for f in failed[:10]:
        print(f"FAILED task {f['task']} ({f['kind']}): {'; '.join(f['misses'])}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": threads, "failures": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **detail}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
