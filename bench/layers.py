"""Layer ladder for the Lindblad kernel: generator build, grid propagation, stationary state.

Usage, from the repository root:

    python bench/layers.py                      # full ladder, writes BENCH_lindblad.json
    python bench/layers.py --smoke              # d <= 4, one repeat, JSON to stdout only
    python bench/layers.py --src OTHER/src --out other.json   # time another checkout

Each layer is timed on random Lindblad models at d = 2, 4, 12 and 24 (two
dense jump operators, generator column-sum norm 4) and on the thermal
oscillator truncated at n_max = 61 (sparse, d = 62):

* ``generator``: a fresh ``LindbladModel`` and its forward generator;
* ``propagate_series``: e^{tL}[I] on a 21-point uniform grid and a 21-point
  log grid over [0, 2] (the oscillator also runs its dual from the ground
  state, the ``oscillator_q_numeric`` route);
* ``stationary_state``: the bordered solve with its uniqueness margin.

Every layer reports the minimum and the median over ``REPEATS`` runs
(one in smoke mode) after one untimed warm-up, in milliseconds.  BLAS is
pinned to one thread before numpy is imported, as in the benchmark and
the tests.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIMS = (2, 4, 12, 24)
SMOKE_DIMS = (2, 4)
OSCILLATOR_CUTOFF = 61
GENERATOR_NORM = 4.0
POINTS = 21
T_MAX = 2.0
REPEATS = 7


def grids():
    import numpy as np
    return {"uniform": np.linspace(0.0, T_MAX, POINTS),
            "log": np.concatenate([[0.0], np.geomspace(T_MAX / 50.0, T_MAX, POINTS - 1)])}


def random_inputs(d, seed):
    """Hamiltonian, jumps and rates of a random model scaled to ||G||_1 = GENERATOR_NORM."""
    import numpy as np
    from envq import dynamics
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T) / d
    jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0 * d)
             for _ in range(2)]
    rates = rng.uniform(0.3, 1.0, size=2)
    gen = dynamics.liouvillian(dynamics.LindbladModel(h, jumps, rates=rates)).dense()
    scale = GENERATOR_NORM / np.abs(gen).sum(axis=0).max()
    return scale * h, jumps, scale * rates


def timed(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return {"min_ms": min(samples), "median_ms": statistics.median(samples), "repeats": repeats}


def ladder(dims, repeats, oscillator):
    import numpy as np
    from envq import dynamics, models

    rows = []

    def add(layer, model, d, storage, fn, **extra):
        row = {"layer": layer, "model": model, "dim": d, "storage": storage, **extra,
               **timed(fn, repeats)}
        rows.append(row)
        print(f"{layer:17s} {model:16s} d={d:3d} {storage:6s} "
              f"{extra.get('grid', ''):8s} min {row['min_ms']:9.3f} ms  "
              f"median {row['median_ms']:9.3f} ms", file=sys.stderr, flush=True)

    cases = []
    for d in dims:
        h, jumps, rates = random_inputs(d, seed=100 + d)
        cases.append((f"random-d{d}", d, lambda h=h, j=jumps, r=rates: dynamics.LindbladModel(h, j, rates=r)))
    if oscillator:
        p = models.OscillatorParams(0.72, 2.85, OSCILLATOR_CUTOFF)
        cases.append((f"oscillator-{OSCILLATOR_CUTOFF}", p.dim, p.lindblad_model))
    for name, d, make in cases:
        g = dynamics.liouvillian(make())
        storage = "sparse" if g.is_sparse else "dense"
        add("generator", name, d, storage, lambda make=make: dynamics.liouvillian(make()))
        eye = np.eye(d, dtype=complex)
        for kind, times in grids().items():
            add("propagate_series", name, d, storage,
                lambda g=g, eye=eye, times=times: dynamics.propagate_series(g, eye, times),
                grid=kind, points=POINTS)
        if name.startswith("oscillator"):
            gd = dynamics.dual_liouvillian(make())
            ground = np.zeros((d, d), dtype=complex)
            ground[0, 0] = 1.0
            for kind, times in grids().items():
                add("propagate_series", name + "-dual", d, storage,
                    lambda gd=gd, times=times: dynamics.propagate_series(gd, ground, times),
                    grid=kind, points=POINTS)
        add("stationary_state", name, d, storage, lambda g=g: dynamics.stationary_state(g))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="d <= 4, no oscillator, one repeat; print the JSON instead of writing it")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the envq package to time")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_lindblad.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import scipy
    dims, repeats = (SMOKE_DIMS, 1) if args.smoke else (DIMS, REPEATS)
    rows = ladder(dims, repeats, oscillator=not args.smoke)
    record = {
        "topic": "lindblad",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "layers": rows,
    }
    text = json.dumps(record, indent=1)
    if args.smoke:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
