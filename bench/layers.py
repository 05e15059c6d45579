"""Layer ladders: the Lindblad kernel, the Monte Carlo engine, the renewal solves and the CLI of envq.

Usage, from the repository root:

    python bench/layers.py                      # Lindblad ladder, writes BENCH_lindblad.json
    python bench/layers.py --topic stochastic   # Monte Carlo ladder, writes BENCH_stochastic.json
    python bench/layers.py --topic renewal      # Volterra/renewal ladder, writes BENCH_renewal.json
    python bench/layers.py --topic cli          # whole CLI pipeline, writes BENCH_cli.json
    python bench/layers.py --topic oracle       # joint-space oracle, writes BENCH_oracle.json
    python bench/layers.py --smoke              # d <= 4 (renewal t_max <= 6), one repeat, JSON to stdout
    python bench/layers.py --src OTHER/src --out other.json   # time another checkout

The ``lindblad`` topic times each layer on random Lindblad models at d = 2,
4, 12, 24 and 48 (two dense jump operators, generator column-sum norm 4) and
on the thermal oscillator truncated at n_max = 61 (sparse, d = 62); d = 48
has no ``stationary_state`` row:

* ``generator``: a fresh ``LindbladModel`` and the real form of its forward
  generator, which is built on that first read;
* ``propagate_series``: e^{tL}[I] on a 21-point uniform grid and a 21-point
  log grid over [0, 2] (the oscillator also runs its dual from the ground
  state, the ``oscillator_q_numeric`` route);
* ``q_series``: ``quantumness.q_series`` of I/d on the uniform grid, each
  run on a fresh model, so that it includes whatever generator build the
  series needs (none for the oscillator, which steps its diagonal sector);
* ``stationary_state``: the bordered solve with its uniqueness margin.

The ``stochastic`` topic times the Monte Carlo engine for one path and for
one block of ``PATH_BLOCK`` paths, and reports both the time and the time
per path:

* ``path_streams``: a generator at the start of each path's Philox stream;
* ``noise_paths``: white, Ornstein-Uhlenbeck and telegraph paths on [0, 2]
  at dt = 0.02 (correlation time 0.5), through ``sample_noise_path`` for
  one path and the block sampler for a block;
* ``path_unitaries``: the path unitaries of the same noise at 11 times,
  with a random H and coupling at d = 2, 4 and 12;
* ``collisional_chain``: the collision chain of a random two-Kraus channel
  at 13 times on [0, 3], exponential (rate 1) and gamma (shape 2, rate 2)
  waiting, at d = 2, 4 and 12;
* ``event_times``: the collision times alone on [0, 3], the same two
  waits and deterministic waiting (period 0.6), timed last.

The ``renewal`` topic times the two product-trapezoid Volterra solves, both
on ``qcore.blocked_volterra``, and the phase-type clock that replaces the
second for exponential and integer-shape gamma waits, at t_max = 3, 6 and
40 (3 and 6 in smoke mode):

* ``volterra_solve``: the memory-kernel amplitude of the Lorentzian kernel
  with tau_c = 0.45 (gamma = 1) at the step tau_c / 100 that
  ``models.memory_c`` uses, Richardson pair included;
* ``memory_c``: the whole tabulated-kernel route for the same kernel given
  as ``kernel_func``, at 31 times on [0, t_max]: both solves of the
  Richardson pair and the cubic spline through them;
* ``series_chain``: the product-trapezoid renewal series of the collision
  chain of a random two-Kraus channel at 13 times, exponential (rate 1)
  and gamma (shape 2, rate 2) waiting at the default step, at d = 2, 4 and
  12 (2 and 4 in smoke mode);
* ``clock_chain``: the same chains through the clock model
  (``stochastic.CollisionalModel.clock``), each run from a fresh
  ``CollisionalModel``, so the clock's generator build is timed too.

The ``cli`` topic times the whole pipeline on the six configs of the
``envq verify`` bundle (``acceptance._write_verify_bundle`` writes them,
and its own runs are the warm-up):

* ``cli_run``: ``cli.run`` with ``qt`` or ``sweep``, as the bundle runs it,
  from argument parsing to the written CSV;
* ``load_config`` and ``build_model``: the config file parsed into a
  RunConfig, and the model built from it;
* ``build_parser``: the argument parser as each ``cli.run`` call gets it.

The ``oracle`` topic times the Hermitian eigensystem and the joint-space
oracle of ``envq.microscopic``:

* ``hermitian_eigensystem``: ``qcore.hermitian_eigensystem`` of a random
  Hermitian matrix at d = 2, 4, 12, 24 and 61;
* ``unitary``, ``quantumness_direct`` and ``quantumness_via_dual``: one
  time (t = 0.7) of a random non-commuting ``JointModel`` whose
  eigensystem is already cached, at dim_s x dim_e = 2 x 2, 2 x 4, 3 x 8
  and 4 x 16;
* ``ensemble_reduction``: ``hamiltonian_ensemble_reduction`` of a random
  commuting model of the same sizes.

Every layer reports the minimum and the median over ``REPEATS`` runs
(one in smoke mode) after one untimed warm-up, in milliseconds.  BLAS is
pinned to one thread before numpy is imported, as in the benchmark and
the tests.
"""

import argparse
import functools
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
LARGE_DIMS = (48,)  # generator, propagation and q_series rows only: no stationary solve
SMOKE_DIMS = (2, 4)
OSCILLATOR_CUTOFF = 61
GENERATOR_NORM = 4.0
POINTS = 21
T_MAX = 2.0
REPEATS = 7
STOCHASTIC_DIMS = (2, 4, 12)
SEED = 77
NOISE_T_MAX, NOISE_DT, NOISE_TAU = 2.0, 0.02, 0.5
CHAIN_T_MAX = 3.0
RENEWAL_DIMS = (2, 4, 12)
RENEWAL_T_MAX = (3.0, 6.0, 40.0)
SMOKE_RENEWAL_T_MAX = (3.0, 6.0)
RENEWAL_TAU_C = 0.45
EIGEN_DIMS = (2, 4, 12, 24, 61)
JOINT_DIMS = ((2, 2), (2, 4), (3, 8), (4, 16))
ORACLE_T = 0.7


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


def add_row(rows, repeats, fn, **fields):
    """Time ``fn`` and append its row: ``fields`` in the order given, then the
    timings, then ``per_path_us`` when the fields include ``paths``."""
    row = {**fields, **timed(fn, repeats)}
    if "paths" in row:
        row["per_path_us"] = 1e3 * row["min_ms"] / row["paths"]
    rows.append(row)
    label = " ".join(f"{key}={value}" for key, value in fields.items())
    print(f"{label}  min {row['min_ms']:.3f} ms  median {row['median_ms']:.3f} ms",
          file=sys.stderr, flush=True)


def ladder(add, dims, oscillator, large_dims=()):
    import numpy as np
    from envq import dynamics, models, quantumness

    cases = []
    for d in (*dims, *large_dims):
        h, jumps, rates = random_inputs(d, seed=100 + d)
        cases.append((f"random-d{d}", d, lambda h=h, j=jumps, r=rates: dynamics.LindbladModel(h, j, rates=r)))
    if oscillator:
        p = models.OscillatorParams(0.72, 2.85, OSCILLATOR_CUTOFF)
        cases.append((f"oscillator-{OSCILLATOR_CUTOFF}", p.dim, p.lindblad_model))
    for name, d, make in cases:
        g = dynamics.liouvillian(make())
        storage = "sparse" if g.is_sparse else "dense"
        add(lambda make=make: dynamics.liouvillian(make()).real,
            layer="generator", model=name, dim=d, storage=storage)
        eye = np.eye(d, dtype=complex)
        for kind, times in grids().items():
            add(lambda g=g, eye=eye, times=times: dynamics.propagate_series(g, eye, times),
                layer="propagate_series", model=name, dim=d, storage=storage, grid=kind,
                points=POINTS)
        if name.startswith("oscillator"):
            gd = dynamics.dual_liouvillian(make())
            ground = np.zeros((d, d), dtype=complex)
            ground[0, 0] = 1.0
            for kind, times in grids().items():
                add(lambda gd=gd, times=times: dynamics.propagate_series(gd, ground, times),
                    layer="propagate_series", model=name + "-dual", dim=d, storage=storage,
                    grid=kind, points=POINTS)
        add(lambda make=make, state=eye / d, times=grids()["uniform"]:
            quantumness.q_series(make(), state, times),
            layer="q_series", model=name, dim=d, storage=storage, grid="uniform", points=POINTS)
        if d not in large_dims:
            add(lambda g=g: dynamics.stationary_state(g),
                layer="stationary_state", model=name, dim=d, storage=storage)


def noise_process(stochastic, family, coupling):
    tau = 0.0 if family == "gaussian-white" else NOISE_TAU
    return stochastic.NoiseProcess(family, 0.6, tau, coupling)


def waiting_laws(stochastic):
    """The two renewal waits of the chain rows: exponential (rate 1) and gamma (2, 2)."""
    return {"exponential": stochastic.WaitingTime("exponential", rate=1.0),
            "gamma": stochastic.WaitingTime("gamma", rate=2.0, shape=2.0)}


def random_hermitian(rng, d):
    import numpy as np
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (h + h.conj().T) / np.sqrt(d)


def random_kraus_pair(rng, d):
    """The two d x d blocks of a random 2d x d isometry, a two-Kraus channel."""
    import numpy as np
    iso = np.linalg.qr(rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d)))[0]
    return [iso[:d], iso[d:]]


def stochastic_ladder(add, dims):
    import numpy as np
    from envq import qcore, stochastic

    block = stochastic.PATH_BLOCK
    add(lambda: stochastic.path_rng(SEED, 0),
        layer="path_streams", model="philox", dim=None, paths=1)
    add(lambda: list(stochastic._path_streams(SEED, range(block))),
        layer="path_streams", model="philox", dim=None, paths=block)
    for family in stochastic.NOISE_FAMILIES:
        process = noise_process(stochastic, family, qcore.sigma_x)
        add(lambda process=process: stochastic.sample_noise_path(
            process, NOISE_T_MAX, NOISE_DT, SEED),
            layer="noise_paths", model=family, dim=None, paths=1)
        add(lambda process=process: stochastic._noise_sampler(process, NOISE_T_MAX, NOISE_DT)(
            SEED, range(block)),
            layer="noise_paths", model=family, dim=None, paths=block)
    noise_times = np.linspace(0.0, NOISE_T_MAX, 11)
    chain_times = np.linspace(0.0, CHAIN_T_MAX, 13)
    waits = waiting_laws(stochastic)
    for d in dims:
        rng = np.random.default_rng(200 + d)
        h0, coupling = random_hermitian(rng, d), random_hermitian(rng, d)
        for family in stochastic.NOISE_FAMILIES:
            process = noise_process(stochastic, family, coupling)
            for n in (1, block):
                add(lambda process=process, n=n: list(stochastic._path_unitaries(
                    process, h0, noise_times, n, SEED, NOISE_DT)),
                    layer="path_unitaries", model=family, dim=d, paths=n)
        kraus = random_kraus_pair(rng, d)
        x0 = np.eye(d, dtype=complex)
        for name, waiting in waits.items():
            model = stochastic.CollisionalModel(random_hermitian(rng, d), kraus, waiting)
            for n in (1, block):
                add(lambda model=model, n=n: list(stochastic._chain_snapshots(
                    model, x0, chain_times, n, SEED)),
                    layer="collisional_chain", model=name, dim=d, paths=n)
    # last: a row's time can depend on what ran before it in the process, so
    # these rows come after the others, which keep their place in the run
    for name, waiting in {**waits, "deterministic": stochastic.WaitingTime(
            "deterministic", period=0.6)}.items():
        for n in (1, block):
            add(lambda waiting=waiting, n=n: stochastic._collision_times(
                waiting, CHAIN_T_MAX, SEED, range(n)),
                layer="event_times", model=name, dim=None, paths=n)


def renewal_ladder(add, dims, horizons):
    import numpy as np
    from envq import models, stochastic

    kernel = models.NonMarkovParams(1.0, RENEWAL_TAU_C).kernel_function()
    tabulated = models.NonMarkovParams(1.0, RENEWAL_TAU_C, kernel="tabulated", kernel_func=kernel)
    for t_max in horizons:
        add(lambda t_max=t_max: models.volterra_solve(kernel, t_max, RENEWAL_TAU_C / 100.0),
            layer="volterra_solve", model="lorentzian", dim=None, t_max=t_max)
        add(lambda t=np.linspace(0.0, t_max, 31): models.memory_c(tabulated, t),
            layer="memory_c", model="tabulated", dim=None, t_max=t_max)
    for d in dims:
        rng = np.random.default_rng(300 + d)
        kraus = random_kraus_pair(rng, d)
        h, x0 = random_hermitian(rng, d), np.eye(d, dtype=complex)
        for name, waiting in waiting_laws(stochastic).items():
            model = stochastic.CollisionalModel(h, kraus, waiting)
            for t_max in horizons:
                times = np.linspace(0.0, t_max, 13)
                add(lambda model=model, times=times: stochastic._series_chain(model, x0, times),
                    layer="series_chain", model=name, dim=d, t_max=t_max)
                add(lambda waiting=waiting, times=times: stochastic._clock_chain(
                    stochastic.CollisionalModel(h, kraus, waiting), x0, times),
                    layer="clock_chain", model=name, dim=d, t_max=t_max)


def oracle_ladder(add, eigen_dims, joint_dims):
    import numpy as np
    from envq import microscopic, qcore

    for d in eigen_dims:
        h = random_hermitian(np.random.default_rng(400 + d), d)
        add(lambda h=h: qcore.hermitian_eigensystem(h), layer="hermitian_eigensystem", dim=d)
    for ds, de in joint_dims:
        rng = np.random.default_rng(500 + ds * de)
        model = microscopic.random_joint_model(ds, de, rng)
        commuting = microscopic.random_joint_model(ds, de, rng, commuting=True)
        rho0 = qcore.random_state(ds, rng)
        dims = {"dim_s": ds, "dim_e": de}
        add(lambda model=model: model.unitary(ORACLE_T), layer="unitary", **dims)
        add(lambda model=model, rho0=rho0: microscopic.quantumness_direct(model, rho0, ORACLE_T),
            layer="quantumness_direct", **dims)
        add(lambda model=model, rho0=rho0: microscopic.quantumness_via_dual(model, rho0, ORACLE_T),
            layer="quantumness_via_dual", **dims)
        add(lambda commuting=commuting: microscopic.hamiltonian_ensemble_reduction(commuting),
            layer="ensemble_reduction", **dims)


def cli_ladder(add):
    import tempfile
    from envq import acceptance, cli, config

    add(cli.build_parser, layer="build_parser", config=None)
    with tempfile.TemporaryDirectory() as tmp:
        for out in acceptance._write_verify_bundle(tmp):
            cfg_path = out[:-len(".csv")] + ".cfg"
            name = os.path.basename(cfg_path)[:-len(".cfg")]
            argv = ["sweep" if "sweep" in name else "qt", "--config", cfg_path, "--out", out]
            add(lambda argv=argv: cli.run(argv), layer="cli_run", config=name)
            add(lambda path=cfg_path: config.load_config(path), layer="load_config", config=name)
            cfg = config.load_config(cfg_path)
            add(lambda cfg=cfg: config.build_model(cfg), layer="build_model", config=name)


# topic: (ladder, its arguments after the row recorder, and those in smoke mode)
TOPICS = {
    "lindblad": (ladder, (DIMS, True, LARGE_DIMS), (SMOKE_DIMS, False)),
    "stochastic": (stochastic_ladder, (STOCHASTIC_DIMS,), (SMOKE_DIMS,)),
    "renewal": (renewal_ladder, (RENEWAL_DIMS, RENEWAL_T_MAX), (SMOKE_DIMS, SMOKE_RENEWAL_T_MAX)),
    "cli": (cli_ladder, (), ()),
    "oracle": (oracle_ladder, (EIGEN_DIMS, JOINT_DIMS), (SMOKE_DIMS, JOINT_DIMS[:2])),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", choices=tuple(TOPICS), default="lindblad")
    parser.add_argument("--smoke", action="store_true",
                        help="d <= 4 (joint dimension <= 8), no oscillator, one repeat; "
                             "print the JSON instead of writing it")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the envq package to time")
    parser.add_argument("--out", help="output file (default BENCH_<topic>.json at the root)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import scipy
    run, full, smoke = TOPICS[args.topic]
    rows = []
    run(functools.partial(add_row, rows, 1 if args.smoke else REPEATS),
        *(smoke if args.smoke else full))
    record = {
        "topic": args.topic,
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
        with open(args.out or os.path.join(ROOT, f"BENCH_{args.topic}.json"), "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
