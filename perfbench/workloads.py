"""Seeded task generators for the four benchmark workloads.

A task is one user request, for example "Q_t on this grid plus D_Q for
this model".  ``run`` does the request through envq's public API and
``check`` compares its output with an independent reference route.

Tasks come in rounds.  ``make_round(workload, seed, index, workdir)`` is a
pure function of its arguments: the same seed gives the same inputs.
Each round holds a fixed mix of task types, and the task sizes are
chosen so that every latency class is a block of near-equal tasks; the
median then falls inside the small-model block and the 90th percentile
inside the large-model block, never on the edge between two blocks.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from envq import cli, dynamics, microscopic, models, qcore, quantumness, stochastic

import refs

WORKLOADS = ("lindblad", "classical-noise", "renewal-series", "cli-batch")

# acceptance tolerances
TOL_PAIRING = 1e-10      # q_series against the trace pairing, oracle direct vs dual
TOL_CLOSED = 1e-8        # builtins against their closed forms, D_Q against the stationary route
TOL_PINNED_PATH = 1e-12  # Q = 1 for classical-noise runs, per path
TOL_PINNED_SERIES = 1e-9 # Q = 1 for unital collisional series
TOL_QUADRATURE = 5e-4    # renewal series against the renewal law (product-trapezoid error)
TOL_CSV = 1e-11          # relative: the CLI writes 12 significant digits
STDERR_FLOOR = 1e-12     # Monte Carlo checks at t = 0, where the stderr vanishes
# Monte Carlo gates sit at six exact standard errors: one evaluation of the
# benchmark makes about 10^4 such comparisons, and at three a correct
# program would miss about one in 400.
MC_SIGMAS = 6.0
TOL_CLI_SERIES = 1e-8    # the CLI series runs at envq's default renewal tail tolerance

SERIES_TAIL_TOL = 1e-11  # renewal tail closed well below the pinned 1e-9 series tolerance


@dataclass
class Task:
    kind: str
    props: dict
    run: object = field(repr=False)
    check: object = field(repr=False)


def _rng(workload, seed, index):
    return np.random.default_rng([WORKLOADS.index(workload), int(seed) % 2 ** 63, index])


def _grid(kind, t_max, n):
    if kind == "uniform":
        return np.linspace(0.0, t_max, n)
    return np.concatenate([[0.0], np.geomspace(t_max / 50.0, t_max, n - 1)])


def _herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = 0.5 * (m + m.conj().T)
    return m / np.linalg.norm(m, 2)


def _state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _pure_bloch(theta, phi):
    v = qcore.bloch_vector_state(theta, phi)
    return np.outer(v, v.conj())


def _bloch_components(rho):
    return np.trace(qcore.sigma_z @ rho).real, np.trace(qcore.sigma_y @ rho).real


# ---------------------------------------------------------------------------
# lindblad: random models on the dimension ladder, builtins, the oscillator

# column-sum norm of every random generator, so that the expm work per time
# point is the same for every seed
GENERATOR_NORM = 4.0


def _random_lindblad(rng, d, n_jumps=2):
    h = _herm(rng, d)
    jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0 * d)
             for _ in range(n_jumps)]
    rates = rng.uniform(0.3, 1.0, size=n_jumps)
    scale = GENERATOR_NORM / np.abs(refs.lindblad_matrix(h, jumps, rates)).sum(axis=0).max()
    return scale * h, jumps, scale * rates


def _lindblad_random_task(rng, d, n_points, grid, batch=False):
    h, jumps, rates = _random_lindblad(rng, d)
    times = _grid(grid, 2.0, n_points)
    states = [_state(rng, d) for _ in range(3 if batch else 1)]

    def run():
        model = dynamics.LindbladModel(h, jumps, rates=rates)
        if batch:
            xs = quantumness.q_functional_series(model, times)
            values = [[np.trace(r @ x).real for x in xs] for r in states]
        else:
            values = [quantumness.q_series(model, qcore.QuantumState(states[0]), times).values]
        report = quantumness.degree_of_quantumness(model)
        return np.asarray(values), report.dq

    def check(out, chk):
        values, dq = out
        model = dynamics.LindbladModel(h, jumps, rates=rates)
        if batch:
            ref = quantumness.q_series(model, qcore.QuantumState(states[0]), times).values
        else:
            xs = quantumness.q_functional_series(model, times)
            ref = [np.trace(states[0] @ x).real for x in xs]
        chk.close("q-vs-pairing", values[0], ref, TOL_PAIRING)
        chk.bounded("q-bounds", values, 0.0, d)
        chk.close("dq-vs-stationary", dq, refs.degree(refs.stationary_state(h, jumps, rates)),
                  TOL_CLOSED)

    route = "functional" if batch else "series"
    return Task("random-lindblad", {"dim": d, "grid": grid, "points": n_points, "route": route},
                run, check)


def _thermal_task(rng, n_points, grid):
    p = models.ThermalTlsParams(rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0))
    theta, phi = rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2.0 * np.pi)
    rho0 = _pure_bloch(theta, phi)
    times = _grid(grid, 4.0, n_points)

    def run():
        model = p.lindblad_model()
        series = quantumness.q_series(model, qcore.QuantumState(rho0), times)
        return series.values, quantumness.degree_of_quantumness(model).dq

    def check(out, chk):
        chk.close("q-vs-closed", out[0], models.thermal_q(p, np.cos(theta), times), TOL_CLOSED)
        chk.close("dq-vs-closed", out[1], models.thermal_dq(p), TOL_CLOSED)

    return Task("thermal-tls", {"dim": 2, "grid": grid, "points": n_points}, run, check)


def _fluorescence_task(rng, n_points, grid):
    p = models.FluorescenceParams(rng.uniform(0.5, 1.5), rng.uniform(0.1, 3.0))
    rho0 = _pure_bloch(rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2.0 * np.pi))
    times = _grid(grid, 6.0, n_points)

    def run():
        model = p.lindblad_model()
        series = quantumness.q_series(model, qcore.QuantumState(rho0), times)
        return series.values, quantumness.degree_of_quantumness(model).dq

    def check(out, chk):
        sz0, sy0 = _bloch_components(rho0)
        chk.close("q-vs-closed", out[0], models.fluorescence_q(p, sz0, sy0, times), TOL_CLOSED)
        chk.close("dq-vs-closed", out[1], models.fluorescence_dq(p)[0], TOL_CLOSED)

    return Task("fluorescence", {"dim": 2, "grid": grid, "points": n_points}, run, check)


def _two_qubit_task(rng, n_points, grid):
    p = models.TwoQubitParams(rng.uniform(0.5, 1.5), rng.uniform(0.2, 3.0))
    times = _grid(grid, 4.0, n_points)

    def run():
        model = p.lindblad_model()
        rho0 = models.twoqubit_report(p).propagation_state()
        series = quantumness.q_series(model, rho0, times)
        return series.values, quantumness.degree_of_quantumness(model).dq

    def check(out, chk):
        chk.close("q-vs-closed", out[0], models.twoqubit_q_closed(p, times), TOL_CLOSED)
        chk.close("dq-vs-closed", out[1], models.twoqubit_report(p).dq, TOL_CLOSED)

    return Task("two-qubit", {"dim": 4, "grid": grid, "points": n_points}, run, check)


def _oscillator_params(rng, n_max):
    # narrow ranges: the sparse propagation cost follows the generator norm
    return models.OscillatorParams(rng.uniform(0.7, 0.75), rng.uniform(2.8, 2.9), n_max)


def _oscillator_numeric_task(rng, cutoff, n_points, grid):
    p = _oscillator_params(rng, cutoff)
    times = _grid(grid, 1.0, n_points)

    def run():
        ground = qcore.QuantumState.pure(qcore.ket(p.dim, 0))
        return models.oscillator_q_numeric(p, ground, times)

    def check(out, chk):
        exact = models.oscillator_q(p, times)
        chk.close("q-vs-analytic", out, exact, TOL_CLOSED * exact)

    return Task("oscillator-numeric", {"dim": cutoff + 1, "grid": grid, "points": n_points},
                run, check)


def _oscillator_extrapolated_task(rng, n_points, grid):
    p = _oscillator_params(rng, 61)
    times = _grid(grid, 1.0, n_points)

    def run():
        return models.oscillator_q_extrapolated(p, times, cutoffs=(41, 51, 61))

    def check(out, chk):
        exact = models.oscillator_q(p, times)
        chk.close("q-vs-analytic", out, exact, TOL_CLOSED * exact)

    return Task("oscillator-extrapolated", {"dim": 62, "grid": grid, "points": n_points},
                run, check)


# points per oscillator cutoff, sized to stay below the d = 12 tasks
_OSC_POINTS = {41: 13, 51: 9, 61: 7}


def _lindblad_round(rng, index):
    u, lg = "uniform", "log"
    cutoff = (41, 51, 61)[index % 3]
    return [
        # small block: d = 2, then d = 4
        _lindblad_random_task(rng, 2, 121, u),
        _lindblad_random_task(rng, 2, 121, lg),
        _thermal_task(rng, 121, u),
        _thermal_task(rng, 121, lg),
        _fluorescence_task(rng, 121, u),
        _fluorescence_task(rng, 121, lg),
        _lindblad_random_task(rng, 4, 61, u),
        _lindblad_random_task(rng, 4, 61, u),
        _lindblad_random_task(rng, 4, 61, lg),
        _lindblad_random_task(rng, 4, 61, u, batch=True),
        _lindblad_random_task(rng, 4, 61, u, batch=True),
        _lindblad_random_task(rng, 4, 61, lg, batch=True),
        _two_qubit_task(rng, 61, u),
        _two_qubit_task(rng, 61, lg),
        # the truncated oscillator, sized below the d = 12 tasks
        _oscillator_numeric_task(rng, cutoff, _OSC_POINTS[cutoff], (u, lg)[index % 2]),
        _oscillator_extrapolated_task(rng, 3, (lg, u)[index % 2]),
        # large block, holds the 90th percentile: dense d = 12 on one grid shape
        _lindblad_random_task(rng, 12, 15, u),
        _lindblad_random_task(rng, 12, 15, u),
        # tail: sparse d = 24
        _lindblad_random_task(rng, 24, 3, (u, lg)[index % 2]),
    ]


# ---------------------------------------------------------------------------
# classical-noise: stochastic Hamiltonians and collisional Monte Carlo

NOISE_DT = 0.02
NOISE_TIMES = np.linspace(0.0, 2.0, 11)


def _noise_setup(rng, family, commuting):
    omega = rng.uniform(0.5, 1.5)
    amplitude = rng.uniform(0.4, 0.8)
    tau = 0.0 if family == "gaussian-white" else rng.uniform(0.4, 0.6)
    if commuting:
        h0, coupling = 0.5 * omega * qcore.sigma_z, qcore.sigma_z
    else:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        h0 = 0.5 * omega * qcore.sigma_z + rng.uniform(0.2, 0.5) * qcore.sigma_x
        coupling = np.cos(angle) * qcore.sigma_x + np.sin(angle) * qcore.sigma_y
    return omega, amplitude, tau, h0, coupling


def _stochastic_q_task(rng, family, commuting, n_paths):
    omega, amplitude, tau, h0, coupling = _noise_setup(rng, family, commuting)
    rho0 = _state(rng, 2)
    mc_seed = int(rng.integers(2 ** 31))

    def run():
        process = stochastic.NoiseProcess(family, amplitude, tau, coupling)
        return stochastic.stochastic_q(process, h0, qcore.QuantumState(rho0), NOISE_TIMES,
                                       n_paths, mc_seed, dt=NOISE_DT)

    def check(out, chk):
        series, stderr = out
        chk.close("q-pinned", series.values, np.ones(NOISE_TIMES.size), TOL_PINNED_PATH)
        chk.close("path-spread", stderr, np.zeros(NOISE_TIMES.size), TOL_PINNED_PATH)

    return Task("stochastic-q", _noise_props(family, commuting, n_paths), run, check)


def _noise_props(family, commuting, n_paths):
    return {"noise": family, "coupling": "commuting" if commuting else "non-commuting",
            "paths": n_paths}


def _average_state_task(rng, family, commuting, n_paths):
    omega, amplitude, tau, h0, coupling = _noise_setup(rng, family, commuting)
    rho0 = _state(rng, 2)
    mc_seed = int(rng.integers(2 ** 31))

    def run():
        process = stochastic.NoiseProcess(family, amplitude, tau, coupling)
        return stochastic.stochastic_average_state(
            process, h0, qcore.QuantumState(rho0), NOISE_TIMES, n_paths, mc_seed, dt=NOISE_DT)

    def check(out, chk):
        states, _ = out
        if commuting:
            factor = refs.dephasing_factor(family, amplitude, tau, NOISE_TIMES)
            exact = refs.dephased_states(rho0, omega, factor, NOISE_TIMES)
        else:  # white noise: the Lindblad limit with jump = coupling, rate = amplitude^2
            exact = refs.lindblad_states(h0, [coupling], [amplitude ** 2], rho0, NOISE_TIMES)
        # a traceless 2x2 deviation has trace distance |delta|_F / sqrt(2)
        tol = MC_SIGMAS / np.sqrt(2.0) * refs.ensemble_stderr(rho0, exact, n_paths)
        chk.states_close("state-vs-limit", states, exact, tol + STDERR_FLOOR)

    return Task("stochastic-average-state", _noise_props(family, commuting, n_paths), run, check)


def _amplitude_damping(damping):
    return [np.diag([1.0, np.sqrt(1.0 - damping)]).astype(complex),
            np.sqrt(damping) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]


def _waiting(rng, family):
    if family == "exponential":
        return stochastic.WaitingTime("exponential", rate=1.0)
    if family == "gamma":
        return stochastic.WaitingTime("gamma", rate=2.0, shape=2.0)
    return stochastic.WaitingTime("deterministic", period=rng.uniform(0.55, 0.75))


def _collision_setup(rng, family, unital):
    waiting = _waiting(rng, family)
    if unital:
        h = 0.5 * rng.uniform(0.5, 1.5) * qcore.sigma_z + rng.uniform(0.1, 0.4) * qcore.sigma_x
        u1 = qcore.matrix_exponential(-1j * _herm(rng, 2))
        u2 = qcore.matrix_exponential(-1j * _herm(rng, 2))
        w = rng.uniform(0.2, 0.8)
        kraus, damping = [np.sqrt(w) * u1, np.sqrt(1.0 - w) * u2], None
    else:
        h = 0.5 * rng.uniform(0.5, 1.5) * qcore.sigma_z
        damping = rng.uniform(0.2, 0.6)
        kraus = _amplitude_damping(damping)
    return waiting, h, kraus, damping


def _collisional_task(rng, mode, family, unital, t_max, n_paths=None, steps_per_mean=100):
    waiting, h, kraus, damping = _collision_setup(rng, family, unital)
    rho0 = _state(rng, 2)
    times = np.linspace(0.0, t_max, 13)
    mc_seed = int(rng.integers(2 ** 31))
    step = None if family == "deterministic" else waiting.mean() / steps_per_mean

    def run():
        model = stochastic.CollisionalModel(h, kraus, waiting)
        if mode == "series":
            return stochastic.collisional_q(model, qcore.QuantumState(rho0), times,
                                            mode="series", step=step,
                                            tail_tol=SERIES_TAIL_TOL).values
        return stochastic.collisional_q(model, qcore.QuantumState(rho0), times,
                                        mode="monte-carlo", n_paths=n_paths, seed=mc_seed).values

    def check(out, chk):
        if unital:
            tol = TOL_PINNED_SERIES if mode == "series" else TOL_PINNED_PATH
            chk.close("q-pinned", out, np.ones(times.size), tol)
            return
        p0, p1 = rho0[0, 0].real, rho0[1, 1].real
        if mode == "series":
            tol = TOL_PINNED_SERIES if family == "deterministic" else TOL_QUADRATURE
            chk.close("q-vs-renewal", out,
                      refs.amplitude_damping_q(waiting, damping, p0, p1, times), tol)
        else:
            exact, stderr = refs.amplitude_damping_q(waiting, damping, p0, p1, times, n_paths)
            chk.close("q-vs-renewal", out, exact, MC_SIGMAS * stderr + STDERR_FLOOR)

    props = {"mode": mode, "waiting": family, "collision": "unital" if unital else "damping",
             "t_max": t_max}
    if n_paths:
        props["paths"] = n_paths
    return Task("collisional-" + mode, props, run, check)


# paths per task type, sized so the small tasks take about the same time
_NOISE_PATHS = {
    ("gaussian-white", True): 30, ("gaussian-white", False): 10,
    ("ornstein-uhlenbeck", True): 30, ("ornstein-uhlenbeck", False): 10,
    ("telegraph", True): 60, ("telegraph", False): 40,
}
_MC_PATHS = 120
_LARGE = 3


def _classical_noise_round(rng, index):
    tasks = []
    families = ("gaussian-white", "ornstein-uhlenbeck", "telegraph")
    for family in families:
        for commuting in (True, False):
            tasks.append(_stochastic_q_task(rng, family, commuting,
                                            _NOISE_PATHS[family, commuting]))
    for family, commuting in (("gaussian-white", True), ("gaussian-white", False),
                              ("ornstein-uhlenbeck", True), ("telegraph", True)):
        tasks.append(_average_state_task(rng, family, commuting, _NOISE_PATHS[family, commuting]))
    for waiting in ("exponential", "gamma"):
        for unital in (True, False):
            tasks.append(_collisional_task(rng, "monte-carlo", waiting, unital, 3.0, _MC_PATHS))
    # large block: the same requests with three times the paths
    tasks += [
        _stochastic_q_task(rng, "gaussian-white", False,
                           _LARGE * _NOISE_PATHS["gaussian-white", False]),
        _stochastic_q_task(rng, "ornstein-uhlenbeck", False,
                           _LARGE * _NOISE_PATHS["ornstein-uhlenbeck", False]),
        _average_state_task(rng, "gaussian-white", False,
                            _LARGE * _NOISE_PATHS["gaussian-white", False]),
        _collisional_task(rng, "monte-carlo", "exponential", False, 3.0, _LARGE * _MC_PATHS),
    ]
    return tasks


# ---------------------------------------------------------------------------
# renewal-series: deterministic collisional series and the Volterra solver

def _lorentzian(gamma, tau_c):
    return lambda t: (gamma / (2.0 * tau_c)) * np.exp(-np.abs(t) / tau_c)


def _nonmarkov_task(rng, t_max):
    gamma, tau_c = rng.uniform(0.5, 1.5), rng.uniform(0.4, 0.5)
    sz0 = rng.uniform(-1.0, 1.0)
    times = np.linspace(0.0, t_max, 31)

    def run():
        p = models.NonMarkovParams(gamma, tau_c, kernel="tabulated",
                                   kernel_func=_lorentzian(gamma, tau_c))
        return models.nonmarkov_q(p, sz0, times)

    def check(out, chk):
        closed = models.nonmarkov_q(models.NonMarkovParams(gamma, tau_c), sz0, times)
        chk.close("q-vs-closed", out, closed, TOL_CLOSED)

    return Task("nonmarkov-tabulated", {"kernel": "tabulated", "t_max": t_max}, run, check)


def _renewal_round(rng, index):
    series = "series"
    return [
        _collisional_task(rng, series, "deterministic", True, 3.0),
        _collisional_task(rng, series, "deterministic", False, 3.0),
        _collisional_task(rng, series, "deterministic", True, 6.0),
        _collisional_task(rng, series, "deterministic", False, 6.0),
        _nonmarkov_task(rng, 3.0),
        _nonmarkov_task(rng, 3.0),
        _nonmarkov_task(rng, 6.0),
        _nonmarkov_task(rng, 6.0),
        # middle block, holds the median: t <= 3 series
        _collisional_task(rng, series, "gamma", True, 3.0),
        _collisional_task(rng, series, "gamma", False, 3.0),
        _collisional_task(rng, series, "gamma", True, 3.0),
        _collisional_task(rng, series, "gamma", False, 3.0),
        _collisional_task(rng, series, "exponential", True, 3.0),
        _collisional_task(rng, series, "exponential", False, 3.0),
        _collisional_task(rng, series, "exponential", True, 3.0),
        _collisional_task(rng, series, "exponential", False, 3.0),
        # large block, holds the 90th percentile: t <= 6 damping series
        _collisional_task(rng, series, "gamma", False, 6.0),
        _collisional_task(rng, series, "exponential", False, 6.0),
        _collisional_task(rng, series, "exponential", False, 6.0),
        # tail: a unital t <= 6 series on the finer grid its 1e-9 pin needs
        _collisional_task(rng, series, ("exponential", "gamma")[index % 2], True, 6.0,
                          steps_per_mean=200),
    ]


# ---------------------------------------------------------------------------
# cli-batch: generated config files run in process through cli.run

def _fmt(m):
    return qcore.format_matrix_text(m)


def _read_csv(path):
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return np.array([[float(x) for x in row] for row in rows])


def _read_report(path):
    with open(path) as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines())


def _cli_task(workdir, name, command, text, check, props):
    cfg = os.path.join(workdir, name + ".cfg")
    out = os.path.join(workdir, name + ".out")
    with open(cfg, "w") as fh:
        fh.write(text)

    def run():
        code = cli.run([command, "--config", cfg, "--out", out])
        if code != 0:
            raise RuntimeError(f"envq {command} exited with {code}")
        return out

    props = dict(props, command=command)
    return Task("cli-" + command, props, run, check)


def _times_block(t_max, steps):
    return f"\n[times]\nt_max = {t_max!r}\nsteps = {steps}\n"


def _builtin_block(name, params):
    lines = "".join(f"{k} = {v!r}\n" for k, v in params.items())
    return f"[model]\ntype = {name}\n{lines}"


def _sweep_block(param, values):
    return f"\n[sweep]\nparam = {param}\nvalues = {' '.join(repr(v) for v in values)}\n"


def _numeric_dq(model):
    return refs.degree(refs.stationary_state(model.h_bar, model.jump_ops, np.diag(model.rates).real))


def _stationary_sweep(cls, params):
    def reference(param, value):
        return _numeric_dq(cls(**dict(params, **{param: value})).lindblad_model())
    return reference


def _cli_builtin_tasks(rng, workdir, tag):
    """qt, dq and sweep for every builtin, with closed-form or stationary references."""
    tasks = []
    theta, phi = rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2.0 * np.pi)
    pure = f"\n[initial_state]\nkind = pure\ntheta = {theta!r}\nphi = {phi!r}\n"
    optimal = "\n[initial_state]\nkind = optimal\n"
    sweep_values = [float(v) for v in np.round(np.linspace(0.2, 3.0, 15), 6)]

    def qt_check(reference, rel=False):
        def check(path, chk):
            data = _read_csv(path)
            ref = reference(data[:, 0])
            chk.close("csv-vs-closed", data[:, 1], ref,
                      TOL_CLOSED * (np.abs(ref) if rel else 1.0))
        return check

    def dq_check(key, reference):
        def check(path, chk):
            chk.close("dq-vs-closed", float(_read_report(path)[key]), reference(), TOL_CLOSED)
        return check

    def sweep_check(param, reference):
        def check(path, chk):
            data = _read_csv(path)
            chk.close("sweep-vs-stationary", data[:, 1], [reference(param, v) for v in data[:, 0]],
                      TOL_CLOSED)
        return check

    # thermal two-level system
    tp = {"gamma": rng.uniform(0.5, 1.5), "beta_hw0": rng.uniform(0.5, 3.0)}
    p_th = models.ThermalTlsParams(**tp)
    tasks.append(_cli_task(workdir, f"thermal-qt-{tag}", "qt",
                           _builtin_block("thermal-tls", tp) + pure + _times_block(6.0, 101),
                           qt_check(lambda t: models.thermal_q(p_th, np.cos(theta), t)),
                           {"model": "thermal-tls"}))
    tasks.append(_cli_task(workdir, f"thermal-dq-{tag}", "dq", _builtin_block("thermal-tls", tp),
                           dq_check("dq", lambda: models.thermal_dq(p_th)), {"model": "thermal-tls"}))

    # fluorescence
    fp = {"gamma": rng.uniform(0.5, 1.5), "omega": rng.uniform(0.1, 3.0)}
    p_fl = models.FluorescenceParams(**fp)
    rho_fl = _pure_bloch(theta, phi)
    sz0, sy0 = _bloch_components(rho_fl)
    tasks.append(_cli_task(workdir, f"fluorescence-qt-{tag}", "qt",
                           _builtin_block("fluorescence", fp) + pure + _times_block(6.0, 101),
                           qt_check(lambda t: models.fluorescence_q(p_fl, sz0, sy0, t)),
                           {"model": "fluorescence"}))
    tasks.append(_cli_task(workdir, f"fluorescence-dq-{tag}", "dq", _builtin_block("fluorescence", fp),
                           dq_check("dq", lambda: models.fluorescence_dq(p_fl)[0]),
                           {"model": "fluorescence"}))
    # two qubits
    qp = {"gamma": rng.uniform(0.5, 1.5), "omega": rng.uniform(0.2, 3.0)}
    p_tq = models.TwoQubitParams(**qp)
    tasks.append(_cli_task(workdir, f"two-qubit-qt-{tag}", "qt",
                           _builtin_block("two-qubit", qp) + optimal + _times_block(4.0, 41),
                           qt_check(lambda t: models.twoqubit_q_closed(p_tq, t)),
                           {"model": "two-qubit"}))
    tasks.append(_cli_task(workdir, f"two-qubit-dq-{tag}", "dq", _builtin_block("two-qubit", qp),
                           dq_check("dq", lambda: models.twoqubit_report(p_tq).dq),
                           {"model": "two-qubit"}))
    for name, cls, param, params in (("thermal-tls", models.ThermalTlsParams, "beta_hw0", tp),
                                     ("fluorescence", models.FluorescenceParams, "omega", fp),
                                     ("two-qubit", models.TwoQubitParams, "omega", qp)):
        tasks.append(_cli_task(workdir, f"{name}-sweep-{tag}", "sweep",
                               _builtin_block(name, params) + _sweep_block(param, sweep_values),
                               sweep_check(param, _stationary_sweep(cls, params)),
                               {"model": name}))
    # non-Markovian decay: the closed form against the Volterra route
    np_ = {"gamma": rng.uniform(0.5, 1.5), "tau_c": rng.uniform(0.4, 0.5)}

    def volterra_q(t):
        p = models.NonMarkovParams(kernel="tabulated",
                                   kernel_func=_lorentzian(np_["gamma"], np_["tau_c"]), **np_)
        return models.nonmarkov_q(p, np.cos(theta), t)

    tasks.append(_cli_task(workdir, f"nonmarkov-qt-{tag}", "qt",
                           _builtin_block("nonmarkov-decay", np_) + pure + _times_block(6.0, 61),
                           qt_check(volterra_q), {"model": "nonmarkov-decay"}))
    tasks.append(_cli_task(workdir, f"nonmarkov-dq-{tag}", "dq", _builtin_block("nonmarkov-decay", np_),
                           dq_check("dq", lambda: 1.0), {"model": "nonmarkov-decay"}))
    tasks.append(_cli_task(workdir, f"nonmarkov-sweep-{tag}", "sweep",
                           _builtin_block("nonmarkov-decay", np_) + _sweep_block("gamma", sweep_values),
                           sweep_check("gamma", lambda param, v: 1.0), {"model": "nonmarkov-decay"}))
    # truncated oscillator: analytic growth and the Boltzmann-ladder eigenvalue
    op = {"gamma": rng.uniform(0.7, 0.75), "beta_hw0": rng.uniform(2.8, 2.9), "n_max": 41}
    p_os = models.OscillatorParams(**op)

    def ladder_degree(beta):
        w = np.exp(-beta * np.arange(op["n_max"] + 1))
        return np.max(w / w.sum())

    tasks.append(_cli_task(workdir, f"oscillator-qt-{tag}", "qt",
                           _builtin_block("oscillator", op) + optimal + _times_block(1.0, 11),
                           qt_check(lambda t: models.oscillator_q(p_os, t), rel=True),
                           {"model": "oscillator"}))
    tasks.append(_cli_task(workdir, f"oscillator-dq-{tag}", "dq", _builtin_block("oscillator", op),
                           dq_check("dq_renormalized", lambda: ladder_degree(op["beta_hw0"])),
                           {"model": "oscillator"}))
    tasks.append(_cli_task(workdir, f"oscillator-sweep-{tag}", "sweep",
                           _builtin_block("oscillator", op)
                           + _sweep_block("beta_hw0", [v + 1.0 for v in sweep_values]),
                           sweep_check("beta_hw0", lambda param, v: ladder_degree(v)),
                           {"model": "oscillator"}))
    return tasks


def _cli_block_tasks(rng, workdir, tag):
    """lindblad, microscopic, collisional and stochastic blocks."""
    tasks = []
    # lindblad block, d = 3
    h, jumps, rates = _random_lindblad(rng, 3)
    rho0 = _state(rng, 3)
    text = (f"[model]\ntype = lindblad\nh_bar = {_fmt(h)}\n"
            + "".join(f"jump_{k + 1} = {_fmt(v)}\n" for k, v in enumerate(jumps))
            + f"rates = {_fmt(np.asarray(rates)[None, :])}\n")
    state = f"\n[initial_state]\nkind = matrix\nmatrix = {_fmt(rho0)}\n"

    def lindblad_qt_check(path, chk):
        data = _read_csv(path)
        model = dynamics.LindbladModel(h, jumps, rates=rates)
        ref = np.array([np.trace(rho0 @ x).real
                        for x in quantumness.q_functional_series(model, data[:, 0])])
        chk.close("csv-vs-pairing", data[:, 1], ref, _csv_tol(ref))

    def lindblad_dq_check(path, chk):
        chk.close("dq-vs-stationary", float(_read_report(path)["dq"]),
                  refs.degree(refs.stationary_state(h, jumps, rates)), TOL_CLOSED)

    tasks.append(_cli_task(workdir, f"lindblad-qt-{tag}", "qt", text + state + _times_block(3.0, 41),
                           lindblad_qt_check, {"model": "lindblad", "dim": 3}))
    tasks.append(_cli_task(workdir, f"lindblad-dq-{tag}", "dq", text, lindblad_dq_check,
                           {"model": "lindblad", "dim": 3}))
    # microscopic block: the dual route in the CLI against the direct route
    jm = microscopic.random_joint_model(2, 4, rng)
    rho_s = _state(rng, 2)
    text = (f"[model]\ntype = microscopic\nh_s = {_fmt(jm.h_s)}\nh_e = {_fmt(jm.h_e)}\n"
            f"h_i = {_fmt(jm.h_i)}\nsigma0 = {_fmt(jm.sigma0.matrix)}\n"
            f"\n[initial_state]\nkind = matrix\nmatrix = {_fmt(rho_s)}\n")

    def oracle_check(path, chk):
        data = _read_csv(path)
        model = microscopic.JointModel(jm.h_s, jm.h_e, jm.h_i, jm.sigma0)
        direct = np.array([microscopic.quantumness_direct(model, rho_s, t) for t in data[:, 0]])
        chk.close("dual-vs-direct", data[:, 1], direct, _csv_tol(direct))

    tasks.append(_cli_task(workdir, f"microscopic-qt-{tag}", "qt", text + _times_block(4.0, 41),
                           oracle_check, {"model": "microscopic", "dim": 2}))
    # unital collisional blocks, series and Monte Carlo
    for mode, t_max in (("series", 2.0), ("monte-carlo", 2.5)):
        waiting, hc, kraus, _ = _collision_setup(rng, "exponential", True)
        text = (f"[model]\ntype = collisional\nfree_hamiltonian = {_fmt(hc)}\n"
                + "".join(f"kraus_{k + 1} = {_fmt(t)}\n" for k, t in enumerate(kraus))
                + f"waiting_family = exponential\nwaiting_rate = {waiting.rate!r}\n"
                + f"\n[initial_state]\nkind = matrix\nmatrix = {_fmt(_state(rng, 2))}\n"
                + _times_block(t_max, 13)
                + f"\n[run]\nseed = {int(rng.integers(2 ** 31))}\nmode = {mode}\nn_paths = 160\n")
        tol = TOL_CLI_SERIES if mode == "series" else TOL_PINNED_PATH
        tasks.append(_cli_task(workdir, f"collisional-{mode}-{tag}", "qt", text,
                               _pinned_csv_check(tol), {"model": "collisional", "mode": mode}))
    # stochastic block
    text = (f"[model]\ntype = stochastic\nfamily = telegraph\namplitude = {rng.uniform(0.4, 0.8)!r}\n"
            f"correlation_time = {rng.uniform(0.4, 0.6)!r}\n"
            f"coupling = {_fmt(_herm(rng, 2))}\nbase_h = {_fmt(_herm(rng, 2))}\n"
            f"\n[initial_state]\nkind = matrix\nmatrix = {_fmt(_state(rng, 2))}\n"
            + _times_block(2.0, 11)
            + f"\n[run]\nseed = {int(rng.integers(2 ** 31))}\nn_paths = 64\n")
    tasks.append(_cli_task(workdir, f"stochastic-qt-{tag}", "qt", text,
                           _pinned_csv_check(TOL_PINNED_PATH),
                           {"model": "stochastic", "noise": "telegraph"}))
    return tasks


def _pinned_csv_check(tol):
    def check(path, chk):
        data = _read_csv(path)
        chk.close("csv-pinned", data[:, 1], np.ones(len(data)), max(tol, TOL_CSV))
    return check


def _csv_tol(reference):
    return TOL_CSV * np.maximum(1.0, np.abs(reference))


def _cli_round(rng, index, workdir):
    tag = f"r{index}"
    return _cli_builtin_tasks(rng, workdir, tag) + _cli_block_tasks(rng, workdir, tag)


# ---------------------------------------------------------------------------

def make_round(workload, seed, index, workdir=None):
    """Tasks of round ``index``; a pure function of (workload, seed, index)."""
    rng = _rng(workload, seed, index)
    if workload == "lindblad":
        return _lindblad_round(rng, index)
    if workload == "classical-noise":
        return _classical_noise_round(rng, index)
    if workload == "renewal-series":
        return _renewal_round(rng, index)
    if workload == "cli-batch":
        return _cli_round(rng, index, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_task(workload, seed, workdir=None):
    """One small task of the workload, run once before timing starts."""
    rng = _rng(workload, seed, 2 ** 32 - 1)
    if workload == "lindblad":
        return _thermal_task(rng, 21, "uniform")
    if workload == "classical-noise":
        return _stochastic_q_task(rng, "telegraph", True, 4)
    if workload == "renewal-series":
        return _collisional_task(rng, "series", "deterministic", False, 3.0)
    if workload == "cli-batch":
        return _cli_builtin_tasks(rng, workdir, "warmup")[1]
    raise ValueError(f"unknown workload {workload!r}")
