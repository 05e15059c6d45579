"""Acceptance suite: one callable per criterion, shared by pytest and
the ``envq verify`` subcommand.

Every check here pins its tolerance explicitly; a criterion either
passes against those numbers or reports the measured margin.  The
determinism criterion drives the real command-line entry points twice
and byte-compares the emitted CSV files.
"""

import dataclasses
import filecmp
import os
import tempfile

import numpy as np
import scipy.linalg

from . import cli, dynamics, microscopic, models, qcore, quantumness, stochastic
from .qcore import QuantumState


@dataclasses.dataclass
class Result:
    index: int
    name: str
    passed: bool
    detail: str


def format_result(r):
    tag = "PASS" if r.passed else "FAIL"
    return f"{tag}  {r.index:2d}  {r.name}: {r.detail}"


def _result(index, name, checks):
    """Collapse (label, ok, margin_text) triples into one Result line."""
    failed = [c for c in checks if not c[1]]
    detail = "; ".join(f"{label} {text}" for label, ok, text in checks)
    return Result(index, name, not failed, detail)


# ---------------------------------------------------------------------------
# 1. microscopic oracle identity

def criterion_oracle_identity(n_models=50):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(n_models):
        dim_s = int(rng.integers(2, 4))
        dim_e = int(rng.integers(2, 9))
        jm = microscopic.random_joint_model(dim_s, dim_e, rng)
        rho0 = qcore.random_state(dim_s, rng)
        for t in rng.uniform(0.0, 4.0, size=20):
            diff = abs(
                microscopic.quantumness_direct(jm, rho0, t)
                - microscopic.quantumness_via_dual(jm, rho0, t)
            )
            worst = max(worst, diff)
    return _result(1, "oracle-identity", [
        ("direct-vs-dual", worst <= 1e-10, f"max|diff|={worst:.2e} (tol 1e-10)"),
    ])


# ---------------------------------------------------------------------------
# 2. thermal two-level system

def criterion_thermal():
    rng = np.random.default_rng(102)
    worst_series = worst_dq = 0.0
    for beta in (0.25, 0.5, 1.0, 2.0, 5.0):
        p = models.ThermalTlsParams(gamma=1.0, beta_hw0=beta)
        m = p.lindblad_model()
        times = np.linspace(0.0, 10.0, 41)
        for _ in range(20):
            rho0 = qcore.random_state(2, rng)
            sz0 = quantumness.trace_pairing(rho0.matrix, qcore.sigma_z)
            series = quantumness.q_series(m, rho0, times)
            worst_series = max(
                worst_series, np.abs(series.values - models.thermal_q(p, sz0, times)).max()
            )
        worst_dq = max(worst_dq, abs(quantumness.degree_of_quantumness(m).dq - models.thermal_dq(p)))
    lim_cold = abs(models.thermal_dq(models.ThermalTlsParams(1.0, 20.0)) - 1.0)
    lim_hot = abs(models.thermal_dq(models.ThermalTlsParams(1.0, 1e-4)))
    return _result(2, "thermal-tls", [
        ("series-vs-closed", worst_series <= 1e-8, f"max err {worst_series:.2e}"),
        ("dq-vs-tanh", worst_dq <= 1e-10, f"max err {worst_dq:.2e}"),
        ("limits", lim_cold <= 1e-3 and lim_hot <= 1e-3,
         f"cold {lim_cold:.1e} hot {lim_hot:.1e}"),
    ])


# ---------------------------------------------------------------------------
# 3. driven decay (fluorescence)

def criterion_fluorescence():
    rng = np.random.default_rng(103)
    worst_qinf = worst_dq = 0.0
    for ga in np.linspace(0.5, 2.0, 10):
        for om in np.linspace(0.0, 3.0, 10):
            p = models.FluorescenceParams(ga, om)
            m = p.lindblad_model()
            gap = dynamics.spectral_gap(dynamics.liouvillian(m))
            t_end = 25.0 / gap
            rho0 = qcore.random_state(2, rng)
            sz0 = quantumness.trace_pairing(rho0.matrix, qcore.sigma_z)
            sy0 = quantumness.trace_pairing(rho0.matrix, qcore.sigma_y)
            q_tail = quantumness.q_series(m, rho0, np.array([0.0, t_end])).values[-1]
            worst_qinf = max(worst_qinf, abs(q_tail - models.fluorescence_q_infinity(p, sz0, sy0)))
            worst_dq = max(
                worst_dq, abs(quantumness.degree_of_quantumness(m).dq - models.fluorescence_dq(p)[0])
            )
    weak = models.FluorescenceParams(1.0, 0.1)
    weak_exact = models.fluorescence_dq(weak)[0]
    weak_rel = abs(weak_exact - (1.0 - 2.0 * 0.1 ** 4)) / weak_exact
    strong = models.FluorescenceParams(1.0, 50.0)
    strong_exact = models.fluorescence_dq(strong)[0]
    strong_rel = abs(strong_exact - 1.0 / 50.0) / strong_exact
    # qualitative series shape at the optimal initial conditions
    times = np.linspace(0.0, 12.0, 481)
    q0 = models.fluorescence_q(models.FluorescenceParams(1.0, 0.0), -1.0, 0.0, times)
    monotone = np.all(np.diff(q0) >= -1e-12)
    oscillating = True
    for om in (1.0, 3.0, 5.0):
        pp = models.FluorescenceParams(1.0, om)
        szi, syi = models.fluorescence_stationary_means(pp)
        norm = np.hypot(szi, syi)
        q = models.fluorescence_q(pp, szi / norm, syi / norm, times)
        sign_changes = np.sum(np.diff(np.sign(np.diff(q))) != 0)
        oscillating = oscillating and sign_changes >= 2
    dq_seq = [models.fluorescence_dq(models.FluorescenceParams(1.0, om))[0] for om in (1.0, 2.0, 4.0, 8.0)]
    approaching = np.all(np.diff(dq_seq) < 0)
    return _result(3, "fluorescence", [
        ("Qinf-vs-propagation", worst_qinf <= 1e-8, f"max err {worst_qinf:.2e}"),
        ("dq-closed", worst_dq <= 1e-10, f"max err {worst_dq:.2e}"),
        ("weak-asymptote", weak_rel <= 0.01, f"rel {weak_rel:.1e}"),
        ("strong-asymptote", strong_rel <= 0.05, f"rel {strong_rel:.1e}"),
        ("shape", bool(monotone and oscillating and approaching),
         f"monotone@0={monotone} oscill={oscillating} Qinf->1={approaching}"),
    ])


# ---------------------------------------------------------------------------
# 4. time-domain sign arbitration

def criterion_sign_arbitration():
    rng = np.random.default_rng(104)
    worst_series = worst_inf = 0.0
    printed_margin = np.inf
    times = np.linspace(0.0, 8.0, 33)
    for om in (0.3, 0.7, 2.0):
        p = models.FluorescenceParams(1.0, om)
        m = p.lindblad_model()
        rho0 = qcore.random_state(2, rng)
        sz0 = quantumness.trace_pairing(rho0.matrix, qcore.sigma_z)
        sy0 = quantumness.trace_pairing(rho0.matrix, qcore.sigma_y)
        series = quantumness.q_series(m, rho0, times)
        closed = models.fluorescence_q(p, sz0, sy0, times)
        worst_series = max(worst_series, np.abs(series.values - closed).max())
        worst_inf = max(worst_inf, abs(
            models.fluorescence_q(p, sz0, sy0, 2000.0)
            - models.fluorescence_q_infinity(p, sz0, sy0)
        ))
        # the form printed with +sz0 is the series at -sz0
        printed = models.fluorescence_q(p, -1.0, 0.0, times)
        reference = quantumness.q_series(m, QuantumState.pure(qcore.ket(2, 0)), times)
        printed_margin = min(printed_margin, np.abs(printed - reference.values).max())
    return _result(4, "sign-arbitration", [
        ("closed-vs-propagation", worst_series <= 1e-8, f"max err {worst_series:.2e}"),
        ("stationary-integral", worst_inf <= 1e-10, f"max err {worst_inf:.2e}"),
        ("printed-variant-fails", printed_margin > 1e-3,
         f"documented margin {printed_margin:.3f}"),
    ])


# ---------------------------------------------------------------------------
# 5. two interacting qubits

def criterion_two_qubit(out_dir=None):
    worst_dq = worst_conc = worst_series = worst_reduced = 0.0
    worst_overlap = 0.0
    times = np.linspace(0.0, 8.0, 33)
    for om in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0):
        p = models.TwoQubitParams(1.0, om)
        rep = models.twoqubit_report(p)
        m = p.lindblad_model()
        numeric = quantumness.degree_of_quantumness(m)
        worst_dq = max(worst_dq, abs(numeric.dq - rep.dq))
        _, v = qcore.hermitian_eigensystem(numeric.optimal_state.matrix)
        overlap = abs(np.vdot(v[:, -1], models.twoqubit_optimal_vector(p)))
        worst_overlap = max(worst_overlap, 1.0 - overlap)
        worst_conc = max(worst_conc, abs(qcore.concurrence(rep.optimal_state.matrix)
                                         - models.twoqubit_concurrence(p)))
        series = quantumness.q_series(m, rep.propagation_state(), times)
        worst_series = max(worst_series,
                           np.abs(series.values - models.twoqubit_q_closed(p, times)).max())
        reduced_stat = qcore.partial_trace(numeric.stationary.matrix, [2, 2], keep=0)
        dq_reduced = 2.0 * np.linalg.eigvalsh(reduced_stat).max() - 1.0
        worst_reduced = max(worst_reduced, abs(dq_reduced - models.twoqubit_reduced(p).dq))
    omegas = np.linspace(0.0, 6.0, 25)
    sweep = [models.TwoQubitParams(1.0, om) for om in omegas]
    dqs = [models.twoqubit_dq(p) for p in sweep]
    concurrences = [models.twoqubit_concurrence(p) for p in sweep]
    fig2_ok = np.all(np.diff(dqs) < 0) and np.all(np.diff(concurrences) > 0)
    if out_dir is not None:
        with open(os.path.join(out_dir, "fig2_data.csv"), "w", newline="") as fh:
            fh.write(quantumness.csv_text("omega,dq,concurrence", omegas, dqs, concurrences))
    return _result(5, "two-qubit", [
        ("dq-closed", worst_dq <= 1e-10, f"max err {worst_dq:.2e}"),
        ("optimal-overlap", worst_overlap <= 1e-8, f"1-|<.|.>| {worst_overlap:.2e}"),
        ("concurrence", worst_conc <= 1e-10, f"max err {worst_conc:.2e}"),
        ("series-vs-closed", worst_series <= 1e-8, f"max err {worst_series:.2e}"),
        ("reduced-dq", worst_reduced <= 1e-10, f"max err {worst_reduced:.2e}"),
        ("fig2-trend", bool(fig2_ok), "dq falls, concurrence rises"),
    ])


# ---------------------------------------------------------------------------
# 6. non-Markovian decay

def criterion_nonmarkov():
    worst_volterra = 0.0
    for gtc in (0.1, 0.5, 2.0, 5.0):
        p = models.NonMarkovParams(gamma=1.0, tau_c=gtc)
        t_max = min(8.0, 30.0 * gtc)
        grid, c_num = models.volterra_solve(p.kernel_function(), t_max, gtc / 50.0)
        worst_volterra = max(worst_volterra, np.abs(c_num - models.memory_c(p, grid)).max())
    p2 = models.NonMarkovParams(gamma=1.0, tau_c=2.0)
    times = np.linspace(0.0, 40.0, 400)
    qs = [models.nonmarkov_q(p2, sz0, times) for sz0 in (-1.0, -0.3, 0.4, 1.0)]
    in_bounds = all(q.min() >= -1e-12 and q.max() <= 2.0 + 1e-12 for q in qs)
    t_late = 60.0 * max(2.0, 1.0)
    dq_err = abs((1.0 - abs(models.memory_c(p2, t_late)) ** 2) - 1.0)
    weak = models.NonMarkovParams(gamma=1.0, tau_c=0.02)
    tw = np.linspace(0.0, 4.0, 81)
    rel = np.abs(models.memory_c(weak, tw).real / np.exp(-0.5 * tw) - 1.0).max()
    return _result(6, "nonmarkov-decay", [
        ("volterra-vs-closed", worst_volterra <= 1e-6, f"max err {worst_volterra:.2e}"),
        ("bounds", in_bounds, "Q in [0,2]"),
        ("dq-unit", dq_err <= 1e-9, f"|D_Q-1|={dq_err:.1e}"),
        ("weak-coupling", rel <= 0.02, f"rel {rel:.2e}"),
    ])


# ---------------------------------------------------------------------------
# 7. classicality suite

def criterion_classicality():
    rng = np.random.default_rng(107)
    # (a) stochastic Hamiltonians, per-path flatness
    h0 = 0.5 * qcore.sigma_z + 0.3 * qcore.sigma_x
    rho0 = qcore.random_state(2, rng)
    times = np.linspace(0.0, 3.0, 8)
    worst_path = 0.0
    for family, tc in (("gaussian-white", 0.0), ("ornstein-uhlenbeck", 0.5), ("telegraph", 0.5)):
        proc = stochastic.NoiseProcess(family, 1.2, tc, qcore.sigma_x)
        series, _ = stochastic.stochastic_q(proc, h0, rho0, times, 30, seed=107)
        worst_path = max(worst_path, np.abs(series.values - 1.0).max())
    # (b) Hamiltonian ensembles
    worst_recon = worst_qe = 0.0
    for _ in range(5):
        jm = microscopic.random_joint_model(2, 4, rng, commuting=True)
        pairs = microscopic.hamiltonian_ensemble_reduction(jm)
        r0 = qcore.random_state(2, rng)
        for t in (0.6, 1.7):
            recon = sum(
                w * (qcore.matrix_exponential(-1j * h * t) @ r0.matrix
                     @ qcore.matrix_exponential(1j * h * t))
                for w, h in pairs
            )
            worst_recon = max(
                worst_recon, np.abs(recon - microscopic.reduced_state(jm, r0, t).matrix).max()
            )
            worst_qe = max(worst_qe, abs(microscopic.quantumness_direct(jm, r0, t) - 1.0))
    # (c) collisional series mode with unital collisions
    u1 = qcore.matrix_exponential(-1j * 0.6 * qcore.sigma_x)
    u2 = qcore.matrix_exponential(-1j * 0.9 * qcore.sigma_z)
    mixture = [np.sqrt(0.3) * u1, np.sqrt(0.7) * u2]
    worst_coll = 0.0
    rho0b = qcore.random_state(2, rng)
    for waiting in (
        stochastic.WaitingTime("exponential", rate=1.0),
        stochastic.WaitingTime("gamma", rate=2.0, shape=2.0),
        stochastic.WaitingTime("deterministic", period=1.0),
    ):
        for kraus in ([u1], mixture):
            cm = stochastic.CollisionalModel(0.5 * qcore.sigma_z, kraus, waiting)
            qs = stochastic.collisional_q(cm, rho0b, np.linspace(0.0, 3.0, 13), mode="series")
            worst_coll = max(worst_coll, np.abs(qs.values - 1.0).max())
    # (d) unitality check <-> flat series, on generated channel families
    p_unital = models.fluorescence_dephasing_limit(models.FluorescenceParams(1.0, 2.0))
    p_damping = models.ThermalTlsParams(1.0, 3.0).lindblad_model()
    biconditional = True
    for model, expect_unital in ((p_unital, True), (p_damping, False)):
        gen = dynamics.liouvillian(model)
        flat = True
        unital = True
        for t in (0.4, 1.1, 2.5):
            ch = dynamics.Superoperator(scipy.linalg.expm(gen.real * t), model.dim)
            ok, _ = quantumness.unitality_check(dynamics.kraus_from_superoperator(ch))
            unital = unital and ok
        series = quantumness.q_series(model, qcore.random_state(model.dim, rng),
                                      np.linspace(0.0, 3.0, 13))
        flat = np.abs(series.values - 1.0).max() <= 1e-9
        biconditional = biconditional and (unital == expect_unital) and (flat == expect_unital)
    checks = [
        ("stochastic-paths", worst_path <= 1e-12, f"max|Q-1|={worst_path:.1e}"),
        ("ensemble-reconstruction", worst_recon <= 1e-10, f"max err {worst_recon:.1e}"),
        ("ensemble-Q", worst_qe <= 1e-10, f"max|Q-1|={worst_qe:.1e}"),
        ("collisional-unital", worst_coll <= 1e-9, f"max|Q-1|={worst_coll:.1e}"),
        ("unitality-iff-flat", biconditional, "both directions hold"),
    ]
    return _result(7, "classicality-suite", checks)


# ---------------------------------------------------------------------------
# 8. collisional Poisson limit

def criterion_poisson_limit(n_paths=10000):
    rng = np.random.default_rng(108)
    h_s = 0.45 * qcore.sigma_z
    u = qcore.matrix_exponential(-1j * (0.55 * qcore.sigma_x + 0.35 * qcore.sigma_z))
    waiting = stochastic.WaitingTime("exponential", rate=1.0)
    cm = stochastic.CollisionalModel(h_s, [u], waiting)
    lind = dynamics.LindbladModel(h_s, [u], rates=[waiting.rate])
    rho0 = qcore.random_state(2, rng)
    times = np.linspace(0.3, 3.0, 10)
    mc_states, stderr = stochastic._monte_carlo_chain(cm, rho0.matrix, times, n_paths, 108)
    gen = dynamics.liouvillian(lind)
    worst_ratio = 0.0
    for k, t in enumerate(times):
        exact = dynamics.propagate(gen, rho0.matrix, t)
        dist = qcore.trace_distance(mc_states[k], exact)
        worst_ratio = max(worst_ratio, dist / (3.0 * stderr[k]))
    return _result(8, "poisson-limit", [
        ("trace-distance", worst_ratio <= 1.0,
         f"max dist/(3 stderr) = {worst_ratio:.2f} over {n_paths} paths"),
    ])


# ---------------------------------------------------------------------------
# 9. thermal oscillator

def criterion_oscillator():
    p = models.OscillatorParams.from_n_th(1.0, 1.0, 60)
    times = np.linspace(0.0, 2.0, 9)
    q_num = models.oscillator_q_extrapolated(p, times)
    rel = np.abs(q_num / models.oscillator_q(p, times) - 1.0).max()
    n_th = 1e4
    kap, zet = n_th + 1.0, n_th
    proxy_model = models.thermal_oscillator_model(kap, zet, 60)
    t_probe = 1.0 / (kap + zet)
    ground = QuantumState.pure(qcore.ket(61, 0))
    q_proxy = models.oscillator_q_numeric(proxy_model, ground, [t_probe])[0]
    proxy_dev = abs(q_proxy - 1.0)
    worst_dqr = 0.0
    for beta, n_max in ((0.1, 220), (1.0, 60), (3.0, 60)):
        pp = models.OscillatorParams(1.0, beta, n_max)
        eig_route = quantumness.renormalized_degree(models.truncated_thermal_state(pp))
        worst_dqr = max(worst_dqr, abs(eig_route - models.oscillator_dqr(pp)))
    return _result(9, "oscillator", [
        ("growth-vs-analytic", rel <= 1e-4, f"rel {rel:.2e}"),
        ("equal-rates-proxy", proxy_dev <= 2e-4, f"|Q-1|={proxy_dev:.2e} at t=1/(k+z)"),
        ("renormalized-degree", worst_dqr <= 1e-8, f"max err {worst_dqr:.2e}"),
    ])


# ---------------------------------------------------------------------------
# 10. derivative identities

def criterion_derivatives():
    rng = np.random.default_rng(110)
    worst1 = worst2 = 0.0
    for _ in range(6):
        dim_s = int(rng.integers(2, 4))
        dim_e = int(rng.integers(2, 5))
        jm = microscopic.random_joint_model(dim_s, dim_e, rng)
        rho0 = qcore.random_state(dim_s, rng)
        scale = np.abs(np.linalg.eigvalsh(jm.hamiltonian())).max()
        h = 1e-4 / scale
        for t in (0.4, 1.1):
            qp = microscopic.quantumness_direct(jm, rho0, t + h)
            qm = microscopic.quantumness_direct(jm, rho0, t - h)
            q0 = microscopic.quantumness_direct(jm, rho0, t)
            fd1 = (qp - qm) / (2.0 * h)
            fd2 = (qp - 2.0 * q0 + qm) / (h * h)
            worst1 = max(worst1, abs(fd1 - microscopic.q_derivative(jm, rho0, t, 1)))
            worst2 = max(worst2, abs(fd2 - microscopic.q_derivative(jm, rho0, t, 2)))
    return _result(10, "derivative-identities", [
        ("first-order", worst1 <= 1e-6, f"max err {worst1:.2e}"),
        ("second-order", worst2 <= 1e-4, f"max err {worst2:.2e}"),
    ])


# ---------------------------------------------------------------------------
# 11. determinism of the command-line surface

_QT_THERMAL = """
[model]
type = thermal-tls
gamma = 1.0
beta_hw0 = 2.0

[initial_state]
kind = matrix
matrix = 2 2 1+0i 0+0i 0+0i 0+0i

[times]
t_max = 10.0
steps = 101
"""

_QT_FLUOR = """
[model]
type = fluorescence
gamma = 1.0
omega = 5.0

[initial_state]
kind = optimal

[times]
t_max = 8.0
steps = 161
"""

_SWEEP_FLUOR = """
[model]
type = fluorescence
gamma = 1.0
omega = 1.0

[sweep]
param = omega
values = {values}
"""

_SWEEP_TWOQUBIT = """
[model]
type = two-qubit
gamma = 1.0
omega = 1.0

[sweep]
param = omega
values = {values}
"""

_QT_COLLISIONAL = """
[model]
type = collisional
free_hamiltonian = 2 2 0.25+0i 0+0i 0+0i -0.25+0i
kraus_1 = {kraus}
waiting_family = exponential
waiting_rate = 1.0

[initial_state]
kind = pure
theta = 1.1
phi = 0.3

[times]
t_max = 3.0
steps = 16

[run]
seed = 2718
mode = monte-carlo
n_paths = 200
"""

_QT_STOCHASTIC = """
[model]
type = stochastic
family = telegraph
amplitude = 1.0
correlation_time = 0.5
coupling = 2 2 0+0i 1+0i 1+0i 0+0i
base_h = 2 2 0.5+0i 0+0i 0+0i -0.5+0i

[initial_state]
kind = pure
theta = 0.9
phi = 1.2

[times]
t_max = 2.0
steps = 11

[run]
seed = 99
n_paths = 64
"""


def _write_verify_bundle(out_dir):
    sweep_values = " ".join(f"{v:.6g}" for v in np.linspace(0.0, 6.0, 61))
    u = qcore.matrix_exponential(-1j * 0.7 * qcore.sigma_x)
    configs = {
        "thermal_qt": _QT_THERMAL,
        "fluorescence_qt": _QT_FLUOR,
        "fig1_right_sweep": _SWEEP_FLUOR.format(values=sweep_values),
        "fig2_sweep": _SWEEP_TWOQUBIT.format(values=sweep_values),
        "collisional_mc_qt": _QT_COLLISIONAL.format(kraus=qcore.format_matrix_text(u)),
        "stochastic_qt": _QT_STOCHASTIC,
    }
    outputs = []
    for name, text in configs.items():
        cfg_path = os.path.join(out_dir, f"{name}.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        out_path = os.path.join(out_dir, f"{name}.csv")
        command = "sweep" if "sweep" in name else "qt"
        code = cli.run([command, "--config", cfg_path, "--out", out_path])
        if code != 0:
            raise RuntimeError(f"cli run for {name} exited with {code}")
        outputs.append(out_path)
    return outputs


def criterion_determinism(out_dir=None):
    with tempfile.TemporaryDirectory() as tmp:
        run1 = os.path.join(tmp, "run1")
        run2 = os.path.join(tmp, "run2")
        os.makedirs(run1)
        os.makedirs(run2)
        files1 = _write_verify_bundle(run1)
        files2 = _write_verify_bundle(run2)
        identical = all(
            filecmp.cmp(a, b, shallow=False) for a, b in zip(files1, files2)
        )
        if out_dir is not None:
            for path in files1:
                with open(path, "rb") as src, open(
                    os.path.join(out_dir, os.path.basename(path)), "wb"
                ) as dst:
                    dst.write(src.read())
    n = len(files1)
    return _result(11, "determinism", [
        ("bitwise-identical", identical, f"{n} CSV files, two runs"),
    ])


# ---------------------------------------------------------------------------

def run_all(out_dir=None, fast=False):
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    criteria = [
        lambda: criterion_oracle_identity(n_models=20 if fast else 50),
        criterion_thermal,
        criterion_fluorescence,
        criterion_sign_arbitration,
        lambda: criterion_two_qubit(out_dir=out_dir),
        criterion_nonmarkov,
        criterion_classicality,
        lambda: criterion_poisson_limit(n_paths=2000 if fast else 10000),
        criterion_oscillator,
        criterion_derivatives,
        criterion_determinism if out_dir is None else (lambda: criterion_determinism(out_dir)),
    ]
    return [fn() for fn in criteria]
