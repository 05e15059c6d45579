import numpy as np
import pytest
import scipy.linalg

from envq import dynamics, models, qcore, quantumness
from envq.qcore import QuantumState


# ---------------------------------------------------------------------------
# thermal two-level system

def test_thermal_q_trivials():
    p = models.ThermalTlsParams(1.0, 2.0)
    assert models.thermal_q(p, 0.7, 0.0) == pytest.approx(1.0)
    cold = models.ThermalTlsParams(1.0, np.inf)
    t = np.linspace(0.0, 6.0, 25)
    assert np.abs(models.thermal_q(cold, 1.0, t) - np.exp(-t)).max() < 1e-12


def test_thermal_dq_values():
    assert models.thermal_dq(models.ThermalTlsParams(1.0, 2.0)) == pytest.approx(
        0.761594155956, abs=1e-10
    )
    assert models.thermal_dq(models.ThermalTlsParams(1.0, 1e-6)) < 1e-6
    assert models.thermal_dq(models.ThermalTlsParams(1.0, np.inf)) == 1.0


def test_thermal_q_matches_dual_propagation():
    rng = np.random.default_rng(0)
    p = models.ThermalTlsParams(0.7, 1.3)
    m = dynamics.LindbladModel(qcore.sigma_z, [qcore.sigma_minus, qcore.sigma_plus],
                               rates=[p.kappa, p.zeta])
    times = np.linspace(0.0, 12.0, 25)
    rho0 = qcore.random_state(2, rng)
    sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
    series = quantumness.q_series(m, rho0, times)
    assert np.abs(series.values - models.thermal_q(p, sz0, times)).max() < 1e-9


# ---------------------------------------------------------------------------
# non-Markovian decay

def test_memory_c_at_zero():
    p = models.NonMarkovParams(1.0, 0.8)
    assert models.memory_c(p, 0.0) == pytest.approx(1.0)


def test_memory_c_weak_coupling():
    p = models.NonMarkovParams(1.0, 0.02)
    t = np.linspace(0.0, 4.0, 41)
    rel = np.abs(models.memory_c(p, t).real / np.exp(-0.5 * t) - 1.0)
    assert rel.max() < 0.02


def test_memory_c_overdamped_branch_is_real():
    # chi imaginary for gamma tau_c > 1/2
    p = models.NonMarkovParams(1.0, 2.0)
    c = models.memory_c(p, np.linspace(0.0, 10.0, 50))
    assert np.abs(c.imag).max() < 1e-14


def test_memory_c_critical_point():
    # gamma tau_c = 1/2 makes chi vanish; the sinch guard handles it
    p = models.NonMarkovParams(1.0, 0.5)
    t = 1.7
    expected = np.exp(-t / (2 * 0.5)) * (1.0 + t / (2 * 0.5))
    assert models.memory_c(p, t).real == pytest.approx(expected, abs=1e-12)


def test_volterra_against_closed_form():
    p = models.NonMarkovParams(1.0, 2.0)
    grid, c = models.volterra_solve(p.kernel_function(), 8.0, 2.0 / 50.0)
    closed = models.memory_c(p, grid)
    assert np.abs(c - closed).max() < 1e-6


def reference_volterra_solve(kernel, t_max, step):
    """The memory-kernel recursion on numpy arrays, one strided dot per step,
    in extended precision, so its own roundoff sits far below the 1e-14 pin."""
    def run(h, n):
        ts = h * np.arange(n + 1)
        f = np.asarray(kernel(ts), dtype=complex).astype(np.clongdouble)
        h = np.longdouble(h)
        c = np.empty(n + 1, dtype=np.clongdouble)
        dc = np.empty(n + 1, dtype=np.clongdouble)
        c[0], dc[0] = 1, 0
        denom = 1 + h * h * f[0] / 4
        for k in range(1, n + 1):
            s = f[k] * c[0] / 2
            if k > 1:
                s += np.dot(f[k - 1:0:-1], c[1:k])
            s *= -h
            c[k] = (c[k - 1] + h / 2 * (dc[k - 1] + s)) / denom
            dc[k] = s - h / 2 * f[0] * c[k]
        return ts, c

    n = max(1, int(round(t_max / step)))
    ts, coarse = run(step, n)
    _, fine = run(step / 2.0, 2 * n)
    return ts, (4 * fine[::2] - coarse) / 3


@pytest.mark.parametrize("params, t_max", [
    (models.NonMarkovParams(1.0, 2.0), 8.0),
    (models.NonMarkovParams(0.7, 0.45), 3.0),
    (models.NonMarkovParams(1.3, 0.4), 6.0),
    (models.NonMarkovParams(1.0, kernel="single-mode", coupling=0.9), 5.0),
    (models.NonMarkovParams(1.0, 0.45, kernel="tabulated",
                            kernel_func=lambda t: (1.0 / 0.9) * np.exp(-np.abs(t) / 0.45 - 2.0j * t)),
     3.0),
], ids=["lorentzian-t8", "lorentzian-t3", "lorentzian-t6", "single-mode", "detuned-t3"])
def test_volterra_matches_array_loop(params, t_max):
    step = params.tau_c / 100.0
    grid, c = models.volterra_solve(params.kernel_function(), t_max, step)
    ref_grid, ref = reference_volterra_solve(params.kernel_function(), t_max, step)
    assert np.array_equal(grid, ref_grid)
    assert np.abs(c - ref).max() < 1e-14


def test_volterra_arithmetic_follows_the_kernel():
    # a complex kernel whose imaginary parts are all zero is a real kernel, to the bit
    kernel = models.NonMarkovParams(0.7, 0.45).kernel_function()
    grid, c = models.volterra_solve(kernel, 3.0, 0.0045)
    grid_c, c_c = models.volterra_solve(lambda t: kernel(t) + 0j, 3.0, 0.0045)
    assert c.dtype == np.float64 and c_c.dtype == np.float64
    assert np.array_equal(grid, grid_c) and np.array_equal(c, c_c)
    # integer samples are read as float64, not solved in integer arithmetic
    ones = models.volterra_solve(lambda t: np.ones(t.shape, dtype=int), 3.0, 0.0045)[1]
    assert np.array_equal(ones, models.volterra_solve(np.ones_like, 3.0, 0.0045)[1])
    detuned = models.volterra_solve(lambda t: kernel(t) * np.exp(-2.0j * t), 3.0, 0.0045)[1]
    assert detuned.dtype == np.complex128


def test_tabulated_memory_c_is_complex128():
    kernel = models.NonMarkovParams(0.7, 0.45).kernel_function()
    p = models.NonMarkovParams(0.7, 0.45, kernel="tabulated", kernel_func=kernel)
    assert type(models.memory_c(p, 1.3)) is np.complex128
    c = models.memory_c(p, np.linspace(0.0, 3.0, 7))
    assert c.dtype == np.complex128 and c.shape == (7,)


@pytest.mark.parametrize("kernel, match", [
    (lambda t: np.where(t > 1.0, np.nan, np.exp(-t)), r"kernel sample at t = 1\.0035 is not finite"),
    (lambda t: np.where(t > 1.0, np.inf, np.exp(-t)) + 0j, r"kernel sample at t = 1\.0035 is not finite"),
    (lambda t: 1.0, r"kernel samples have shape \(\), not the grid's \(668,\)"),
    (lambda t: np.exp(-t[:-1]), r"kernel samples have shape \(667,\), not the grid's \(668,\)"),
], ids=["nan", "inf", "scalar", "wrong-length"])
def test_volterra_rejects_bad_kernel_samples(kernel, match):
    with pytest.raises(ValueError, match=match):
        models.volterra_solve(kernel, 3.0, 0.0045)


def test_single_mode_kernel():
    p = models.NonMarkovParams(1.0, kernel="single-mode", coupling=0.9)
    t = np.linspace(0.0, 5.0, 21)
    assert np.abs(models.memory_c(p, t) - np.cos(0.9 * t)).max() < 1e-12
    grid, c = models.volterra_solve(p.kernel_function(), 5.0, 0.01)
    assert np.abs(c - np.cos(0.9 * grid)).max() < 1e-7


def test_tabulated_kernel_matches_named_family():
    base = models.NonMarkovParams(1.0, 1.5)
    tab = models.NonMarkovParams(1.0, 1.5, kernel="tabulated",
                                 kernel_func=base.kernel_function())
    t = np.linspace(0.0, 6.0, 13)
    assert np.abs(models.memory_c(tab, t) - models.memory_c(base, t)).max() < 1e-6


def test_nonmarkov_q():
    p = models.NonMarkovParams(1.0, 2.0)
    t = np.linspace(0.0, 30.0, 301)
    assert models.nonmarkov_q(p, 0.0, 1.7) == pytest.approx(1.0)
    q_up = models.nonmarkov_q(p, -1.0, 300.0)
    q_dn = models.nonmarkov_q(p, 1.0, 300.0)
    assert q_up == pytest.approx(2.0, abs=1e-9)
    assert q_dn == pytest.approx(0.0, abs=1e-9)
    assert models.nonmarkov_dq(p) == 1.0
    # revivals: the series turns around repeatedly in the overdamped regime
    q = models.nonmarkov_q(p, 1.0, t)
    turning = np.sum(np.diff(np.sign(np.diff(q))) != 0)
    assert turning >= 2
    assert q.min() >= -1e-12 and q.max() <= 2.0 + 1e-12


def test_nonmarkov_single_mode_has_no_degree():
    p = models.NonMarkovParams(1.0, kernel="single-mode", coupling=0.9)
    with pytest.raises(ValueError, match="single-mode kernel never relaxes"):
        models.nonmarkov_dq(p)
    with pytest.raises(ValueError, match="single-mode kernel never relaxes"):
        models.nonmarkov_report(p)
    assert models.nonmarkov_report(models.NonMarkovParams(1.0, 2.0)).dq == pytest.approx(1.0)


def test_nonmarkov_rejects_kernel_fields_it_cannot_use():
    kernel = models.NonMarkovParams(1.0, 1.5).kernel_function()
    for func in (None, 1.0):
        with pytest.raises(ValueError, match="tabulated kernel needs a callable kernel_func"):
            models.NonMarkovParams(1.0, kernel="tabulated", kernel_func=func)
    with pytest.raises(ValueError, match="coupling applies to the single-mode kernel only"):
        models.NonMarkovParams(1.0, coupling=1.0)
    with pytest.raises(ValueError, match="coupling applies to the single-mode kernel only"):
        models.NonMarkovParams(1.0, kernel="tabulated", kernel_func=kernel, coupling=1.0)
    with pytest.raises(ValueError, match="kernel_func applies to the tabulated kernel only"):
        models.NonMarkovParams(1.0, kernel_func=kernel)
    with pytest.raises(ValueError, match="kernel_func applies to the tabulated kernel only"):
        models.NonMarkovParams(1.0, kernel="single-mode", coupling=0.9, kernel_func=kernel)


def test_nonmarkov_matches_microscopic_single_mode():
    from envq import microscopic

    g = 0.6
    p = models.NonMarkovParams(1.0, kernel="single-mode", coupling=g)
    jm = microscopic.spin_boson_decay(coupling=g, cutoff=2)
    plus = QuantumState.pure(qcore.ket(2, 0))
    for t in (0.4, 1.3, 2.8):
        assert models.nonmarkov_q(p, 1.0, t) == pytest.approx(
            microscopic.quantumness_direct(jm, plus, t), abs=1e-11
        )


# ---------------------------------------------------------------------------
# driven decay

def test_fluorescence_q_no_drive():
    p = models.FluorescenceParams(1.0, 0.0)
    t = np.linspace(0.0, 6.0, 25)
    up = models.fluorescence_q(p, 1.0, 0.0, t)
    dn = models.fluorescence_q(p, -1.0, 0.0, t)
    assert np.abs(up - (1.0 - (1.0 - np.exp(-t)))).max() < 1e-12
    assert np.abs(dn - (1.0 + (1.0 - np.exp(-t)))).max() < 1e-12


def test_fluorescence_q_long_time_limit():
    for om in (0.2, 0.7, 3.0):
        p = models.FluorescenceParams(1.0, om)
        assert models.fluorescence_q(p, 0.4, -0.5, 2000.0) == pytest.approx(
            models.fluorescence_q_infinity(p, 0.4, -0.5), abs=1e-12
        )


@pytest.mark.parametrize("ratio", [0.5, 1.0, 5.0])
def test_fluorescence_q_matches_dual_propagation(ratio):
    rng = np.random.default_rng(int(10 * ratio))
    p = models.FluorescenceParams(1.0, ratio)
    m = p.lindblad_model()
    times = np.linspace(0.0, 8.0, 33)
    rho0 = qcore.random_state(2, rng)
    sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
    sy0 = np.trace(qcore.sigma_y @ rho0.matrix).real
    series = quantumness.q_series(m, rho0, times)
    assert np.abs(series.values - models.fluorescence_q(p, sz0, sy0, times)).max() < 1e-8


def test_fluorescence_q_critical_drive():
    # omega = gamma/4 sits exactly on the degenerate-exponent point
    p = models.FluorescenceParams(1.0, 0.25)
    m = p.lindblad_model()
    times = np.linspace(0.0, 6.0, 13)
    series = quantumness.q_series(m, QuantumState.pure(qcore.ket(2, 0)), times)
    closed = models.fluorescence_q(p, 1.0, 0.0, times)
    assert np.abs(series.values - closed).max() < 1e-8


def test_fluorescence_dq():
    assert models.fluorescence_dq(models.FluorescenceParams(1.0, 0.0))[0] == pytest.approx(1.0)
    dq, angles = models.fluorescence_dq(models.FluorescenceParams(1.0, 1.0))
    assert dq == pytest.approx(np.sqrt(5.0) / 3.0, abs=1e-12)
    assert np.tan(angles["theta"]) == pytest.approx(-2.0, abs=1e-12)
    assert np.tan(angles["theta_tilde"]) == pytest.approx(2.0, abs=1e-12)
    assert angles["phi"] == pytest.approx(np.pi / 2)
    assert angles["phi_tilde"] == pytest.approx(3 * np.pi / 2)
    weak = models.fluorescence_dq(models.FluorescenceParams(1.0, 0.1))[0]
    assert weak == pytest.approx(1.0 - 2.0 * 0.1 ** 4, rel=1e-4)
    strong = models.fluorescence_dq(models.FluorescenceParams(1.0, 50.0))[0]
    assert strong == pytest.approx(1.0 / 50.0, rel=5e-4)


def test_fluorescence_optimal_angles_match_bloch_direction():
    p = models.FluorescenceParams(1.0, 1.7)
    _, angles = models.fluorescence_dq(p)
    sz_inf, sy_inf = models.fluorescence_stationary_means(p)
    psi = qcore.bloch_vector_state(angles["theta"], angles["phi"])
    rho = QuantumState.pure(psi).matrix
    sz = np.trace(qcore.sigma_z @ rho).real
    sy = np.trace(qcore.sigma_y @ rho).real
    # aligned with the stationary Bloch direction
    norm = np.hypot(sz_inf, sy_inf)
    assert sz == pytest.approx(sz_inf / norm, abs=1e-12)
    assert sy == pytest.approx(sy_inf / norm, abs=1e-12)


def test_fluorescence_dephasing_limit():
    rng = np.random.default_rng(7)
    p = models.FluorescenceParams(1.0, 50.0)
    dephasing = models.fluorescence_dephasing_limit(p)
    g = dynamics.liouvillian(dephasing)
    ch = dynamics.Superoperator(scipy.linalg.expm(g.real * 0.9), 2)
    ok, _ = quantumness.unitality_check(dynamics.kraus_from_superoperator(ch))
    assert ok
    series = quantumness.q_series(dephasing, qcore.random_state(2, rng),
                                  np.linspace(0.0, 4.0, 17))
    assert np.abs(series.values - 1.0).max() < 1e-9
    # the full model at strong drive sits close to unit stationary value
    szi, syi = models.fluorescence_stationary_means(p)
    norm = np.hypot(szi, syi)
    q_inf = models.fluorescence_q_infinity(p, szi / norm, syi / norm)
    assert abs(q_inf - 1.0) < 0.03


# ---------------------------------------------------------------------------
# coupled qubit pair

def test_twoqubit_limits():
    low = models.TwoQubitParams(1.0, 1e-8)
    assert np.abs(models.twoqubit_optimal_vector(low) - np.array([0, 0, 0, 1.0])).max() < 1e-7
    assert models.twoqubit_concurrence(low) < 1e-7
    high = models.TwoQubitParams(1.0, 1e6)
    target = np.array([1j, 0, 0, 1.0]) / np.sqrt(2)
    assert np.abs(models.twoqubit_optimal_vector(high) - target).max() < 1e-5
    assert models.twoqubit_concurrence(high) == pytest.approx(1.0, abs=1e-10)


def test_twoqubit_closed_series_limits():
    p = models.TwoQubitParams(1.0, 1.3)
    dq = models.twoqubit_dq(p)
    assert models.twoqubit_q_closed(p, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert models.twoqubit_q_closed(p, 1e3) == pytest.approx(1.0 + dq, abs=1e-12)


def test_twoqubit_series_matches_propagation():
    p = models.TwoQubitParams(1.0, 2.0)
    rep = models.twoqubit_report(p)
    m = p.lindblad_model()
    times = np.linspace(0.0, 6.0, 25)
    series = quantumness.q_series(m, rep.propagation_state(), times)
    assert np.abs(series.values - models.twoqubit_q_closed(p, times)).max() < 1e-8


def test_twoqubit_report_against_numerics():
    p = models.TwoQubitParams(1.0, 1.0)
    rep = models.twoqubit_report(p)
    assert rep.dq == pytest.approx((1.0 + 2.0 * np.sqrt(2.0)) / 2.0, abs=1e-10)
    report = quantumness.degree_of_quantumness(p.lindblad_model())
    assert report.dq == pytest.approx(rep.dq, abs=1e-10)
    _, v = qcore.hermitian_eigensystem(report.optimal_state.matrix)
    overlap = abs(np.vdot(v[:, -1], models.twoqubit_optimal_vector(p)))
    assert overlap > 1.0 - 1e-10
    assert qcore.concurrence(rep.optimal_state.matrix) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-10
    )


def test_twoqubit_reduced():
    p = models.TwoQubitParams(1.0, 0.0)
    assert models.twoqubit_reduced(p).dq == pytest.approx(1.0)
    for om in np.linspace(0.2, 6.0, 8):
        pp = models.TwoQubitParams(1.0, om)
        assert models.twoqubit_reduced(pp).dq < models.twoqubit_report(pp).dq


def test_twoqubit_reduced_series_vs_full_model():
    # marginal series from the embedded four-level propagation:
    # Q_a(t) = Tr[(P_- x I) e^{tL}[I x rho_b]]
    rng = np.random.default_rng(8)
    p = models.TwoQubitParams(1.0, 1.6)
    g = dynamics.liouvillian(p.lindblad_model())
    rho_b = qcore.random_state(2, rng).matrix
    seed_op = qcore.tensor_product(np.eye(2), rho_b)
    probe = qcore.tensor_product(np.diag([0.0, 1.0]).astype(complex), np.eye(2))
    for t in (0.0, 0.6, 1.7, 3.9):
        q_full = np.trace(probe @ dynamics.propagate(g, seed_op, t)).real
        assert q_full == pytest.approx(models.twoqubit_reduced_q_closed(p, t), abs=1e-10)
    # and symmetrically for the other marginal
    seed_op = qcore.tensor_product(rho_b, np.eye(2))
    probe = qcore.tensor_product(np.eye(2), np.diag([0.0, 1.0]).astype(complex))
    q_full = np.trace(probe @ dynamics.propagate(g, seed_op, 1.1)).real
    assert q_full == pytest.approx(models.twoqubit_reduced_q_closed(p, 1.1), abs=1e-10)


# ---------------------------------------------------------------------------
# thermal oscillator

def test_oscillator_analytic_value():
    p = models.OscillatorParams.from_n_th(1.0, 1.0, 60)
    assert models.oscillator_q(p, 2.0) == pytest.approx(np.exp(2.0), abs=1e-9)
    assert p.kappa - p.zeta == pytest.approx(p.gamma)


def test_oscillator_numeric_growth():
    p = models.OscillatorParams.from_n_th(1.0, 1.0, 60)
    times = np.linspace(0.0, 2.0, 5)
    q = models.oscillator_q_extrapolated(p, times)
    assert np.abs(q / np.exp(times) - 1.0).max() < 1e-4


def test_oscillator_truncation_alarm():
    p = models.OscillatorParams.from_n_th(1.0, 1.0, 60)
    ground = QuantumState.pure(qcore.ket(61, 0))
    with pytest.raises(RuntimeError, match="truncation breach"):
        models.oscillator_q_numeric(p, ground, [3.5])
    with pytest.raises(RuntimeError, match="truncation breach"):
        models.oscillator_q_extrapolated(p, [4.0])


def test_oscillator_alarm_skips_the_initial_state():
    # Q_0 = Tr rho0 carries no truncation error, whatever weight rho0 puts on the top level
    two_level = models.thermal_oscillator_model(1.2, 0.4, 1)
    assert models.oscillator_q_numeric(two_level, QuantumState(np.eye(2) / 2), [0.0]).tolist() == [1.0]
    twelve_level = models.thermal_oscillator_model(1.2, 0.4, 11)
    top_heavy = QuantumState(np.diag(np.r_[np.full(11, 0.5 / 11), 0.5]))
    assert models.oscillator_q_numeric(twelve_level, top_heavy, [0.0]).tolist() == [1.0]


def test_oscillator_params_tail_guard():
    with pytest.raises(ValueError, match="raise n_max"):
        models.OscillatorParams(1.0, 0.05, 60)


def test_oscillator_dqr():
    p = models.OscillatorParams(1.0, 1.0, 60)
    assert models.oscillator_dqr(p) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    eig_route = quantumness.renormalized_degree(models.truncated_thermal_state(p))
    assert abs(eig_route - models.oscillator_dqr(p)) < 1e-8


# ---------------------------------------------------------------------------
# parameter validation

VALID_PARAMS = [
    (models.ThermalTlsParams, {"gamma": 1.0, "beta_hw0": 2.0}),
    (models.NonMarkovParams, {"gamma": 1.0, "tau_c": 0.5}),
    (models.NonMarkovParams, {"gamma": 1.0, "tau_c": 0.5, "kernel": "single-mode",
                              "coupling": 0.8}),
    (models.FluorescenceParams, {"gamma": 1.0, "omega": 0.5}),
    (models.TwoQubitParams, {"gamma": 1.0, "omega": 0.5}),
    (models.OscillatorParams, {"gamma": 1.0, "beta_hw0": 1.0}),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, kwargs", VALID_PARAMS,
                         ids=["thermal-tls", "nonmarkov-lorentzian", "nonmarkov-single-mode",
                              "fluorescence", "two-qubit", "oscillator"])
def test_builtin_params_reject_non_finite(cls, kwargs, bad):
    cls(**kwargs)
    for name, value in kwargs.items():
        if not isinstance(value, float):
            continue
        if (cls, name, bad) == (models.ThermalTlsParams, "beta_hw0", np.inf):
            # the zero-temperature limit
            assert cls(**{**kwargs, name: bad}).n_th == 0.0
            continue
        with pytest.raises(ValueError):
            cls(**{**kwargs, name: bad})
