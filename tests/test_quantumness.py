import numpy as np
import pytest

from envq import dynamics, models, qcore, quantumness
from envq.qcore import BoundViolationError, QuantumState


def test_series_validation():
    with pytest.raises(ValueError, match="expected 1"):
        quantumness.QuantumnessSeries([0.0, 1.0], [0.9, 1.0], 2)
    with pytest.raises(BoundViolationError):
        quantumness.QuantumnessSeries([0.0, 1.0], [1.0, 2.5], 2)
    s = quantumness.QuantumnessSeries([0.0, 1.0], [1.0, 0.5], 2)
    assert len(s) == 2
    # one rule covers every time grid: qcore.time_grid's
    for times, message in (([0.0, np.nan], "finite and non-negative, got nan"),
                           ([0.0, np.inf], "finite and non-negative, got inf"),
                           ([-1.0, 0.0], "finite and non-negative, got -1.0"),
                           ([0.5, 0.2], "ascending: 0.2 follows 0.5"),
                           ([[0.0, 1.0]], "a 1d sequence")):
        with pytest.raises(ValueError, match=f"times must be {message}"):
            quantumness.QuantumnessSeries(times, [1.0, 1.0], 2)


def test_series_csv_format():
    s = quantumness.QuantumnessSeries([0.0, 0.5], [1.0, 1.0 / 3.0], 2)
    assert quantumness.csv_text("t,Q", s.times, s.values) == "t,Q\n0,1\n0.5,0.333333333333\n"


def test_q_series_thermal_closed_form():
    rng = np.random.default_rng(0)
    p = models.ThermalTlsParams(1.0, 1.5)
    m = p.lindblad_model()
    times = np.linspace(0.0, 8.0, 33)
    for _ in range(5):
        rho0 = qcore.random_state(2, rng)
        sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
        series = quantumness.q_series(m, rho0, times)
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(series.values - models.thermal_q(p, sz0, times)).max() < 1e-8


def test_q_series_matches_laplace_inversion_oracle():
    # independent route: numerically invert the resolvent-domain series
    mpmath = pytest.importorskip("mpmath")
    ga, om = 1.0, 1.3
    p = models.FluorescenceParams(ga, om)
    rng = np.random.default_rng(1)
    rho0 = qcore.random_state(2, rng)
    sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
    sy0 = np.trace(qcore.sigma_y @ rho0.matrix).real

    def q_u(u):
        q = (u + ga) * (2 * u + ga) + 2 * om ** 2
        return (1 / u - sz0 * ga * (2 * u + ga) / (u * q) + sy0 * 2 * ga * om / (u * q))

    times = np.array([0.4, 1.1, 2.3, 4.0])
    series = quantumness.q_series(p.lindblad_model(), rho0, times)
    for t, val in zip(times, series.values):
        inverted = float(mpmath.invertlaplace(q_u, t, method="talbot"))
        assert abs(inverted - val) < 1e-8


def dual_route_series(model, rho0, times):
    """Q_t = Tr[A_t] from the Heisenberg flow dA/dt = L*[A], A_0 = rho_0."""
    gd = dynamics.dual_liouvillian(model)
    return np.asarray([np.trace(a).real for a in dynamics.propagate_series(gd, rho0, times)])


def random_dense_model(rng, d):
    def rand_op():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    h = rand_op()
    jumps = [rand_op() / np.sqrt(2.0 * d) for _ in range(2)]
    return dynamics.LindbladModel(0.5 * (h + h.conj().T) / d, jumps, rates=[0.7, 0.4])


def test_functional_series_pairing():
    # q_series pairs rho_0 with X_t = e^{tL}[I]; the reference propagates
    # rho_0 under the dual generator instead
    rng = np.random.default_rng(2)
    times = np.linspace(0.0, 5.0, 11)
    cases = [models.FluorescenceParams(1.0, 0.9).lindblad_model(),
             random_dense_model(rng, 4), random_dense_model(rng, 12)]
    for m in cases:
        assert not dynamics.liouvillian(m).is_sparse
        functionals = quantumness.q_functional_series(m, times)
        for _ in range(5):
            rho0 = qcore.random_state(m.dim, rng)
            series = quantumness.q_series(m, rho0, times)
            reference = dual_route_series(m, rho0.matrix, times)
            assert np.abs(series.values - reference).max() < 1e-12
            paired = [np.trace(rho0.matrix @ x).real for x in functionals]
            assert np.abs(np.asarray(paired) - series.values).max() < 1e-12


def q_stationary(model, rho0):
    """Stationary value of the propagated series, dim * Tr[rho_inf rho_0].

    This is the t -> infinity limit of ``q_series`` whenever the
    stationary state is unique, and reproduces the closed stationary
    forms of the worked models.
    """
    rho_inf = dynamics.stationary_state(dynamics.liouvillian(model))
    rho0 = qcore.state_matrix(rho0, model.dim)
    return float(model.dim * np.trace(rho_inf.matrix @ rho0).real)


def dq_geometric(stationary, rho0):
    """Departure functional |dim * Tr[stationary rho_0] - 1|.

    Pass the conjugated stationary state to evaluate the time-reversed
    functional whose maximizer is the reported optimal state; pass the
    stationary state itself for the propagated-limit departure.  Both
    share the same maximum, dim * maxeig - 1.
    """
    stat = qcore.state_matrix(stationary)
    rho0 = qcore.state_matrix(rho0)
    if stat.shape != rho0.shape:
        raise ValueError("state dimensions differ")
    dim = stat.shape[0]
    return float(abs(dim * np.trace(stat @ rho0).real - 1.0))


def test_q_stationary():
    rng = np.random.default_rng(3)
    p = models.FluorescenceParams(1.0, 1.1)
    m = p.lindblad_model()
    assert q_stationary(m, QuantumState.maximally_mixed(2)) == pytest.approx(1.0, abs=1e-11)
    rho0 = qcore.random_state(2, rng)
    sz0 = np.trace(qcore.sigma_z @ rho0.matrix).real
    sy0 = np.trace(qcore.sigma_y @ rho0.matrix).real
    assert q_stationary(m, rho0) == pytest.approx(
        models.fluorescence_q_infinity(p, sz0, sy0), abs=1e-10
    )
    gap = dynamics.spectral_gap(dynamics.liouvillian(m))
    tail = quantumness.q_series(m, rho0, np.array([0.0, 20.0 / gap])).values[-1]
    assert abs(tail - q_stationary(m, rho0)) < 1e-6


def test_dq_geometric():
    rng = np.random.default_rng(4)
    p = models.TwoQubitParams(1.0, 1.0)
    m = p.lindblad_model()
    stationary = dynamics.stationary_state(dynamics.liouvillian(m))
    reversed_stat = dynamics.time_reversed_state(stationary)
    w, v = qcore.hermitian_eigensystem(reversed_stat.matrix)
    top = QuantumState.pure(v[:, -1])
    best = dq_geometric(reversed_stat, top)
    assert best == pytest.approx(4 * w[-1] - 1.0, abs=1e-11)
    assert dq_geometric(QuantumState.maximally_mixed(4),
                        QuantumState.maximally_mixed(4)) < 1e-12
    # random pure states never beat the eigenprojector
    for _ in range(10000):
        probe = qcore.random_pure_state(4, rng)
        assert dq_geometric(reversed_stat, probe) <= best + 1e-12


def test_qubit_reports_take_the_upper_branch():
    # a qubit's two branches tie in exact arithmetic (mineig + maxeig = 1); on
    # this grid roundoff used to pick the lower one for 17 fluorescence models
    for gamma in np.linspace(0.3, 3.0, 10):
        for omega, beta in zip(np.linspace(0.0, 5.0, 10), np.linspace(0.1, 5.0, 10)):
            for params in (models.FluorescenceParams(gamma, omega),
                           models.ThermalTlsParams(gamma, beta)):
                report = quantumness.degree_of_quantumness(params.lindblad_model())
                assert report.q_infinity == pytest.approx(1.0 + report.dq, abs=1e-12)


def test_degree_of_quantumness_thermal():
    p = models.ThermalTlsParams(1.0, 2.0)
    report = quantumness.degree_of_quantumness(p.lindblad_model())
    assert report.dq == pytest.approx(np.tanh(1.0), abs=1e-11)
    assert report.q_infinity == pytest.approx(1.0 + report.dq, abs=1e-11)
    # optimal initial state is the ground-state projector
    assert report.optimal_state.matrix[1, 1].real == pytest.approx(1.0, abs=1e-10)


def test_degree_lower_branch():
    # engineered stationary distribution (0.4, 0.35, 0.25): the deficit
    # branch |3 min - 1| = 0.25 beats the excess branch 3 max - 1 = 0.2
    target = np.array([0.4, 0.35, 0.25])
    jumps, rates = [], []
    for i in range(3):
        for j in range(3):
            if i != j:
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1.0
                jumps.append(e)
                rates.append(target[i])
    m = dynamics.LindbladModel(np.zeros((3, 3), dtype=complex), jumps, rates=rates)
    report = quantumness.degree_of_quantumness(m)
    assert report.dq == pytest.approx(0.25, abs=1e-10)
    assert report.q_infinity == pytest.approx(0.75, abs=1e-10)
    assert report.optimal_state.matrix[2, 2].real == pytest.approx(1.0, abs=1e-8)


def test_degree_maximally_mixed_stationary():
    # unital model: stationary state I/d, so the degree vanishes
    m = dynamics.LindbladModel(0.7 * qcore.sigma_x, [qcore.sigma_z], rates=[0.5])
    report = quantumness.degree_of_quantumness(m)
    assert report.dq < 1e-10


def test_renormalized_degree():
    p = models.OscillatorParams(1.0, 1.0, 60)
    stat = models.truncated_thermal_state(p)
    assert quantumness.renormalized_degree(stat) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-8)
    pure = QuantumState.pure(qcore.ket(5, 2))
    assert quantumness.renormalized_degree(pure) == pytest.approx(1.0, abs=1e-12)
    # high-temperature limit: the degree closes on zero
    hot = models.OscillatorParams(1.0, 0.05, 400)
    assert models.oscillator_dqr(hot) == pytest.approx(1.0 - np.exp(-0.05), abs=1e-12)
    assert models.oscillator_dqr(hot) < 0.05


def test_degree_of_quantumness_truncated_oscillator():
    # the numeric degree reaches the truncated oscillator (d = 61) and
    # cross-checks its renormalized degree
    p = models.OscillatorParams(1.0, 1.0, 60)
    report = quantumness.degree_of_quantumness(p.lindblad_model())
    top = quantumness.renormalized_degree(report.stationary)
    ladder = quantumness.renormalized_degree(models.truncated_thermal_state(p))
    assert top == pytest.approx(ladder, abs=1e-12)
    assert top == pytest.approx(models.oscillator_dqr(p), abs=1e-12)
    assert report.dq == pytest.approx(p.dim * top - 1.0, abs=1e-10)
    assert abs(report.optimal_state.matrix[0, 0] - 1.0) < 1e-12


def test_unitality_check():
    p = 0.3
    dephasing = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * qcore.sigma_z]
    ok, resid = quantumness.unitality_check(dephasing)
    assert ok and resid < 1e-12
    eta = 0.4
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - eta)]]),
               np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]])]
    ok, resid = quantumness.unitality_check(damping)
    assert not ok and resid > 0.1
    rng = np.random.default_rng(5)
    us = []
    for w in (0.2, 0.5, 0.3):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        us.append(np.sqrt(w) * qcore.matrix_exponential(1j * 0.5 * (h + h.conj().T)))
    ok, resid = quantumness.unitality_check(us)
    assert ok and resid < 1e-12
    with pytest.raises(ValueError, match="not a channel"):
        quantumness.unitality_check([np.eye(2) * 0.5])


def test_unital_model_series_flat():
    rng = np.random.default_rng(6)
    m = dynamics.LindbladModel(0.6 * qcore.sigma_x, [qcore.sigma_z], rates=[0.8])
    series = quantumness.q_series(m, qcore.random_state(2, rng), np.linspace(0.0, 4.0, 17))
    assert np.abs(series.values - 1.0).max() < 1e-9
