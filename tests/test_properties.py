"""Property tests of the paper's invariants, driven by hypothesis."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envq import dynamics, models, qcore, quantumness, stochastic

MODELS = {
    "thermal-tls": models.ThermalTlsParams(1.0, 1.3).lindblad_model(),
    "fluorescence": models.FluorescenceParams(1.0, 1.5).lindblad_model(),
    "two-qubit": models.TwoQubitParams(1.0, 1.2).lindblad_model(),
}
TIMES = np.linspace(0.0, 6.0, 13)


def rescaled(model, s):
    """The same model on a clock running s times faster: H -> s H, V -> sqrt(s) V."""
    return dynamics.LindbladModel(s * model.h_bar, [np.sqrt(s) * v for v in model.jump_ops],
                                  rates=model.rates)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), log_s=st.floats(-12.0, 12.0))
@example(name="thermal-tls", log_s=-12.0)
@example(name="fluorescence", log_s=-12.0)
@example(name="two-qubit", log_s=-12.0)
@example(name="thermal-tls", log_s=12.0)
@example(name="fluorescence", log_s=12.0)
@example(name="two-qubit", log_s=12.0)
def test_degree_is_invariant_under_time_rescaling(name, log_s):
    model, s = MODELS[name], 10.0 ** log_s
    fast = rescaled(model, s)
    dq = quantumness.degree_of_quantumness(model).dq
    assert quantumness.degree_of_quantumness(fast).dq == pytest.approx(dq, rel=1e-12)
    rho0 = qcore.random_state(model.dim, np.random.default_rng(model.dim))
    # QuantumnessSeries raises BoundViolationError outside [0, dim]
    series = quantumness.q_series(fast, rho0, TIMES / s).values
    assert series.min() >= 0.0 and series.max() <= model.dim
    reference = quantumness.q_series(model, rho0, TIMES).values
    assert np.abs(series - reference).max() < 1e-10


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 3.0))
def test_real_coordinates_are_an_isometry_that_carries_the_trace_pairing(d, seed, t):
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, d), random_hermitian(rng, d)
    ya, yb = dynamics.real_coordinates(a), dynamics.real_coordinates(b)
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    assert ya.dtype == np.float64 and ya.shape == (d * d,)
    assert abs(np.linalg.norm(ya) - np.linalg.norm(a)) <= 1e-14 * np.linalg.norm(a)
    assert abs(ya @ yb - np.trace(a @ b).real) <= 1e-13 * scale
    assert np.abs(dynamics.hermitian_operator(ya, d) - a).max() <= 1e-15 * np.abs(a).max()
    # Q_t = Tr[rho_0 X_t] = y_rho0 . y_X with X_t = e^{tL}[I], against a complex expm
    h = random_hermitian(rng, d)
    jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d for _ in range(2)]
    model = dynamics.LindbladModel(h / (2 * d), jumps, rates=[0.6, 0.3])
    rho0 = qcore.random_state(d, rng).matrix
    x_t = quantumness.q_functional_series(model, [t])[0]
    paired = dynamics.real_coordinates(rho0) @ dynamics.real_coordinates(x_t)
    q_t = quantumness.q_series(model, rho0, [t]).values[0]
    assert abs(paired - q_t) <= 1e-13 * d
    gmat = dynamics.liouvillian(model).dense()
    exact = qcore.unvec(scipy.linalg.expm(gmat * t) @ qcore.vec(np.eye(d)), d)
    assert abs(q_t - np.trace(rho0 @ exact).real) <= 1e-12 * d


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), family=st.sampled_from(stochastic.NOISE_FAMILIES),
       seed=st.integers(0, 2 ** 32 - 1), log_s=st.floats(-9.0, 9.0))
@example(d=2, family="gaussian-white", seed=0, log_s=-9.0)
@example(d=3, family="ornstein-uhlenbeck", seed=0, log_s=-9.0)
@example(d=2, family="telegraph", seed=0, log_s=9.0)
@example(d=3, family="gaussian-white", seed=0, log_s=9.0)
def test_noise_q_is_one_on_every_clock(d, family, seed, log_s):
    # the same noisy dynamics on a clock s times faster: H -> s H, times, dt and
    # the correlation time / s, white amplitude * sqrt(s), colored amplitude * s
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_s
    h0, coupling = random_hermitian(rng, d), random_hermitian(rng, d) / d
    white = family == "gaussian-white"
    process = stochastic.NoiseProcess(family, 0.8 * (np.sqrt(s) if white else s),
                                      0.0 if white else 0.5 / s, coupling)
    rho0 = qcore.random_state(d, rng)
    series, stderr = stochastic.stochastic_q(process, s * h0, rho0, np.linspace(0.0, 1.0, 5) / s,
                                             8, seed, dt=0.04 / s)
    assert np.abs(series.values - 1.0).max() <= 1e-12
    assert stderr.max() <= 1e-12


def assert_reports_agree(closed, numeric):
    assert closed.dq == pytest.approx(numeric.dq, abs=1e-10)
    assert closed.q_infinity == pytest.approx(numeric.q_infinity, abs=1e-10)
    assert np.abs(closed.stationary.matrix - numeric.stationary.matrix).max() <= 1e-10
    assert np.abs(closed.optimal_state.matrix - numeric.optimal_state.matrix).max() <= 1e-8
    assert np.abs(closed.propagation_state().matrix
                  - numeric.propagation_state().matrix).max() <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.floats(0.3, 3.0), omega=st.floats(0.0, 6.0))
@example(gamma=1.0, omega=0.0)
@example(gamma=0.3, omega=6.0)
def test_closed_form_two_qubit_reports_equal_the_numeric_ones(gamma, omega):
    p = models.TwoQubitParams(gamma, omega)
    model = p.lindblad_model()
    closed, numeric = models.twoqubit_report(p), quantumness.degree_of_quantumness(model)
    assert_reports_agree(closed, numeric)
    late = [0.0, 60.0 / gamma]
    q = quantumness.q_series(model, closed.propagation_state(), late).values[-1]
    assert q == pytest.approx(closed.q_infinity, abs=1e-10)
    # one qubit of the pair, against the degree of the traced-out numeric state
    reduced = models.twoqubit_reduced(p)
    traced = qcore.QuantumState(qcore.partial_trace(numeric.stationary.matrix, [2, 2], keep=0))
    assert_reports_agree(reduced, quantumness.stationary_degree(traced))
    # its marginal series Tr[(P x I) e^{tL}[I x I/2]] reaches q_infinity too
    probe = qcore.tensor_product(reduced.propagation_state().matrix, np.eye(2))
    image = dynamics.propagate(dynamics.liouvillian(model), np.eye(4) / 2.0, late[-1])
    assert np.trace(probe @ image).real == pytest.approx(reduced.q_infinity, abs=1e-10)
