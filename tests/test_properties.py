"""Property tests of the paper's invariants, driven by hypothesis."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envq import dynamics, microscopic, models, qcore, quantumness, stochastic

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([1e-9, 1e-3, 1e3, 1e9]))
def test_degree_of_a_random_model_is_invariant_under_time_rescaling(d, seed, s):
    rng = np.random.default_rng(seed)
    jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d for _ in range(2)]
    model = dynamics.LindbladModel(random_hermitian(rng, d) / (2 * d), jumps,
                                   rates=rng.uniform(0.3, 1.0, size=2))
    fast = rescaled(model, s)
    dq = quantumness.degree_of_quantumness(model).dq
    assert abs(quantumness.degree_of_quantumness(fast).dq - dq) <= 1e-12
    # QuantumnessSeries raises BoundViolationError outside [0, dim]
    series = quantumness.q_series(fast, qcore.random_state(d, rng), TIMES / s).values
    assert series.min() >= 0.0 and series.max() <= d


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
@example(d=2, family="gaussian-white", seed=0, log_s=2.3719203511481517)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 5), sparse=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(0.0, 3.0))
def test_forward_and_dual_flows_pair_through_the_trace(d, sparse, seed, t):
    # Tr[A e^{tL}[rho]] = Tr[e^{tL*}[A] rho] for Hermitian A and states rho, with
    # both generators stored dense or sparse; sparse jumps leave some flows on a block
    rng = np.random.default_rng(seed)
    jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
             * (rng.random(size=(d, d)) < 0.5) / d for _ in range(2)]
    model = dynamics.LindbladModel(random_hermitian(rng, d) / (2 * d), jumps, rates=[0.6, 0.3])
    real = (dynamics._sparse_real(model._kronecker, np.ones(d * d, dtype=bool)) if sparse
            else dynamics._dense_real(model._kronecker))
    forward = dynamics.Superoperator(real, d, "forward")
    dual = dynamics.Superoperator(real.T, d, "dual")
    a, rho = random_hermitian(rng, d), qcore.random_state(d, rng).matrix
    lhs = np.trace(a @ dynamics.propagate(forward, rho, t))
    rhs = np.trace(dynamics.propagate(dual, a, t) @ rho)
    assert abs(lhs - rhs) <= 1e-12 * d * np.abs(a).max()


def phase_covariant_model(rng, d, shift, raising):
    """Random diagonal H, a lowering jump that moves a level down by ``shift`` and,
    when ``raising``, a jump that moves it up by as much."""
    jumps = [np.diag(rng.normal(size=d - shift) + 1j * rng.normal(size=d - shift), k)
             for k in ((shift, -shift) if raising else (shift,))]
    return dynamics.LindbladModel(np.diag(rng.normal(size=d)), jumps,
                                  rates=rng.uniform(0.3, 1.0, size=len(jumps)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(8, 16), shift=st.integers(1, 3), raising=st.booleans(), dual=st.booleans(),
       start=st.sampled_from(["identity", "bands", "level"]),
       bands=st.sets(st.integers(0, 3), min_size=1, max_size=2), level=st.integers(0, 15),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=16, shift=1, raising=True, dual=True, start="identity", bands={0}, level=0, seed=0)
@example(d=8, shift=3, raising=True, dual=False, start="bands", bands={1, 3}, level=0, seed=0)
@example(d=12, shift=2, raising=False, dual=True, start="level", bands={0}, level=4, seed=0)
@example(d=12, shift=2, raising=False, dual=False, start="level", bands={0}, level=8, seed=0)
def test_sector_route_of_a_phase_covariant_model_matches_the_dense_exponential(
        d, shift, raising, dual, start, bands, level, seed):
    # a phase-covariant model keeps every band |n><n + b| of an operator in
    # place, so the flow of I, of a random operator on a few bands or of one
    # level |n><n| runs on a sector, which the fill bound's sparse storage
    # searches on the Kronecker pattern; without the raising jump the forward
    # flow of a level only falls and its dual only climbs.  Each must match
    # one scipy expm of the dense real form and leave the other bands exactly 0
    rng = np.random.default_rng(seed)
    model = phase_covariant_model(rng, d, shift, raising)
    g = dynamics.dual_liouvillian(model) if dual else dynamics.liouvillian(model)
    assert g.is_sparse
    offset = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    on_bands = np.isin(offset, list(bands) if start == "bands" else [0])
    x0 = {"identity": np.eye(d),
          "bands": np.where(on_bands, random_hermitian(rng, d), 0.0),
          "level": np.diag(np.arange(d) == level % d).astype(float)}[start]
    times = np.concatenate([[0.0], np.geomspace(0.02, 2.0, 4)])
    real = dynamics._dense_real(model._kronecker)
    real = real.T if dual else real
    y0 = dynamics.real_coordinates(x0)
    for t, x in zip(times, dynamics.propagate_series(g, x0, times)):
        exact = dynamics.hermitian_operator(scipy.linalg.expm(real * t) @ y0, d)
        assert np.abs(x - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
        assert not x[~on_bands].any()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim_s=st.integers(2, 3), dim_e=st.integers(2, 4), commuting=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 4.0))
def test_oracle_direct_equals_oracle_dual(dim_s, dim_e, commuting, seed, t):
    # the joint-space oracle's two routes to Q_t: the rotated system state
    # paired with I x sigma0, and the system trace of the dual image
    rng = np.random.default_rng(seed)
    model = microscopic.random_joint_model(dim_s, dim_e, rng, commuting=commuting)
    rho0 = qcore.random_state(dim_s, rng)
    direct = microscopic.quantumness_direct(model, rho0, t)
    # quantumness_via_dual raises BoundViolationError outside [0, dim_s]
    dual = microscopic.quantumness_via_dual(model, rho0, t)
    assert 0.0 <= dual <= dim_s and abs(dual - direct) <= 1e-12 * dim_s


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim_s=st.sampled_from([2, 3]), dim_e=st.integers(2, 8), commuting=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 4.0))
def test_oracle_is_unital_on_commuting_baths_and_its_routes_agree(dim_s, dim_e, commuting,
                                                                  seed, t):
    # a bath that commutes with H (a Hamiltonian ensemble) is classical:
    # U^dag (I x sigma0) U = I x sigma0, so both routes read Q = 1; any other
    # bath gives the two routes one value, criterion 1's 1e-10
    rng = np.random.default_rng(seed)
    model = microscopic.random_joint_model(dim_s, dim_e, rng, commuting=commuting)
    rho0 = qcore.random_state(dim_s, rng)
    direct = microscopic.quantumness_direct(model, rho0, t)
    dual = microscopic.quantumness_via_dual(model, rho0, t)
    if commuting:
        assert abs(direct - 1.0) <= 1e-10 and abs(dual - 1.0) <= 1e-10
    assert abs(direct - dual) <= 1e-10


def degenerate_commuting_bath(rng, dim_s, dim_e, levels, repeat):
    """A JointModel whose sigma0 has at most ``levels`` distinct eigenvalues, with bath-diagonal
    coupling in a random eigenbasis; ``repeat`` makes two conditional Hamiltonians coincide."""
    u, _ = np.linalg.qr(rng.normal(size=(dim_e, dim_e)) + 1j * rng.normal(size=(dim_e, dim_e)))
    p = rng.dirichlet(np.ones(levels))[np.sort(rng.integers(levels, size=dim_e))]
    sigma0 = qcore.QuantumState((u * (p / p.sum())) @ u.conj().T)
    conditional = [random_hermitian(rng, dim_s) for _ in range(dim_e)]
    if repeat:
        conditional[-1] = conditional[0]
    h_i = sum(qcore.tensor_product(hk, np.outer(u[:, k], u[:, k].conj()))
              for k, hk in enumerate(conditional))
    h_e = (u * rng.normal(size=dim_e)) @ u.conj().T
    return microscopic.JointModel(random_hermitian(rng, dim_s), h_e, h_i, sigma0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim_s=st.integers(2, 3), dim_e=st.integers(2, 6), levels=st.integers(1, 5),
       repeat=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([1e-9, 1.0, 1e9]))
def test_ensemble_reduction_of_a_degenerate_bath_reconstructs_the_reduced_state(
        dim_s, dim_e, levels, repeat, seed, s):
    # a commuting bath whose sigma0 eigenbasis does not decouple the conditional
    # Hamiltonians is still a weighted unitary ensemble, on a clock s times faster too
    rng = np.random.default_rng(seed)
    bath = degenerate_commuting_bath(rng, dim_s, dim_e, min(levels, dim_e - 1), repeat)
    model = microscopic.JointModel(s * bath.h_s, s * bath.h_e, s * bath.h_i, bath.sigma0)
    pairs = microscopic.hamiltonian_ensemble_reduction(model)
    assert abs(sum(w for w, _ in pairs) - 1.0) <= 1e-12
    rho0 = qcore.random_state(dim_s, rng).matrix
    for t in (0.7 / s, 2.3 / s):
        recon = sum(w * (qcore.matrix_exponential(-1j * hk * t) @ rho0
                         @ qcore.matrix_exponential(1j * hk * t)) for w, hk in pairs)
        exact = microscopic.reduced_state(model, rho0, t).matrix
        assert np.abs(recon - exact).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 3), law=st.sampled_from(["exponential", "gamma-integer", "gamma-real"]),
       unital=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, law="gamma-real", unital=False, seed=0)
@example(d=3, law="gamma-real", unital=True, seed=0)
def test_collisional_series_keeps_q_in_bounds_and_a_unital_chain_at_one(d, law, unital, seed):
    # the series mode's routes: the clock for exponential and integer-shape
    # gamma waits, the trapezoid at its default step for the other shapes
    rng = np.random.default_rng(seed)
    rate = rng.uniform(0.5, 4.0)
    waiting = {"exponential": lambda: stochastic.WaitingTime("exponential", rate=rate),
               "gamma-integer": lambda: stochastic.WaitingTime("gamma", rate=rate,
                                                               shape=float(rng.integers(2, 4))),
               "gamma-real": lambda: stochastic.WaitingTime("gamma", rate=rate,
                                                            shape=rng.uniform(1.0, 4.0))}[law]()
    if unital:  # a random unitary mixture
        kraus = [np.sqrt(p) * np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                 for p in rng.dirichlet(np.ones(2))]
    else:  # the two blocks of a random isometry
        iso = np.linalg.qr(rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d)))[0]
        kraus = [iso[:d], iso[d:]]
    model = stochastic.CollisionalModel(random_hermitian(rng, d), kraus, waiting)
    times = np.linspace(0.0, rng.uniform(0.5, 4.0), 7)
    # QuantumnessSeries raises BoundViolationError outside [0, dim]
    q = stochastic.collisional_q(model, qcore.random_state(d, rng), times).values
    assert q.min() >= 0.0 and q.max() <= d
    if unital:
        assert np.abs(q - 1.0).max() < 1e-12
