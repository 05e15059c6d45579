import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from envq import cli, dynamics, microscopic, models, qcore, quantumness, stochastic
from envq.qcore import DegenerateSteadyStateError, QuantumState


def thermal_model(beta=2.0, gamma=1.0):
    return models.ThermalTlsParams(gamma, beta).lindblad_model()


def rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_herm(rng, d):
    a = rand_op(rng, d)
    return a + a.conj().T


def stored(model, sparse):
    """Forward and dual generators of a model, built in the given storage."""
    real = dynamics._generator(model, sparse)
    return (dynamics.Superoperator(real, model.dim, "forward"),
            dynamics.Superoperator(real.T, model.dim, "dual"))


def test_model_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        dynamics.LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    with pytest.raises(ValueError, match="semidefinite"):
        dynamics.LindbladModel(qcore.sigma_z, [qcore.sigma_minus], rates=[-1.0])
    with pytest.raises(ValueError, match="Hermitian"):
        dynamics.LindbladModel(qcore.sigma_z, [qcore.sigma_minus, qcore.sigma_plus],
                               rates=np.array([[1.0, 1.0], [0.0, 1.0]]))
    # non-finite input is rejected at construction, naming the entry
    with pytest.raises(ValueError, match=r"h_bar has a non-finite entry \(nan"):
        dynamics.LindbladModel(np.full((2, 2), np.nan), [])
    with pytest.raises(ValueError, match=r"jump operator has a non-finite entry \(inf"):
        dynamics.LindbladModel(qcore.sigma_z, [np.diag([1.0, np.inf])])
    with pytest.raises(ValueError, match=r"rate matrix has a non-finite entry \(inf"):
        dynamics.LindbladModel(qcore.sigma_z, [qcore.sigma_minus], rates=[np.inf])


def test_empty_operators_are_model_errors():
    # a 0 x 0 matrix is rejected where it enters, naming the operator
    empty = np.zeros((0, 0))
    exponential = stochastic.WaitingTime("exponential", rate=1.0)
    for name, build in (
        ("h_bar", lambda: dynamics.LindbladModel(empty, [])),
        ("jump operator", lambda: dynamics.LindbladModel(qcore.sigma_z, [empty])),
        ("free Hamiltonian", lambda: stochastic.CollisionalModel(empty, [empty], exponential)),
        ("Kraus operator", lambda: stochastic.CollisionalModel(qcore.sigma_z, [empty], exponential)),
        ("h_s", lambda: microscopic.JointModel(empty, qcore.sigma_z, empty, np.eye(2) / 2)),
        ("state", lambda: QuantumState(empty)),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a square matrix of at least 1 x 1, "
                                             r"got shape \(0, 0\)"):
            build()


def test_loosely_valid_state_propagates_as_its_hermitian_part():
    # QuantumState(tol=1e-8) accepts a 5e-9 defect and keeps the exact Hermitian
    # part, which the dynamics layer's 1e-10 gate then passes, forward and dual
    m = np.array([[0.5, 0.1 + 5e-9], [0.1, 0.5]])
    state = QuantumState(m, tol=1e-8)
    assert np.array_equal(state.matrix, 0.5 * (m + m.conj().T))
    times = np.linspace(0.0, 2.0, 5)
    model = models.thermal_oscillator_model(1.2, 0.4, 1)
    exact = QuantumState(state.matrix)
    for g in (dynamics.liouvillian(model), dynamics.dual_liouvillian(model)):
        assert np.array_equal(dynamics.propagate_series(g, state, times),
                              dynamics.propagate_series(g, exact, times))
    q = quantumness.q_series(model, state, times).values
    dual = dynamics.propagate_series(dynamics.dual_liouvillian(model), state, times)
    assert np.abs(np.trace(dual, axis1=1, axis2=2).real - q).max() < 1e-12
    # the oscillator's top-level alarm trips on any two-level truncation, so the
    # same block sits in the two lowest levels of a twelve-level one, run to
    # t = 0.5, where that truncation holds
    p = models.OscillatorParams(0.7, 2.85, 11)
    big = np.zeros((p.dim, p.dim), dtype=complex)
    big[:2, :2] = m
    times = times / 4.0
    state = QuantumState(big, tol=1e-8)
    q = models.oscillator_q_numeric(p, state, times)
    assert np.array_equal(q, models.oscillator_q_numeric(p, QuantumState(state.matrix), times))
    assert np.abs(q - quantumness.q_series(p.lindblad_model(), state, times).values).max() < 1e-12


def scaled_hamiltonian(s, defect):
    """s A A^dag / max|A A^dag| for a fixed random 4 x 4 A, with defect * s added to one
    off-diagonal entry."""
    a = rand_op(np.random.default_rng(50), 4)
    h = a @ a.conj().T
    h = h / np.abs(h).max()
    h[0, 1] += defect
    return s * h


def test_hermiticity_gates_scale_with_the_operator():
    # defects of 1e-15 of the largest entry, in H and in the rate matrix, pass at
    # every scale, and the same dynamics on a clock s times faster keeps its degree
    jumps = [np.kron(qcore.sigma_minus, np.eye(2)),
             np.kron(np.eye(2), qcore.sigma_z) + np.kron(qcore.sigma_minus, qcore.sigma_plus)]
    rates = np.array([[0.7, 0.2 + 0.1j + 1e-15], [0.2 - 0.1j, 0.4]])
    kraus = [np.sqrt(0.6) * np.eye(4), np.sqrt(0.4) * np.kron(qcore.sigma_x, qcore.sigma_z)]
    degrees = []
    for s in (1e-9, 1.0, 1e6):
        h = scaled_hamiltonian(s, 1e-15)
        degrees.append(quantumness.degree_of_quantumness(
            dynamics.LindbladModel(h, jumps, rates=s * rates)).dq)
        stochastic.CollisionalModel(h, kraus, stochastic.WaitingTime("exponential", rate=s))
        # a negative rate of 1e-15 of the largest one is roundoff too
        dynamics.LindbladModel(h, jumps, rates=s * np.array([1.0, -1e-15]))
    assert degrees[0] > 0.1
    assert degrees == pytest.approx([degrees[1]] * 3, rel=1e-12)
    # defects of 1e-9 of the largest entry are still defects, at every scale
    h = scaled_hamiltonian(1.0, 1e-9)
    with pytest.raises(ValueError,
                       match=r"h_bar is not Hermitian \(max deviation 1\.000e-09 > 1\.000e-10\)"):
        dynamics.LindbladModel(h, jumps)
    with pytest.raises(ValueError, match="free Hamiltonian is not Hermitian"):
        stochastic.CollisionalModel(h, kraus, stochastic.WaitingTime("exponential", rate=1.0))
    for s in (1.0, 1e6):
        h = scaled_hamiltonian(s, 0.0)
        with pytest.raises(ValueError, match="rate matrix is not Hermitian"):
            dynamics.LindbladModel(h, jumps, rates=s * (rates + [[0.0, 1e-9], [0.0, 0.0]]))
    # the positivity gate is relative to the largest rate, with no unit floor
    for s in (1e-9, 1.0, 1e6):
        h = scaled_hamiltonian(s, 0.0)
        with pytest.raises(ValueError, match="rate matrix is not positive semidefinite"):
            dynamics.LindbladModel(h, jumps, rates=s * np.array([1.0, -1e-9]))


def test_liouvillian_annihilates_trace():
    rng = np.random.default_rng(0)
    g = dynamics.liouvillian(thermal_model())
    for _ in range(100):
        x = rand_herm(rng, 2)
        assert abs(np.trace(g.apply(x))) < 1e-12
    # trace functional is a left null vector
    assert np.abs(qcore.vec(np.eye(2)).conj() @ g.matrix).max() < 1e-12


def test_pure_commutator_generator():
    m = dynamics.LindbladModel(0.5 * qcore.sigma_z, [])
    g = dynamics.liouvillian(m)
    x = np.array([[0.2, 0.5 - 0.1j], [0.5 + 0.1j, 0.8]])
    expected = -1j * (m.h_bar @ x - x @ m.h_bar)
    assert np.abs(g.apply(x) - expected).max() < 1e-14


def test_thermal_stationary_mean():
    p = models.ThermalTlsParams(1.0, 1.3)
    rho = dynamics.stationary_state(dynamics.liouvillian(p.lindblad_model()))
    sz = np.trace(qcore.sigma_z @ rho.matrix).real
    assert abs(sz - (p.zeta - p.kappa) / (p.zeta + p.kappa)) < 1e-11
    expected = np.diag([p.zeta, p.kappa]) / (p.kappa + p.zeta)
    assert np.abs(rho.matrix - expected).max() < 1e-11


def test_adjoint_pairing():
    rng = np.random.default_rng(1)
    # include a model with non-diagonal rate matrix
    rates = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])
    m = dynamics.LindbladModel(0.4 * qcore.sigma_x,
                               [qcore.sigma_minus, qcore.sigma_z], rates=rates)
    for model in (thermal_model(), m):
        g = dynamics.liouvillian(model)
        gd = dynamics.dual_liouvillian(model)
        for _ in range(20):
            a, rho = rand_herm(rng, 2), rand_herm(rng, 2)
            lhs = np.trace(a @ g.apply(rho))
            rhs = np.trace(rho @ gd.apply(a))
            assert abs(lhs - rhs) < 1e-11


def test_dual_annihilates_identity():
    for model in (thermal_model(), models.FluorescenceParams(1.0, 2.0).lindblad_model()):
        gd = dynamics.dual_liouvillian(model)
        assert np.abs(gd.apply(np.eye(model.dim))).max() < 1e-13


def test_thermal_dual_trace_rate():
    # d/dt Tr[A_t] = -(kappa - zeta) Tr[sigma_z A_t]
    rng = np.random.default_rng(2)
    p = models.ThermalTlsParams(1.0, 0.9)
    gd = dynamics.dual_liouvillian(p.lindblad_model())
    for _ in range(10):
        a = rand_herm(rng, 2)
        lhs = np.trace(gd.apply(a))
        rhs = -(p.kappa - p.zeta) * np.trace(qcore.sigma_z @ a)
        assert abs(lhs - rhs) < 1e-12


def test_propagate_identity_at_zero():
    rng = np.random.default_rng(3)
    g = dynamics.liouvillian(thermal_model())
    x = rand_herm(rng, 2)
    assert np.abs(dynamics.propagate(g, x, 0.0) - x).max() < 1e-14


def test_propagate_semigroup():
    rng = np.random.default_rng(4)
    g = dynamics.liouvillian(models.FluorescenceParams(1.0, 1.5).lindblad_model())
    rho = qcore.random_state(2, rng).matrix
    one = dynamics.propagate(g, rho, 2.1)
    two = dynamics.propagate(g, dynamics.propagate(g, rho, 0.9), 1.2)
    assert np.abs(one - two).max() < 1e-10


def test_propagate_preserves_hermiticity_and_positivity():
    rng = np.random.default_rng(5)
    g = dynamics.liouvillian(thermal_model())
    rho = qcore.random_state(2, rng).matrix
    for t in np.linspace(0.1, 5.0, 12):
        out = dynamics.propagate(g, rho, t)
        assert np.abs(out - out.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-8


def test_thermal_population_relaxation_rate():
    p = models.ThermalTlsParams(1.0, 1.1)
    evals = dynamics.generator_spectrum(dynamics.liouvillian(p.lindblad_model()))
    target = -(p.kappa + p.zeta)
    assert np.abs(evals - target).min() < 1e-10


def test_stationary_fluorescence_means():
    p = models.FluorescenceParams(1.0, 0.8)
    rho = dynamics.stationary_state(dynamics.liouvillian(p.lindblad_model()))
    sz = np.trace(qcore.sigma_z @ rho.matrix).real
    sy = np.trace(qcore.sigma_y @ rho.matrix).real
    sz_exp, sy_exp = models.fluorescence_stationary_means(p)
    assert abs(sz - sz_exp) < 1e-11
    assert abs(sy - sy_exp) < 1e-11


def test_stationary_two_qubit_closed_form():
    p = models.TwoQubitParams(1.0, 1.4)
    rho = dynamics.stationary_state(dynamics.liouvillian(p.lindblad_model()))
    assert np.abs(rho.matrix - models.twoqubit_stationary_matrix(p)).max() < 1e-10


def test_stationary_rejects_degenerate_manifold():
    # no dissipation: every energy eigenprojector is stationary
    m = dynamics.LindbladModel(0.5 * qcore.sigma_z, [])
    for sparse in (False, True):
        with pytest.raises(DegenerateSteadyStateError, match="singular"):
            dynamics.stationary_state(stored(m, sparse)[0])
    # decay 1e-12 times slower than the precession: unique in exact
    # arithmetic, but inside the relative uniqueness margin
    weak = dynamics.LindbladModel(0.5 * qcore.sigma_z, [qcore.sigma_minus], rates=[1e-12])
    with pytest.raises(DegenerateSteadyStateError, match="margin"):
        dynamics.stationary_state(dynamics.liouvillian(weak))


def test_dense_margin_matches_the_onenormest_estimate():
    # LAPACK's gecon on the bordered LU runs the t = 1 Hager-Higham estimate
    # of ||A^-1||_1, as onenormest(t=1) does on an operator that solves with
    # that LU.  The two stop their iterations by different rules, so they can
    # part: of 680 random generators of this kind (seeds 60 + d), one at
    # d = 2 read 0.141575 against 0.141621, where the exact margin is 0.0687.
    # Both estimates are lower bounds of the norm, so neither margin falls
    # below the exact one
    rng = np.random.default_rng(60)
    parted = 0
    for d in (2, 3, 4, 8, 12) * 8:
        g = dynamics.liouvillian(random_lindblad(rng, d))
        assert not g.is_sparse
        a = np.array(g.real)
        a[0] = g.norm * qcore.vec(np.eye(d))
        lu = scipy.linalg.lu_factor(a)
        inverse = scipy.sparse.linalg.LinearOperator(
            a.shape, matvec=lambda b: scipy.linalg.lu_solve(lu, b),
            rmatvec=lambda b: scipy.linalg.lu_solve(lu, b, trans=1), dtype=float)
        a_norm = dynamics._one_norm(a)
        expected = 1.0 / (a_norm * scipy.sparse.linalg.onenormest(inverse, t=1))
        exact = 1.0 / (a_norm * np.abs(np.linalg.inv(a)).sum(axis=0).max())
        solve, margin = dynamics._bordered_lu(g, g.norm)
        parted += abs(margin / expected - 1.0) > 1e-12
        assert margin >= exact * (1.0 - 1e-12)
        rhs = rng.normal(size=d * d)
        assert np.array_equal(solve(rhs), scipy.linalg.lu_solve(lu, rhs))
    assert parted <= 1


@pytest.mark.parametrize("n_max", [41, 61])
def test_stationary_truncated_oscillator_is_thermal_ladder(n_max):
    p = models.OscillatorParams(0.7, 2.85, n_max)
    g = dynamics.liouvillian(p.lindblad_model())
    assert g.is_sparse
    rho = dynamics.stationary_state(g)
    assert np.abs(rho.matrix - models.truncated_thermal_state(p).matrix).max() < 1e-12


def test_time_reversed_state():
    rng = np.random.default_rng(6)
    real_rho = QuantumState(np.diag([0.3, 0.7]).astype(complex))
    assert np.abs(dynamics.time_reversed_state(real_rho).matrix - real_rho.matrix).max() == 0.0
    p = models.TwoQubitParams(1.0, 0.9)
    stat = QuantumState(models.twoqubit_stationary_matrix(p))
    rev = dynamics.time_reversed_state(stat)
    assert np.abs(rev.matrix[0, 3] - stat.matrix[0, 3].conj()).max() < 1e-15
    a = np.linalg.eigvalsh(stat.matrix)
    b = np.linalg.eigvalsh(rev.matrix)
    assert np.abs(a - b).max() < 1e-12
    mixed = qcore.random_state(3, rng)
    assert np.abs(np.sort(np.linalg.eigvalsh(dynamics.time_reversed_state(mixed).matrix))
                  - np.sort(np.linalg.eigvalsh(mixed.matrix))).max() < 1e-12


def test_sparse_dense_generators_agree():
    m = models.FluorescenceParams(1.0, 1.2).lindblad_model()
    dense, dense_d = stored(m, False)
    sparse, sparse_d = stored(m, True)
    assert np.abs(dense.matrix - sparse.matrix.toarray()).max() < 1e-14
    assert np.abs(dense_d.matrix - sparse_d.matrix.toarray()).max() < 1e-14


def test_model_builds_its_generator_once(monkeypatch):
    calls, checked = [], []
    build, check = dynamics._generator, dynamics.Superoperator._checked

    def counted(model, sparse):
        calls.append(sparse)
        return build(model, sparse)

    def counted_check(self, real):
        checked.append((self.kind, real.shape[0]))  # the finiteness check of a real form or block
        return check(self, real)

    monkeypatch.setattr(dynamics, "_generator", counted)
    monkeypatch.setattr(dynamics.Superoperator, "_checked", counted_check)
    rng = np.random.default_rng(12)
    for model in (random_lindblad(rng, 3), models.OscillatorParams(0.7, 2.85, 11).lindblad_model()):
        calls.clear()
        checked.clear()
        g = dynamics.liouvillian(model)
        gd = dynamics.dual_liouvillian(model)
        quantumness.degree_of_quantumness(model)
        quantumness.q_series(model, np.eye(model.dim) / model.dim, [0.0, 0.5])
        models.oscillator_q_numeric(model, QuantumState.pure(qcore.ket(model.dim, 0)), [0.0])
        assert dynamics.liouvillian(model) is g and dynamics.dual_liouvillian(model) is gd
        forward = g.dense() if g.is_sparse else g.matrix
        assert np.array_equal(gd.dense(), forward.conj().T)
        assert calls == [None]
        # each whole real form is checked once, on its first read; the sparse
        # oscillator's two flows ran on their diagonal sectors, each block
        # checked as it was assembled
        n = model.dim ** 2
        assert [kind for kind, size in checked if size == n] == ["forward", "dual"]
        blocks = [("forward", model.dim), ("dual", model.dim)] if g.is_sparse else []
        assert [(kind, size) for kind, size in checked if size != n] == blocks
        with pytest.raises(ValueError, match="read-only"):
            (g.matrix.data if g.is_sparse else g.matrix)[0] = 0.0
        # the cached real generator is shared by every caller
        with pytest.raises(ValueError, match="read-only"):
            (g.real.data if g.is_sparse else g.real)[0] = 0.0


def test_propagate_sparse_route_matches_dense():
    rng = np.random.default_rng(7)
    m = models.FluorescenceParams(1.0, 1.2).lindblad_model()
    rho = qcore.random_state(2, rng).matrix
    dense = dynamics.propagate(stored(m, False)[0], rho, 1.7)
    sparse = dynamics.propagate(stored(m, True)[0], rho, 1.7)
    assert np.abs(dense - sparse).max() < 1e-11


def test_kraus_extraction_reconstructs_channel():
    rng = np.random.default_rng(8)
    m = models.ThermalTlsParams(1.0, 1.5).lindblad_model()
    g = dynamics.liouvillian(m)
    ch = dynamics.Superoperator(scipy.linalg.expm(g.real * 0.8), 2)
    kraus = dynamics.kraus_from_superoperator(ch)
    comp = sum(k.conj().T @ k for k in kraus)
    assert np.abs(comp - np.eye(2)).max() < 1e-12
    x = rand_herm(rng, 2)
    rebuilt = sum(k @ x @ k.conj().T for k in kraus)
    assert np.abs(rebuilt - ch.apply(x)).max() < 1e-12


def test_spectral_gap_thermal():
    p = models.ThermalTlsParams(1.0, 2.0)
    g = dynamics.liouvillian(p.lindblad_model())
    gap = dynamics.spectral_gap(g)
    # slowest mode is the coherence decay at (kappa + zeta) / 2
    assert abs(gap - 0.5 * (p.kappa + p.zeta)) < 1e-10
    # the zero test scales with the generator, so a rescaled clock rescales the gap
    for s in (1e-12, 1e12):
        scaled = dynamics.Superoperator(s * g.real, g.dim, kind="forward")
        assert dynamics.spectral_gap(scaled) == pytest.approx(s * gap, rel=1e-12)


def test_unital_jump_conditions_annihilate_identity():
    # Hermitian jumps, or unitary jumps with diagonal rates, make the
    # forward generator kill the identity (so the series stays at 1)
    rng = np.random.default_rng(9)
    a = rand_op(rng, 3)
    herm = 0.5 * (a + a.conj().T)
    m1 = dynamics.LindbladModel(np.zeros((3, 3), dtype=complex), [herm, qcore.identity(3)],
                                rates=[0.7, 0.2])
    b = rand_op(rng, 3)
    u = qcore.matrix_exponential(1j * 0.5 * (b + b.conj().T))
    m2 = dynamics.LindbladModel(np.zeros((3, 3), dtype=complex), [u], rates=[1.3])
    for m in (m1, m2):
        g = dynamics.liouvillian(m)
        assert np.abs(g.apply(np.eye(3))).max() < 1e-12


def random_lindblad(rng, d):
    h = rand_op(rng, d)
    jumps = [rand_op(rng, d) / np.sqrt(2.0 * d) for _ in range(2)]
    return dynamics.LindbladModel(0.5 * (h + h.conj().T) / d, jumps, rates=[0.7, 0.4])


def time_grid(kind, t_max, n):
    if kind == "uniform":
        return np.linspace(0.0, t_max, n)
    return np.concatenate([[0.0], np.geomspace(t_max / 50.0, t_max, n - 1)])


@pytest.mark.parametrize("grid", ["uniform", "log"])
@pytest.mark.parametrize("d", [2, 4, 12])
def test_propagate_series_matches_expm_reference(d, grid):
    # the dense generators reuse exponentials except on the d = 12 log grid,
    # where expm_multiply is cheaper; so do their sparse copies, densified
    rng = np.random.default_rng(10 + d)
    model = random_lindblad(rng, d)
    rho = qcore.random_state(d, rng).matrix
    times = time_grid(grid, 2.0, 41)
    dense = dynamics.liouvillian(model)
    assert not dense.is_sparse
    exact = [qcore.unvec(scipy.linalg.expm(dense.matrix * t) @ qcore.vec(rho), d) for t in times]
    for g in (dense, stored(model, True)[0]):
        series = dynamics.propagate_series(g, rho, times)
        assert max(np.abs(out - ref).max() for out, ref in zip(series, exact)) < 1e-12


def band_expm_reference(g, x0, t):
    """exp(t G) vec(x0) over the full space, one scipy.linalg.expm per band n - m.

    The thermal generator couples |n><m| only to operators of the same band
    n - m (asserted on every stored entry), so exp(t G) is the direct sum
    of the band exponentials and a band where x0 vanishes stays 0.
    """
    d = g.dim
    band = np.arange(d * d) % d - np.arange(d * d) // d
    rows, cols = g.matrix.nonzero()
    assert np.array_equal(band[rows], band[cols])
    v = qcore.vec(x0)
    out = np.zeros(v.shape, dtype=complex)
    for k in np.unique(band[v != 0]):
        idx = np.flatnonzero(band == k)
        out[idx] = scipy.linalg.expm(g.matrix[np.ix_(idx, idx)].toarray() * t) @ v[idx]
    return qcore.unvec(out, d)


@pytest.mark.parametrize("grid", ["uniform", "log"])
def test_propagate_series_oscillator_matches_expm_reference(grid):
    # the ground state's dual flow stays diagonal and one coherence |0><1|
    # fills its band; both start on fewer entries than they reach, and the
    # forward flow of I stays diagonal under the trace check
    times = time_grid(grid, 1.0, 7)
    for n_max in (41, 61):
        p = models.OscillatorParams(0.7, 2.85, n_max)
        model = p.lindblad_model()
        ground = np.zeros((p.dim, p.dim), dtype=complex)
        ground[0, 0] = 1.0
        coherent = np.zeros_like(ground)
        coherent[:2, :2] = 0.5
        gd = dynamics.dual_liouvillian(model)
        g = dynamics.liouvillian(model)
        assert gd.is_sparse and g.is_sparse
        for gen, x0, bands in ((gd, ground, 1), (gd, coherent, 2), (g, np.eye(p.dim), 1)):
            outside = np.abs(np.subtract.outer(np.arange(p.dim), np.arange(p.dim))) >= bands
            for t, out in zip(times, dynamics.propagate_series(gen, x0, times)):
                exact = band_expm_reference(gen, x0, t)
                assert np.abs(out - exact).max() < 1e-12 * np.abs(exact).max()
                assert not out[outside].any()


@pytest.mark.parametrize("n_max", [41, 61])
def test_sparse_oscillator_routes_run_on_the_sector_without_the_generator(tmp_path, monkeypatch,
                                                                            n_max):
    # q_series, q_functional_series, oscillator_q_numeric and `envq qt` step
    # the diagonal sector of a model built for the call, assembled from the
    # Kronecker factors: the d^2 x d^2 real form is never built
    p = models.OscillatorParams(0.7, 2.85, n_max)
    times = time_grid("log", 1.0, 7)
    ground = QuantumState.pure(qcore.ket(p.dim, 0))
    rho0 = qcore.random_state(p.dim, np.random.default_rng(n_max))
    calls, numeric = [], models.oscillator_q_numeric
    build = dynamics._generator
    monkeypatch.setattr(dynamics, "_generator", lambda *args: calls.append(args) or build(*args))

    def captured(*args):
        calls.append("qt")
        captured.values = numeric(*args)
        return captured.values

    model = p.lindblad_model()
    q = quantumness.q_series(model, rho0, times).values
    functionals = quantumness.q_functional_series(p.lindblad_model(), times)
    q_numeric = numeric(p, ground, times)
    images = dynamics.propagate_series(dynamics.dual_liouvillian(p.lindblad_model()), ground, times)
    monkeypatch.setattr(models, "oscillator_q_numeric", captured)
    text = (f"[model]\ntype = oscillator\ngamma = 0.7\nbeta_hw0 = 2.85\nn_max = {n_max}\n\n"
            "[times]\nt_max = 1.0\nsteps = 5\n")
    path = tmp_path / "osc.cfg"
    path.write_text(text)
    assert cli.run(["qt", "--config", str(path), "--out", str(tmp_path / "q.csv")]) == 0
    assert calls == ["qt"]
    off_diagonal = ~np.eye(p.dim, dtype=bool)
    g, gd = dynamics.liouvillian(model), dynamics.dual_liouvillian(model)
    for t, x, image, value, value_numeric in zip(times, functionals, images, q, q_numeric):
        exact = band_expm_reference(g, np.eye(p.dim), t)
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()
        assert not x[off_diagonal].any()
        assert abs(value - np.trace(rho0.matrix @ exact).real) <= 1e-12 * value
        exact = band_expm_reference(gd, ground.matrix, t)
        assert np.abs(image - exact).max() <= 1e-12 * np.abs(exact).max()
        assert not image[off_diagonal].any()
        assert abs(value_numeric - np.trace(exact).real) <= 1e-12 * value_numeric
    grid = np.linspace(0.0, 1.0, 5)
    exact = [np.trace(band_expm_reference(gd, ground.matrix, t)).real for t in grid]
    assert np.abs(captured.values - exact).max() <= 1e-12 * max(exact)
    written = np.loadtxt(tmp_path / "q.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.abs(written - captured.values).max() <= 1e-11 * max(exact)


def test_sector_search_closes_the_start_under_the_transpose():
    # X = (1 - i)|0><1| + h.c. has real coordinates Re X + Im X on entry
    # (1, 0) only, yet L = Re G + Im(G P) feeds the band from both entries;
    # the search on G's pattern starts from both, so the block holds them
    p = models.OscillatorParams(0.7, 2.85, 11)
    x0 = np.zeros((p.dim, p.dim), dtype=complex)
    x0[0, 1], x0[1, 0] = 1.0 - 1.0j, 1.0 + 1.0j
    assert np.flatnonzero(dynamics.real_coordinates(x0)).tolist() == [1]
    times = [0.0, 0.5, 1.0]
    for g in (dynamics.liouvillian(p.lindblad_model()), dynamics.dual_liouvillian(p.lindblad_model())):
        assert g.is_sparse
        for t, out in zip(times, dynamics.propagate_series(g, x0, times)):
            exact = band_expm_reference(g, x0, t)
            assert np.abs(out - exact).max() <= 1e-12 * np.abs(exact).max()


def test_propagate_series_trace_check_guards_the_block():
    # a forward generator that scales every operator by e^{1e-6 t} leaves
    # the reachable block intact, and the check still reads the full trace
    p = models.OscillatorParams(0.7, 2.85, 41)
    g = dynamics.liouvillian(p.lindblad_model())
    shifted = dynamics.Superoperator(g.real + 1e-6 * scipy.sparse.identity(p.dim ** 2),
                                     p.dim, kind="forward")
    with pytest.raises(RuntimeError, match="changed the trace"):
        dynamics.propagate_series(shifted, np.eye(p.dim), [0.0, 1.0])


def test_reduced_series_of_a_decoupled_auxiliary_is_the_system_series():
    # A (x) S with A and S evolving apart: the auxiliary's dynamics keep its
    # trace, so Tr_A e^{tL}[aux (x) x] = Tr[aux] e^{tL_S}[x]
    rng = np.random.default_rng(12)
    h_a, h_s = rand_herm(rng, 2), rand_herm(rng, 3)
    l_a, l_s = rand_op(rng, 2), rand_op(rng, 3)
    i_a, i_s = np.eye(2), np.eye(3)
    joint = dynamics.LindbladModel(np.kron(h_a, i_s) + np.kron(i_a, h_s),
                                   [np.kron(l_a, i_s), np.kron(i_a, l_s)], rates=[0.7, 0.4])
    system = dynamics.LindbladModel(h_s, [l_s], rates=[0.4])
    times = np.linspace(0.0, 2.0, 9)
    aux = 1.5 * qcore.random_state(2, rng).matrix
    for x0 in (np.eye(3), qcore.random_state(3, rng).matrix):
        got = dynamics.reduced_series(joint, aux, x0, times)
        assert got.shape == (times.size, 3, 3)
        exact = 1.5 * dynamics.propagate_series(dynamics.liouvillian(system), x0, times)
        assert np.abs(got - exact).max() < 1e-12
    with pytest.raises(ValueError, match="operator dimension 4 != superoperator dim 6"):
        dynamics.reduced_series(joint, aux, np.eye(2), times)


def test_propagate_series_dense_block_diagonal_model():
    # two decoupled sectors of C^3 + C^3: |0><0| reaches only the 9 entries
    # of its own corner, which the block route must reproduce exactly
    rng = np.random.default_rng(11)
    sector = np.zeros((6, 6), dtype=complex)
    h = np.zeros((6, 6), dtype=complex)
    jumps = []
    for block in (slice(0, 3), slice(3, 6)):
        a = rand_op(rng, 3)
        h[block, block] = 0.5 * (a + a.conj().T)
        v = np.zeros((6, 6), dtype=complex)
        v[block, block] = rand_op(rng, 3) / 3.0
        jumps.append(v)
    sector[:3, :3] = 1.0
    g = dynamics.liouvillian(dynamics.LindbladModel(h, jumps, rates=[0.6, 0.9]))
    assert not g.is_sparse
    x0 = np.zeros((6, 6), dtype=complex)
    x0[0, 0] = 1.0
    times = time_grid("log", 2.0, 21)
    for t, out in zip(times, dynamics.propagate_series(g, x0, times)):
        exact = qcore.unvec(scipy.linalg.expm(g.matrix * t) @ qcore.vec(x0), 6)
        assert np.abs(out - exact).max() < 1e-12
        assert not out[sector == 0].any()
        assert t == 0.0 or np.abs(out[sector == 1]).min() > 0.0


@pytest.mark.parametrize("d, grid", [(4, "uniform"), (12, "log")])
def test_propagate_series_whole_closure_keeps_the_full_route(d, grid):
    # from I a random generator reaches every entry, so the series is the
    # full-space route bit for bit: the real generator L steps the one real
    # coordinate column of I, with exponentials reused on the uniform d = 4
    # grid and the Taylor action of L, set up once, applied step by step on
    # the d = 12 log grid, and each column maps back through
    # X = sym(Y) + i anti(Y)
    rng = np.random.default_rng(20 + d)
    g = dynamics.liouvillian(random_lindblad(rng, d))
    assert not g.is_sparse and g.real.dtype == np.float64
    times = np.arange(41) * 0.0625 if grid == "uniform" else time_grid(grid, 2.0, 41)
    y = qcore.vec(np.eye(d)).real[:, None]
    step = scipy.linalg.expm(g.real * 0.0625)
    action = dynamics._TaylorAction(g.real)
    for dt, out in zip(np.diff(times, prepend=0.0), dynamics.propagate_series(g, np.eye(d), times)):
        if dt > 0.0:
            if grid == "uniform":
                y = step @ y
            else:
                (m,), (s,) = action.plan(np.array([dt]))
                y = action.step(y, dt, m, s)
        m = qcore.unvec(y[:, 0], d)
        assert np.array_equal(out, 0.5 * (m + m.T) + 0.5j * (m - m.T))


@pytest.mark.parametrize("d, x, expm_pays", [(8, 100.0, True), (16, 150.0, False)])
def test_expm_pays_prices_long_steps(d, x, expm_pays):
    # one step at |A dt|_1 = x on a dense real generator, past the shifted
    # norm where the Taylor action estimates norms of matrix powers, both
    # plans (m, s) = (55, 2).  On one core (minimum-median of 15 runs, the
    # action with its set-up and estimates), at n = 64 the action took
    # 2.67-2.73 ms and expm 0.22-0.23 ms; at n = 256, with five squarings in
    # expm, the action took 5.1-5.3 ms and expm 9.7-10.1 ms.
    a = dynamics.liouvillian(random_lindblad(np.random.default_rng(40 + d), d)).real
    assert a.dtype == np.float64
    norm = dynamics._one_norm(a)
    steps = np.array([x / norm])
    action = dynamics._TaylorAction(a)
    assert action.norm * steps[0] > dynamics.EXPM_NORM_SWITCH
    assert dynamics._expm_pays(a, norm, action, steps, steps) == expm_pays


def taylor_series(a, v, times):
    """exp(t a) v at every time of an ascending grid, by the Taylor action stepped point to point."""
    action = dynamics._TaylorAction(a)
    steps = np.diff(times, prepend=0.0)
    out = []
    for dt, m, s in zip(steps, *action.plan(steps)):
        v = action.step(v, dt, m, s)
        out.append(v)
    return out


def assert_matches_expm(a, v, times, rtol):
    dense = a.toarray() if scipy.sparse.issparse(a) else a
    for t, got in zip(times, taylor_series(a, v, times)):
        exact = scipy.linalg.expm(dense * t) @ v
        assert np.abs(got - exact).max() <= rtol * max(np.abs(exact).max(), 1e-300)


@pytest.mark.parametrize("d", [12, 24])
def test_taylor_action_matches_expm_on_dense_generators(d):
    a = dynamics.liouvillian(random_lindblad(np.random.default_rng(70 + d), d)).real
    v = qcore.vec(np.eye(d)).real[:, None]
    assert_matches_expm(a, v, time_grid("log", 2.0, 6), 1e-13)


def test_taylor_action_matches_expm_on_the_sparse_oscillator():
    # the full space of the n_max = 40 oscillator, from an off-diagonal start
    g = dynamics.liouvillian(models.OscillatorParams(0.7, 2.85, 40).lindblad_model())
    assert g.is_sparse
    x0 = np.zeros((g.dim, g.dim), dtype=complex)
    x0[0, 1] = x0[1, 0] = 0.5
    v = dynamics.real_coordinates(x0)[:, None]
    assert_matches_expm(g.real.tocsr(), v, [0.0, 0.05, 0.3], 1e-13)


def test_taylor_action_past_the_norm_switch_matches_expm():
    # a 16 x 16 block at |A t|_1 = 150: past condition (3.13) the power-norm
    # estimates cut the worst-case product count from 55 x 13 = 715, which
    # the shifted norm alone would take, to 55 x 4
    a = generator_block(16)
    action = dynamics._TaylorAction(a)
    t = 150.0 / dynamics._one_norm(a)
    assert action.norm * t > dynamics.EXPM_NORM_SWITCH
    (m,), (s,) = action.plan(np.array([t]))
    assert (m, s) == (55, 4)
    v = qcore.vec(np.eye(4)).real[:, None]
    assert_matches_expm(a, v, [t], 1e-13)


def test_taylor_action_of_shifted_zero_and_zero_step_blocks():
    v = np.array([[0.3], [0.7]])
    # a trace far from 0, which the shift carries: against e^{-50 t} expm(b t)
    b = generator_block(2)
    for t, got in zip([0.1, 1.0], taylor_series(b - 50.0 * np.eye(2), v, [0.1, 1.0])):
        exact = np.exp(-50.0 * t) * (scipy.linalg.expm(b * t) @ v)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
    action = dynamics._TaylorAction(np.zeros((2, 2)))
    m, s = action.plan(np.array([0.0, 1.0]))
    assert list(m) == [0, 0] and list(s) == [1, 1]
    assert np.array_equal(action.step(v, 1.0, 0, 1), v)
    a = generator_block(16)
    action = dynamics._TaylorAction(a)
    (m,), (s,) = action.plan(np.array([0.0]))
    w = np.ones((16, 1))
    assert (m, s) == (0, 1) and np.array_equal(action.step(w, 0.0, m, s), w)


def test_propagate_series_bits_do_not_depend_on_numpy_global_random_state():
    # the power-norm estimates run onenormest with t = 1, which draws nothing
    g = dynamics.liouvillian(random_lindblad(np.random.default_rng(57), 4))
    times = [0.0, 150.0 / g.norm, 300.0 / g.norm]
    series = []
    for seed in (1, 2, 3):
        np.random.seed(seed)
        series.append(dynamics.propagate_series(g, np.eye(4), times))
    assert all(np.array_equal(series[0], other) for other in series[1:])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       raw=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5))
def test_taylor_action_matches_expm_on_random_generators(d, seed, raw):
    a = dynamics.liouvillian(random_lindblad(np.random.default_rng(seed), d)).real
    times = np.cumsum(raw) / dynamics._one_norm(a)
    v = np.random.default_rng(seed + 1).normal(size=(d * d, 1))
    assert_matches_expm(a, v, times, 1e-12)


def test_shifted_one_norm_is_the_norm_of_the_shifted_matrix():
    # read off the column sums of |a|, with |a_jj - mu| on the diagonal, against
    # ||a - mu I||_1 of the formed matrix, dense and sparse, and for a block
    # whose trace sits far from zero
    rng = np.random.default_rng(41)
    oscillator = dynamics.liouvillian(models.OscillatorParams(0.7, 2.85, 11).lindblad_model())
    for a in (dynamics.liouvillian(random_lindblad(rng, 3)).real, oscillator.real,
              scipy.sparse.csc_matrix(generator_block(16)), generator_block(2) - 50.0 * np.eye(2)):
        n = a.shape[0]
        mu = a.diagonal().sum() / n
        eye = scipy.sparse.identity(n, format="csr") if scipy.sparse.issparse(a) else np.eye(n)
        expected = dynamics._one_norm(a - mu * eye)
        assert dynamics._shifted_one_norm(a) == pytest.approx(expected, rel=1e-14)


def generator_block(n):
    """A dense real generator block: the populations of a thermal qubit (n = 2),
    or the real form of a random d = 2 or d = 4 model (n = 4, 16)."""
    if n == 2:
        return np.ascontiguousarray(dynamics.liouvillian(thermal_model()).real[np.ix_([0, 3], [0, 3])])
    return dynamics.liouvillian(random_lindblad(np.random.default_rng(n), int(np.sqrt(n)))).real


@pytest.mark.parametrize("n", [2, 4, 16])
def test_step_exponentials_match_scipy(n):
    # |a dt|_1 from 1e-9 to 1e3 runs every Pade degree and up to eight
    # squarings through the batched pass; against scipy's expm the worst
    # entry read 1.8e-14 (n = 2), about scipy's own error after its squarings
    a = generator_block(n)
    norm = dynamics._one_norm(a)
    steps = np.geomspace(1e-9, 1e3, 121) / norm
    got = dynamics._step_exponentials(a, norm, steps)
    assert isinstance(got, np.ndarray) and got.shape == (steps.size, n, n)
    for dt, e in zip(steps, got):
        assert np.abs(e - scipy.linalg.expm(a * dt)).max() <= 5e-14
    # a zero block, whose 1-norm has no logarithm, steps as the identity
    zero = dynamics._step_exponentials(np.zeros((n, n)), 0.0, steps)
    assert np.array_equal(zero, np.broadcast_to(np.eye(n), zero.shape))


def test_step_exponentials_of_a_slow_decay_match_mpmath():
    # a qubit that rotates under H and dephases at rate 0.002 is far from
    # relaxed at |a dt|_1 = 1000, so each squaring shows; against a 40-digit
    # exponential the pass read at most 1.8e-14 and scipy's expm 3.1e-13
    mpmath = pytest.importorskip("mpmath")
    model = dynamics.LindbladModel(np.array([[0.5, 0.3], [0.3, -0.5]]), [qcore.sigma_z], rates=[0.002])
    a = dynamics.liouvillian(model).real
    norm = dynamics._one_norm(a)
    xs = np.array([0.5, 4.0, 20.0, 100.0, 630.0, 1000.0])
    with mpmath.workdps(40):
        for x, e in zip(xs, dynamics._step_exponentials(a, norm, xs / norm)):
            exact = mpmath.expm(mpmath.matrix(a.tolist()) * (mpmath.mpf(x) / norm))
            assert np.abs(e - np.array(exact.tolist(), dtype=float)).max() <= 5e-14


def test_step_exponentials_keep_scipy_bits_where_the_pass_does_not_pay():
    # fewer than five steps, or a block past 16 rows, take one scipy expm each
    for a, steps in ((generator_block(16), np.array([0.1, 0.2, 0.4, 0.8])),
                     (dynamics.liouvillian(random_lindblad(np.random.default_rng(5), 5)).real,
                      0.1 * np.arange(1, 9))):
        got = dynamics._step_exponentials(a, dynamics._one_norm(a), steps)
        assert len(got) == steps.size
        for dt, e in zip(steps, got):
            assert np.array_equal(e, scipy.linalg.expm(a * dt))


def test_step_exponential_repeats_the_two_qubit_dual_flow_to_mpmath():
    # 80 steps of 0.1 of the dual flow of I on its reachable block, the README
    # tour's grid, against a 40-digit exponential: the worst entry read 5.6e-16.
    # The step is built among five, so that the batched pass builds it
    mpmath = pytest.importorskip("mpmath")
    g = dynamics.dual_liouvillian(models.TwoQubitParams(gamma=1.0, omega=1.0).lindblad_model())
    y0 = dynamics._column(np.eye(4), 4)
    index, a, _ = g._sector(y0.any(axis=1))
    a = np.ascontiguousarray(a)
    step = dynamics._step_exponentials(a, dynamics._one_norm(a), 0.1 * np.arange(1, 6))[0]
    y = y0[index]
    for _ in range(80):
        y = step @ y
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(a.tolist()) * 8) * mpmath.matrix(y0[index].tolist())
        exact = np.array(exact.tolist(), dtype=float)
    assert np.abs(y - exact).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 4])
def test_log_grid_matches_the_per_step_scipy_route(d):
    # every step of a log grid is distinct, so the series of I takes the
    # batched pass; the loop of one scipy expm per step read at most 6.7e-16 away
    g = dynamics.liouvillian(random_lindblad(np.random.default_rng(50 + d), d))
    times = time_grid("log", 2.0, 41)
    y = qcore.vec(np.eye(d)).real[:, None]
    for dt, out in zip(np.diff(times, prepend=0.0), dynamics.propagate_series(g, np.eye(d), times)):
        if dt > 0.0:
            y = scipy.linalg.expm(g.real * dt) @ y
        m = qcore.unvec(y[:, 0], d)
        assert np.abs(out - (0.5 * (m + m.T) + 0.5j * (m - m.T))).max() <= 1e-14


def test_propagate_series_rejects_bad_grid():
    g = dynamics.liouvillian(thermal_model())
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError, match="-1.0"):
        dynamics.propagate_series(g, rho, [1.0, 0.5, -1.0])
    with pytest.raises(ValueError, match="0.5 follows 1.0"):
        dynamics.propagate_series(g, rho, [0.0, 1.0, 0.5, 2.0])
    with pytest.raises(ValueError, match="nan"):
        dynamics.propagate_series(g, rho, [0.0, np.nan])
    with pytest.raises(ValueError, match="-0.3"):
        dynamics.propagate(g, rho, -0.3)
    # repeated times are allowed and return the same operator
    a, b = dynamics.propagate_series(g, rho, [0.7, 0.7])
    assert np.array_equal(a, b)


def kron_chain_generator(model):
    """Complex vec-basis generator summed from scipy.sparse.kron, the builder before COO assembly."""
    d = model.dim
    csr = scipy.sparse.csr_matrix
    eye = scipy.sparse.identity(d, format="csr")
    pairs = [(model.rates[mu, nu], model.jump_ops[mu], model.jump_ops[nu])
             for mu, nu in zip(*np.nonzero(model.rates))]
    j = -1j * model.h_bar
    for a, v_mu, v_nu in pairs:
        j = j - 0.5 * a * (v_nu.conj().T @ v_mu)
    gen = scipy.sparse.kron(eye, csr(j)) + scipy.sparse.kron(csr(j.conj()), eye)
    for a, v_mu, v_nu in pairs:
        gen = gen + a * scipy.sparse.kron(csr(v_nu.conj()), csr(v_mu))
    return gen.toarray()


def transpose_permutation(d):
    k = np.arange(d * d)
    return k % d * d + k // d


GENERATOR_MODELS = {
    "thermal-tls": lambda: thermal_model(),
    "off-diagonal-rates": lambda: dynamics.LindbladModel(
        0.4 * qcore.sigma_x, [qcore.sigma_minus, qcore.sigma_z],
        rates=np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])),
    "random-d5": lambda: random_lindblad(np.random.default_rng(30), 5),
    "oscillator-11": lambda: models.OscillatorParams(0.7, 2.85, 11).lindblad_model(),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_MODELS))
def test_real_generator_matches_kron_chain(name):
    # both storages against L = Re G + Im(G P) of the kron-chain G, and the
    # complex matrix rebuilt from L against G itself
    model = GENERATOR_MODELS[name]()
    g = kron_chain_generator(model)
    pi = transpose_permutation(model.dim)
    expected = g.real + g.imag[:, pi]
    scale = np.abs(g).sum(axis=0).max()
    for sparse in (False, True):
        sup = stored(model, sparse)[0]
        assert sup.is_sparse == sparse and sup.real.dtype == np.float64
        real = sup.real.toarray() if sparse else sup.real
        assert np.abs(real - expected).max() <= 1e-14 * scale
        assert np.abs(sup.dense() - g).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(GENERATOR_MODELS))
def test_dual_is_the_transpose_of_the_real_generator(name):
    model = GENERATOR_MODELS[name]()
    pairs = [(dynamics.liouvillian(model), dynamics.dual_liouvillian(model))]
    for forward, dual in pairs + [stored(model, sparse) for sparse in (False, True)]:
        forward, dual = forward.real, dual.real
        if scipy.sparse.issparse(forward):
            forward, dual = forward.toarray(), dual.toarray()
        assert np.array_equal(dual, forward.T)


def test_superoperator_takes_only_the_real_form():
    g = dynamics.liouvillian(random_lindblad(np.random.default_rng(31), 3))
    for real in (g.real, scipy.sparse.csr_matrix(g.real)):
        rebuilt = dynamics.Superoperator(real, 3, kind="forward")
        assert rebuilt.real is real and rebuilt.is_sparse == scipy.sparse.issparse(real)
    for matrix in (g.matrix, scipy.sparse.csr_matrix(g.matrix)):
        with pytest.raises(ValueError, match="real form"):
            dynamics.Superoperator(matrix, 3)
    with pytest.raises(ValueError, match=r"shape \(9, 9\) != \(4, 4\)"):
        dynamics.Superoperator(g.real, 2)


def test_superoperator_rejects_a_non_finite_real_form():
    # a NaN or infinite entry used to pass construction and reach every route
    g = dynamics.liouvillian(random_lindblad(np.random.default_rng(31), 3))
    for bad in (np.nan, np.inf):
        real = g.real.copy()
        real[1, 2] = bad
        for stored_form in (real, scipy.sparse.csr_matrix(real)):
            with pytest.raises(ValueError, match="non-finite"):
                dynamics.Superoperator(stored_form, 3)


@pytest.mark.parametrize("d, sparse", [(2, False), (4, False), (4, True)])
def test_propagate_series_non_hermitian_operator(d, sparse):
    # a non-Hermitian x0 raises; a random Hermitian one, the only kind the
    # layer steps, is checked at each time against one complex expm of the
    # vec-basis generator
    rng = np.random.default_rng(40 + d)
    model = random_lindblad(rng, d)
    x0 = rand_herm(rng, d)
    times = time_grid("log", 2.0, 9)
    for g in stored(model, sparse):
        with pytest.raises(ValueError, match="not Hermitian"):
            dynamics.propagate_series(g, x0 + 1j * x0, times)
        gmat = g.dense()
        for t, out in zip(times, dynamics.propagate_series(g, x0, times)):
            exact = qcore.unvec(scipy.linalg.expm(gmat * t) @ qcore.vec(x0), d)
            assert np.abs(out - exact).max() < 1e-12 * max(1.0, np.abs(exact).max())
    g = stored(model, sparse)[0]
    assert np.abs(g.apply(x0) - qcore.unvec(g.dense() @ qcore.vec(x0), d)).max() < 1e-13


def test_non_hermitian_or_non_finite_operator_raises():
    # the dynamics layer steps Hermitian operators only and checks them where
    # they enter; sigma_minus used to be stepped as two real columns, and NaN
    # used to propagate
    nan = np.full((2, 2), np.nan)
    inf = np.diag([1.0, np.inf])
    for g in (dynamics.liouvillian(thermal_model()), dynamics.dual_liouvillian(thermal_model())):
        for x, match in ((qcore.sigma_minus, "not Hermitian"), (nan, "non-finite"),
                         (inf, "non-finite"), (np.eye(3), "dimension 3 != superoperator dim 2")):
            with pytest.raises(ValueError, match=match):
                dynamics.propagate_series(g, x, [0.0, 1.0])
            with pytest.raises(ValueError, match=match):
                g.apply(x)


def test_roundoff_asymmetric_state_steps_one_real_column():
    # a pure-state projector that misses Hermiticity by 1e-17: its Hermitian
    # part, which QuantumState stores, is stepped as the one real column, bit
    # for bit, with the exponential reused on the uniform grid
    v = qcore.bloch_vector_state(1.1, 0.3)
    x = np.outer(v, v.conj())
    assert np.any(x != x.conj().T)
    g = dynamics.liouvillian(models.FluorescenceParams(1.0, 1.5).lindblad_model())
    h = 0.5 * (x + x.conj().T)
    assert np.array_equal(QuantumState(x).matrix, h)
    y = qcore.vec(h.real + h.imag).real[:, None]
    step = scipy.linalg.expm(g.real * 0.25)
    times = np.arange(9) * 0.25
    for k, out in enumerate(dynamics.propagate_series(g, x, times)):
        if k:
            y = step @ y
        m = qcore.unvec(y[:, 0], 2)
        assert np.array_equal(out, 0.5 * (m + m.T) + 0.5j * (m - m.T))
