import numpy as np
import pytest
import scipy.linalg

from envq import microscopic, qcore
from envq.qcore import (
    QuantumState,
    concurrence,
    hermitian_eigensystem,
    matrix_exponential,
    partial_trace,
    tensor_product,
)


def rand_herm(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (m + m.conj().T)


def test_tensor_product_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_diagonal():
    out = tensor_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_tensor_product_involution():
    xx = tensor_product(qcore.sigma_x, qcore.sigma_x)
    assert np.allclose(xx @ xx, np.eye(4))


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    rho_a = qcore.random_state(2, rng).matrix
    rho_b = qcore.random_state(3, rng).matrix
    red = partial_trace(tensor_product(rho_a, rho_b), [2, 3], keep=0)
    assert np.abs(red - rho_a).max() < 1e-12


def test_partial_trace_bell_state():
    bell = QuantumState.pure(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    red = partial_trace(bell.matrix, [2, 2], keep=0)
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_preserves_trace_against_direct_sum():
    # independent oracle: explicit summation over traced indices
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rand_herm(rng, 6)
        resh = m.reshape(2, 3, 2, 3)
        direct = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                direct[i, j] = sum(resh[i, k, j, k] for k in range(3))
        red = partial_trace(m, [2, 3], keep=0)
        assert np.abs(red - direct).max() < 1e-12
        assert abs(np.trace(red) - np.trace(m)) < 1e-10


def test_partial_trace_linear():
    rng = np.random.default_rng(3)
    a, b = rand_herm(rng, 4), rand_herm(rng, 4)
    lhs = partial_trace(2.0 * a - 0.5j * b, [2, 2], keep=1)
    rhs = 2.0 * partial_trace(a, [2, 2], keep=1) - 0.5j * partial_trace(b, [2, 2], keep=1)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], keep=0)


def test_matrix_exponential_zero():
    assert np.abs(matrix_exponential(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15


def test_matrix_exponential_diagonal_phase():
    theta = 0.7
    out = matrix_exponential(1j * theta * qcore.sigma_z)
    assert np.abs(out - np.diag([np.exp(1j * theta), np.exp(-1j * theta)])).max() < 1e-14


def test_matrix_exponential_pade_vs_spectral_oracle():
    # the rational route, scipy.linalg.expm, against the eigendecomposition
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rand_herm(rng, 5, scale=3.0)
        w, v = np.linalg.eigh(h)
        oracle = (v * np.exp(w)) @ v.conj().T
        err = np.abs(scipy.linalg.expm(h) - oracle).max()
        assert err < 1e-11 * max(1.0, np.abs(oracle).max())


def test_matrix_exponential_inverse_pairing():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 10.0 / np.linalg.norm(m, 2)
        prod = matrix_exponential(m) @ matrix_exponential(-m)
        assert np.abs(prod - np.eye(4)).max() < 1e-10


def test_matrix_exponential_rejects_non_square():
    with pytest.raises(ValueError):
        matrix_exponential(np.ones((2, 3)))


def test_eigensystem_pauli_z():
    w, _ = hermitian_eigensystem(qcore.sigma_z)
    assert np.allclose(w, [-1.0, 1.0])


def test_eigensystem_two_qubit_stationary_block():
    # closed-form spectrum of the coupled-pair stationary state:
    # {w^2, w^2, 2g^2 + w^2 -+ 2 g G} / (4 G^2) with G = sqrt(g^2 + w^2)
    ga, om = 1.3, 0.8
    big = np.sqrt(ga ** 2 + om ** 2)
    m = np.diag([om ** 2, om ** 2, om ** 2, 4 * ga ** 2 + om ** 2]).astype(complex)
    m[0, 3] = -2j * ga * om
    m[3, 0] = 2j * ga * om
    m /= 4 * big ** 2
    expected = np.sort([
        om ** 2, om ** 2, 2 * ga ** 2 + om ** 2 - 2 * ga * big,
        2 * ga ** 2 + om ** 2 + 2 * ga * big,
    ]) / (4 * big ** 2)
    w, _ = hermitian_eigensystem(m)
    assert np.abs(w - expected).max() < 1e-12


def test_eigensystem_thermal_oscillator_top():
    beta = 0.9
    weights = np.exp(-beta * np.arange(50))
    rho = np.diag(weights / weights.sum())
    top = hermitian_eigensystem(rho)[0][-1]
    assert abs(top - (1.0 - np.exp(-beta))) < 1e-12


def test_eigensystem_conjugate_spectrum_matches():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = rand_herm(rng, 4)
        a = hermitian_eigensystem(h)[0]
        b = hermitian_eigensystem(h.conj())[0]
        assert np.abs(a - b).max() < 1e-11


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_concurrence_bell():
    bell = QuantumState.pure(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    assert abs(concurrence(bell.matrix) - 1.0) < 1e-12


def test_concurrence_product_state():
    rng = np.random.default_rng(7)
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    vb = rng.normal(size=2) + 1j * rng.normal(size=2)
    prod = QuantumState.pure(np.kron(va, vb))
    assert concurrence(prod.matrix) < 1e-12


def test_concurrence_superposition_amplitudes():
    # a|++> + b|--> has concurrence 2|ab|
    a, b = 0.6, 0.8j
    psi = np.array([a, 0.0, 0.0, b])
    assert abs(concurrence(QuantumState.pure(psi).matrix) - 2 * abs(a * b)) < 1e-12


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(8)
    rho = qcore.random_state(4, rng).matrix
    base = concurrence(rho)
    for _ in range(10):
        ua = matrix_exponential(1j * rand_herm(rng, 2))
        ub = matrix_exponential(1j * rand_herm(rng, 2))
        u = tensor_product(ua, ub)
        assert abs(concurrence(u @ rho @ u.conj().T) - base) < 1e-9


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence(np.eye(3) / 3)


def test_distance_and_concurrence_gate_their_inputs():
    # a matrix that is not a state has no concurrence; its Hermitian part would read 0 here
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = 0.4
    with pytest.raises(ValueError, match="not Hermitian"):
        concurrence(m)
    for a, b in ((m, np.eye(4) / 4), (np.eye(4) / 4, m)):
        with pytest.raises(ValueError, match="not Hermitian"):
            qcore.trace_distance(a, b)
    with pytest.raises(ValueError, match="trace"):
        concurrence(np.eye(4) / 2)


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        QuantumState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(np.diag([np.inf, 1.0]))


def test_require_hermitian():
    m = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])
    assert np.array_equal(qcore.require_hermitian(m), m)
    with pytest.raises(ValueError, match="not Hermitian"):
        qcore.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        qcore.require_hermitian(np.diag([np.inf, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        qcore.require_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_nan_fails_the_bound_and_distance_checks():
    # a gate written value > bound let NaN through, and the distance of a NaN matrix read 0
    qcore.require_q_bounds([0.0, 2.0 + 0.5 * qcore.BOUND_TOL], 2)
    for values in ([np.nan], [1.0, np.nan], [2.1]):
        with pytest.raises(qcore.BoundViolationError, match="leaves"):
            qcore.require_q_bounds(values, 2)
    with pytest.raises(ValueError, match="non-finite"):
        qcore.trace_distance(np.full((2, 2), np.nan), np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        qcore.trace_distance(np.eye(2), np.diag([np.inf, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_input_is_rejected(bad):
    # every operator entry point reads its input through as_operator
    m = np.eye(4, dtype=complex) / 4
    m[1, 0] = bad
    jm = microscopic.spin_boson_decay(0.3)
    for call in (lambda: microscopic.dual_map_apply(jm, m[:2, :2], 0.5),
                 lambda: partial_trace(m, [2, 2], 0),
                 lambda: concurrence(m),
                 lambda: matrix_exponential(m)):
        with pytest.raises(ValueError, match=r"has a non-finite entry .* at \(1, 0\)"):
            call()


def test_require_channel():
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(0.6)]]), np.array([[0.0, np.sqrt(0.4)], [0.0, 0.0]])]
    qcore.require_channel(damping, 2, 1e-12)
    off = [np.sqrt(1.0 + 5e-9) * np.eye(2)]
    qcore.require_channel(off, 2, 1e-8)
    with pytest.raises(ValueError, match=r"collision is not a channel: .* by 5\.000e-09"):
        qcore.require_channel(off, 2, 1e-10, name="collision")
    with pytest.raises(ValueError, match="by nan"):
        qcore.require_channel([np.diag([1.0, np.nan])], 2, 1e-8)


def test_vectorization_convention():
    # vec(A X B) = kron(B.T, A) vec(X), column stacking
    rng = np.random.default_rng(9)
    a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = qcore.vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ qcore.vec(x)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(qcore.unvec(qcore.vec(x)) - x).max() == 0.0


def test_complex_token_round_trip():
    for z in (1.5 - 2.25j, -3j, 4.0, 0.0, 1e-12 + 1e8j):
        assert qcore.parse_complex(qcore.format_complex(z)) == z
    assert qcore.parse_complex("2i") == 2j
    assert qcore.parse_complex("-1.5e-3+2e4i") == complex(-1.5e-3, 2e4)
    assert qcore.parse_complex("1_0i") == 10j
    nan = qcore.parse_complex("nan+nani")
    assert np.isnan(nan.real) and np.isnan(nan.imag)
    zero = qcore.parse_complex("-0i")
    assert (np.copysign(1.0, zero.real), np.copysign(1.0, zero.imag)) == (1.0, -1.0)
    # complex() syntax that is not envq's stays rejected
    for token in ("1+2j", "(1+2i)", "2J", "(3)"):
        with pytest.raises(ValueError):
            qcore.parse_complex(token)


def test_matrix_text_round_trip():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    again = qcore.parse_matrix_text(qcore.format_matrix_text(m))
    assert np.array_equal(again, m)
    with pytest.raises(ValueError):
        qcore.parse_matrix_text("2 2 1+0i 0+0i")
