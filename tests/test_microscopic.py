import numpy as np
import pytest

from envq import microscopic, qcore
from envq.qcore import QuantumState


def test_joint_hamiltonian_decoupled():
    h_s = 0.5 * qcore.sigma_z
    zeros2 = np.zeros((2, 2), dtype=complex)
    jm = microscopic.JointModel(h_s, zeros2, np.zeros((4, 4), dtype=complex),
                                QuantumState.maximally_mixed(2))
    assert np.abs(jm.hamiltonian() - np.kron(h_s, np.eye(2))).max() < 1e-14


def test_joint_hamiltonian_zero():
    z2 = np.zeros((2, 2), dtype=complex)
    jm = microscopic.JointModel(z2, z2, np.zeros((4, 4), dtype=complex),
                                QuantumState.maximally_mixed(2))
    assert np.abs(jm.hamiltonian()).max() == 0.0


def test_joint_hamiltonian_real_spectrum():
    jm = microscopic.spin_boson_decay(coupling=0.8, cutoff=4)
    evals = np.linalg.eigvals(jm.hamiltonian())
    assert np.abs(evals.imag).max() < 1e-10


def test_reduced_state_at_zero():
    rng = np.random.default_rng(0)
    jm = microscopic.random_joint_model(2, 3, rng)
    rho0 = qcore.random_state(2, rng)
    assert np.abs(microscopic.reduced_state(jm, rho0, 0.0).matrix - rho0.matrix).max() < 1e-12


def test_reduced_state_decoupled_is_unitary():
    rng = np.random.default_rng(1)
    h_s = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])
    jm = microscopic.JointModel(h_s, np.diag([0.0, 1.0]).astype(complex),
                                np.zeros((4, 4), dtype=complex),
                                qcore.random_state(2, rng))
    rho0 = qcore.random_state(2, rng)
    t = 1.3
    u = qcore.matrix_exponential(-1j * h_s * t)
    expected = u @ rho0.matrix @ u.conj().T
    assert np.abs(microscopic.reduced_state(jm, rho0, t).matrix - expected).max() < 1e-12


def test_rabi_oscillation_population():
    # one resonant mode in vacuum: excited population cos^2(gt)
    g = 0.6
    jm = microscopic.spin_boson_decay(coupling=g, cutoff=2)
    plus = QuantumState.pure(qcore.ket(2, 0))
    for t in (0.0, 0.5, 1.2, 2.7):
        rho = microscopic.reduced_state(jm, plus, t)
        assert abs(rho.matrix[0, 0].real - np.cos(g * t) ** 2) < 1e-12


def test_quantumness_direct_trivials():
    rng = np.random.default_rng(2)
    jm = microscopic.random_joint_model(2, 4, rng)
    rho0 = qcore.random_state(2, rng)
    assert abs(microscopic.quantumness_direct(jm, rho0, 0.0) - 1.0) < 1e-12
    commuting = microscopic.random_joint_model(3, 3, rng, commuting=True)
    for t in (0.4, 2.2):
        assert abs(microscopic.quantumness_direct(commuting, rho0=qcore.random_state(3, rng), t=t) - 1.0) < 1e-11


def test_quantumness_single_mode_closed_form():
    g = 0.6
    jm = microscopic.spin_boson_decay(coupling=g, cutoff=2)
    plus = QuantumState.pure(qcore.ket(2, 0))
    for t in (0.3, 1.0, 2.4):
        expected = 1.0 - np.sin(g * t) ** 2
        assert abs(microscopic.quantumness_direct(jm, plus, t) - expected) < 1e-12


def test_dual_map_trivials():
    rng = np.random.default_rng(3)
    jm = microscopic.random_joint_model(2, 3, rng)
    for t in (0.0, 0.9, 2.0):
        out = microscopic.dual_map_apply(jm, np.eye(2), t)
        assert np.abs(out - np.eye(2)).max() < 1e-11
    a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(microscopic.dual_map_apply(jm, a0, 0.0) - a0).max() < 1e-12


def test_duality_pairing():
    rng = np.random.default_rng(4)
    for _ in range(10):
        jm = microscopic.random_joint_model(int(rng.integers(2, 4)), int(rng.integers(2, 5)), rng)
        rho0 = qcore.random_state(jm.dim_s, rng)
        a = rng.normal(size=(jm.dim_s, jm.dim_s)) + 1j * rng.normal(size=(jm.dim_s, jm.dim_s))
        t = rng.uniform(0.0, 3.0)
        lhs = np.trace(microscopic.reduced_state(jm, rho0, t).matrix @ a)
        rhs = np.trace(rho0.matrix @ microscopic.dual_map_apply(jm, a, t))
        assert abs(lhs - rhs) < 1e-10


def test_dual_route_matches_direct():
    rng = np.random.default_rng(5)
    for _ in range(10):
        jm = microscopic.random_joint_model(int(rng.integers(2, 4)), int(rng.integers(2, 9)), rng)
        rho0 = qcore.random_state(jm.dim_s, rng)
        for t in rng.uniform(0.0, 4.0, size=4):
            d = microscopic.quantumness_direct(jm, rho0, t)
            v = microscopic.quantumness_via_dual(jm, rho0, t)
            assert abs(d - v) < 1e-10


def test_maximally_mixed_stays_unit():
    rng = np.random.default_rng(6)
    jm = microscopic.random_joint_model(3, 4, rng)
    mixed = QuantumState.maximally_mixed(3)
    for t in (0.5, 1.7, 3.1):
        assert abs(microscopic.quantumness_via_dual(jm, mixed, t) - 1.0) < 1e-11


def test_q_bound_random_models():
    rng = np.random.default_rng(7)
    for _ in range(10):
        jm = microscopic.random_joint_model(2, 4, rng)
        rho0 = qcore.random_pure_state(2, rng)
        for t in rng.uniform(0.0, 5.0, size=5):
            q = microscopic.quantumness_direct(jm, rho0, t)
            assert -1e-10 <= q <= 2.0 + 1e-10


def test_split_contributions():
    rng = np.random.default_rng(8)
    jm = microscopic.random_joint_model(2, 4, rng)
    rho0 = qcore.random_state(2, rng)
    first, second = microscopic.split_contributions(jm, rho0, 0.0)
    assert abs(first - 1.0) < 1e-12 and abs(second) < 1e-12
    first, second = microscopic.split_contributions(jm, rho0, 1.4)
    assert abs(first + second - 1.0) < 1e-12
    assert abs(first - microscopic.quantumness_direct(jm, rho0, 1.4)) < 1e-12
    commuting = microscopic.random_joint_model(2, 3, rng, commuting=True)
    first, second = microscopic.split_contributions(commuting, rho0, 2.0)
    assert abs(first - 1.0) < 1e-11 and abs(second) < 1e-11


def test_split_contributions_half_rabi():
    g = 0.6
    jm = microscopic.spin_boson_decay(coupling=g, cutoff=2)
    plus = QuantumState.pure(qcore.ket(2, 0))
    first, second = microscopic.split_contributions(jm, plus, np.pi / (2 * g))
    assert abs(first) < 1e-12 and abs(second - 1.0) < 1e-12


def test_q_derivative_commuting_vanishes():
    rng = np.random.default_rng(9)
    jm = microscopic.random_joint_model(2, 3, rng, commuting=True)
    rho0 = qcore.random_state(2, rng)
    for n in (1, 2, 3):
        assert abs(microscopic.q_derivative(jm, rho0, 0.8, n)) < 1e-10


def test_q_derivative_matches_finite_differences():
    rng = np.random.default_rng(10)
    jm = microscopic.random_joint_model(2, 3, rng)
    rho0 = qcore.random_state(2, rng)
    scale = np.abs(np.linalg.eigvalsh(jm.hamiltonian())).max()
    h = 1e-4 / scale
    t = 0.9
    qp = microscopic.quantumness_direct(jm, rho0, t + h)
    qm = microscopic.quantumness_direct(jm, rho0, t - h)
    q0 = microscopic.quantumness_direct(jm, rho0, t)
    assert abs((qp - qm) / (2 * h) - microscopic.q_derivative(jm, rho0, t, 1)) < 1e-6
    assert abs((qp - 2 * q0 + qm) / h ** 2 - microscopic.q_derivative(jm, rho0, t, 2)) < 1e-4


def test_ensemble_reduction_requires_commutation():
    rng = np.random.default_rng(11)
    jm = microscopic.random_joint_model(2, 3, rng)
    with pytest.raises(ValueError, match="commutator"):
        microscopic.hamiltonian_ensemble_reduction(jm)


def test_ensemble_reduction_uniform_weights():
    # maximally mixed bath with bath-diagonal coupling
    h_i = qcore.tensor_product(0.7 * qcore.sigma_x, np.diag([1.0, -1.0, 0.5]).astype(complex))
    jm = microscopic.JointModel(0.3 * qcore.sigma_z, np.zeros((3, 3), dtype=complex),
                                h_i, QuantumState.maximally_mixed(3))
    pairs = microscopic.hamiltonian_ensemble_reduction(jm)
    weights = [w for w, _ in pairs]
    assert np.allclose(weights, 1.0 / 3.0)
    assert abs(sum(weights) - 1.0) < 1e-12


def test_ensemble_reduction_refines_a_degenerate_bath():
    # sigma0 = I/2 is degenerate and sigma_z x sigma_x is off-diagonal in its
    # default eigenbasis; the bath-side trace of h_i vanishes, so only a
    # generic contraction of h_i finds the sigma_x eigenbasis that decouples it
    jm = microscopic.JointModel(0.4 * qcore.sigma_z, np.zeros((2, 2), dtype=complex),
                                qcore.tensor_product(qcore.sigma_z, qcore.sigma_x),
                                QuantumState.maximally_mixed(2))
    pairs = microscopic.hamiltonian_ensemble_reduction(jm)
    assert np.allclose([w for w, _ in pairs], 0.5, rtol=0.0, atol=1e-12)
    # conditional Hamiltonians 0.4 sigma_z +- sigma_z, one per sigma_x eigenvector
    shifts = sorted(float(hk[0, 0].real) - 0.4 for _, hk in pairs)
    assert np.allclose(shifts, [-1.0, 1.0], rtol=0.0, atol=1e-12)
    rho0 = qcore.random_state(2, np.random.default_rng(5))
    for t in (0.5, 1.9):
        recon = sum(
            w * (qcore.matrix_exponential(-1j * hk * t) @ rho0.matrix
                 @ qcore.matrix_exponential(1j * hk * t))
            for w, hk in pairs
        )
        assert np.abs(recon - microscopic.reduced_state(jm, rho0, t).matrix).max() < 1e-10
        assert abs(microscopic.quantumness_direct(jm, rho0, t) - 1.0) < 1e-10


def test_ensemble_reduction_refuses_a_bath_with_no_decoupling_basis():
    # sigma_x x sigma_x + sigma_z x sigma_z commutes with I x I/2, but no bath
    # basis makes both bath operators diagonal
    h_i = (qcore.tensor_product(qcore.sigma_x, qcore.sigma_x)
           + qcore.tensor_product(qcore.sigma_z, qcore.sigma_z))
    jm = microscopic.JointModel(0.3 * qcore.sigma_z, np.zeros((2, 2), dtype=complex), h_i,
                                QuantumState.maximally_mixed(2))
    with pytest.raises(ValueError, match="could not find an environment basis"):
        microscopic.hamiltonian_ensemble_reduction(jm)


def test_ensemble_reduction_reconstructs_dynamics():
    rng = np.random.default_rng(12)
    jm = microscopic.random_joint_model(2, 4, rng, commuting=True)
    pairs = microscopic.hamiltonian_ensemble_reduction(jm)
    rho0 = qcore.random_state(2, rng)
    for t in (0.5, 1.9):
        recon = sum(
            w * (qcore.matrix_exponential(-1j * hk * t) @ rho0.matrix
                 @ qcore.matrix_exponential(1j * hk * t))
            for w, hk in pairs
        )
        exact = microscopic.reduced_state(jm, rho0, t).matrix
        assert np.abs(recon - exact).max() < 1e-10
        assert abs(microscopic.quantumness_direct(jm, rho0, t) - 1.0) < 1e-10


def test_joint_dimension_cap():
    with pytest.raises(ValueError, match="exceeds"):
        microscopic.JointModel(
            np.zeros((9, 9), dtype=complex), np.zeros((9, 9), dtype=complex),
            np.zeros((81, 81), dtype=complex), QuantumState.maximally_mixed(9),
        )
