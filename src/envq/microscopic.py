"""Exact joint system+environment simulation.

Everything here works with the full unitary of the joint space, so it
is limited to small dimensions (the intended use is as a brute-force
oracle with ``dim_s * dim_e <= 64``).  The quantumness measure and its
dual-route twin are evaluated without any approximation beyond dense
floating point.
"""

from functools import cached_property

import numpy as np

from . import qcore
from .qcore import (
    QuantumState,
    as_operator,
    identity,
    partial_trace,
    require_hermitian,
    state_matrix,
    tensor_product,
)

MAX_JOINT_DIM = 64
COMM_TOL = 1e-10  # [H, I x sigma0] and off-diagonal blocks that count as zero


class JointModel:
    """System + environment Hamiltonian blocks and initial bath state.

    H = h_s x I_e + I_s x h_e + h_i with all blocks Hermitian; sigma0 is
    the initial environment state.  Instances are immutable in spirit:
    the total Hamiltonian is eigendecomposed once and cached, and so is
    the read-only I_s x sigma0 that every route pairs with.
    """

    def __init__(self, h_s, h_e, h_i, sigma0):
        self.h_s = require_hermitian(h_s, name="h_s")
        self.h_e = require_hermitian(h_e, name="h_e")
        self.dim_s = self.h_s.shape[0]
        self.dim_e = self.h_e.shape[0]
        self.h_i = require_hermitian(h_i, name="h_i")
        if self.h_i.shape[0] != self.dim_s * self.dim_e:
            raise ValueError(
                f"h_i dimension {self.h_i.shape[0]} != dim_s*dim_e = {self.dim_s * self.dim_e}"
            )
        if self.dim_s * self.dim_e > MAX_JOINT_DIM:
            raise ValueError(f"joint dimension {self.dim_s * self.dim_e} exceeds {MAX_JOINT_DIM}")
        sigma0 = sigma0 if isinstance(sigma0, QuantumState) else QuantumState(sigma0)
        if sigma0.dim != self.dim_e:
            raise ValueError(f"sigma0 dimension {sigma0.dim} != dim_e {self.dim_e}")
        self.sigma0 = sigma0

    def hamiltonian(self):
        return (
            tensor_product(self.h_s, identity(self.dim_e))
            + tensor_product(identity(self.dim_s), self.h_e)
            + self.h_i
        )

    @cached_property
    def sigma0_joint(self):
        """I_s x sigma0, read-only."""
        sig = tensor_product(identity(self.dim_s), self.sigma0.matrix)
        sig.flags.writeable = False
        return sig

    @cached_property
    def _eig(self):
        return qcore.hermitian_eigensystem(self.hamiltonian())

    def unitary(self, t):
        """exp(-i H t) from the cached spectral decomposition."""
        w, v = self._eig
        return (v * np.exp(-1j * w * t)) @ v.conj().T


# the embedding takes operators that an entry point has already checked
def _embed_system(model, a):
    return tensor_product(a, identity(model.dim_e))


def _rotated_system(model, u, rho0):
    """U (rho0 x I_e) U^dag for a joint unitary U."""
    return u @ _embed_system(model, state_matrix(rho0)) @ u.conj().T


def reduced_state(model, rho0, t):
    """Reduced system state Tr_e[U_t (rho0 x sigma0) U_t^dag]."""
    rho0 = state_matrix(rho0, model.dim_s)
    u = model.unitary(t)
    joint = tensor_product(rho0, model.sigma0.matrix)
    evolved = u @ joint @ u.conj().T
    return QuantumState(partial_trace(evolved, [model.dim_s, model.dim_e], keep=0))


def quantumness_direct(model, rho0, t):
    """Trace pairing of the conjugated initial system state with sigma0.

    Q_t = Tr[(U_t (rho0 x I_e) U_t^dag)(I_s x sigma0)].  Values outside
    [0, dim_s] by more than ``qcore.BOUND_TOL`` raise BoundViolationError.
    """
    conj = _rotated_system(model, model.unitary(t), rho0)
    q = np.trace(conj @ model.sigma0_joint).real
    qcore.require_q_bounds(q, model.dim_s)
    return float(q)


def dual_map_apply(model, a0, t):
    """Heisenberg-picture image Tr_e[U_t^dag (a0 x I_e) U_t (I_s x sigma0)]."""
    a0 = as_operator(a0, "a0")
    if a0.shape[0] != model.dim_s:
        raise ValueError(f"a0 dimension {a0.shape[0]} != dim_s {model.dim_s}")
    u = model.unitary(t)
    moved = u.conj().T @ _embed_system(model, a0) @ u
    return partial_trace(moved @ model.sigma0_joint, [model.dim_s, model.dim_e], keep=0)


def quantumness_via_dual(model, rho0, t):
    """Q_t from the operator route: system trace of the dual image at -t."""
    q = np.trace(dual_map_apply(model, state_matrix(rho0), -t)).real
    qcore.require_q_bounds(q, model.dim_s)
    return float(q)


def split_contributions(model, rho0, t):
    """Traces of the classical-noise part and the remainder; they sum to 1 within 1e-10."""
    u = model.unitary(t)
    conj = _rotated_system(model, u, rho0)
    sig = model.sigma0_joint
    delta = u @ sig @ u.conj().T - sig
    first = np.trace(conj @ sig).real
    second = np.trace(conj @ delta).real
    if not abs(first + second - 1.0) <= 1e-10:
        raise RuntimeError(f"splitting sum {first + second} deviates from 1")
    return float(first), float(second)


def q_derivative(model, rho0, t, n):
    """n-th time derivative of Q_t via nested commutators of H with sigma0.

    d^n Q/dt^n = i^n Tr[(U_t (rho0 x I) U_t^dag) [H, [H, ... , sigma0]]];
    the prefactor is fixed by matching central finite differences of the
    direct route (moving the nested commutator across the trace pairing
    costs one sign per order).
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    h = model.hamiltonian()
    comm = model.sigma0_joint
    for _ in range(n):
        comm = h @ comm - comm @ h
    conj = _rotated_system(model, model.unitary(t), rho0)
    return float((1j ** n * np.trace(conj @ comm)).real)


def _environment_blocks(rest4, basis):
    """System blocks <e_k|(H_e + H_I)|e_l>, indexed [k, l], over an environment basis.

    ``rest4`` is I_s x h_e + h_i as a (dim_s, dim_e, dim_s, dim_e) tensor;
    the diagonal blocks are the conditional Hamiltonians.
    """
    return np.einsum("ak,iajb,bl->klij", basis.conj(), rest4, basis)


def _offdiag_residual(blocks):
    de = blocks.shape[0]
    return np.abs(blocks[~np.eye(de, dtype=bool)]).max() if de > 1 else 0.0


def hamiltonian_ensemble_reduction(model):
    """Decompose commuting-bath dynamics into a weighted unitary ensemble.

    Requires [H, I_s x sigma0] = 0.  Returns pairs (p_e, H_s + <e|(H_e +
    H_I)|e>) over an eigenbasis of sigma0 that decouples these conditional
    Hamiltonians: the sigma0 eigenbasis itself when it does, else each
    degenerate eigenspace refined once by the eigenvectors of one seeded,
    generic Hermitian contraction Tr_s[(C x I)(H_e + H_I)].  This is exact:
    a decoupling basis diagonalizes every block <a|H_e + H_I|b> within an
    eigenspace, so also the contraction, whose eigenvalues tie only where
    two conditional Hamiltonians coincide, and there any basis decouples.
    """
    h = model.hamiltonian()
    sig = model.sigma0_joint
    comm_norm = np.abs(h @ sig - sig @ h).max()
    if not comm_norm <= COMM_TOL:
        raise ValueError(
            f"[H, I x sigma0] does not vanish (max commutator entry {comm_norm:.3e})"
        )
    ds, de = model.dim_s, model.dim_e
    rest4 = (tensor_product(identity(ds), model.h_e) + model.h_i).reshape(ds, de, ds, de)
    evals, basis = qcore.hermitian_eigensystem(model.sigma0.matrix)
    blocks = _environment_blocks(rest4, basis)
    if not _offdiag_residual(blocks) <= COMM_TOL:
        rng = np.random.default_rng(12345)
        c = rng.normal(size=(ds, ds)) + 1j * rng.normal(size=(ds, ds))
        contraction = np.einsum("ji,iajb->ab", c + c.conj().T, rest4)
        for grp in np.split(np.arange(de), np.flatnonzero(np.diff(evals) > 1e-9) + 1):
            _, w = np.linalg.eigh(basis[:, grp].conj().T @ contraction @ basis[:, grp])
            basis[:, grp] = basis[:, grp] @ w
        blocks = _environment_blocks(rest4, basis)
        if not _offdiag_residual(blocks) <= 1e-9:
            raise ValueError("could not find an environment basis that decouples the dynamics")
    weights = np.einsum("ak,ab,bk->k", basis.conj(), model.sigma0.matrix, basis).real
    return [(float(w), model.h_s + blocks[k, k]) for k, w in enumerate(weights)]


# ---------------------------------------------------------------------------
# model factories for tests and cross-checks

def spin_boson_decay(coupling, cutoff=2):
    """Two-level emitter exchanging one excitation with a truncated mode.

    Emitter and mode are resonant at unit frequency; with the bath in
    vacuum the excited population follows cos^2(coupling * t).
    """
    a = qcore.destroy(cutoff)
    h_s = 0.5 * qcore.sigma_z
    h_e = qcore.number_operator(cutoff)
    h_i = coupling * (
        tensor_product(qcore.sigma_plus, a) + tensor_product(qcore.sigma_minus, a.conj().T)
    )
    vacuum = QuantumState.pure(qcore.ket(cutoff, 0))
    return JointModel(h_s, h_e, h_i, vacuum)


def random_joint_model(dim_s, dim_e, rng, commuting=False):
    """Random JointModel for oracle tests.

    With ``commuting=True`` the interaction is built diagonal in the
    sigma0 eigenbasis, so [H, I x sigma0] = 0 by construction.
    """
    def rand_herm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (m + m.conj().T) / np.sqrt(d)

    h_s = rand_herm(dim_s)
    sigma0 = qcore.random_state(dim_e, rng)
    if commuting:
        _, basis = qcore.hermitian_eigensystem(sigma0.matrix)
        h_e = (basis * rng.normal(size=dim_e)) @ basis.conj().T
        h_i = np.zeros((dim_s * dim_e, dim_s * dim_e), dtype=complex)
        for k in range(dim_e):
            proj = np.outer(basis[:, k], basis[:, k].conj())
            h_i += tensor_product(rand_herm(dim_s), proj)
    else:
        h_e = rand_herm(dim_e)
        h_i = rand_herm(dim_s * dim_e)
    return JointModel(h_s, h_e, h_i, sigma0)
