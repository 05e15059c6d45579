"""Lindblad generators, their duals, grid propagation and stationary states.

Superoperators act on column-stacked operators, so a generator on a
d-dimensional system is a d^2 x d^2 matrix.  Each job has one route:

* Storage.  A generator is kept dense when at least ``DENSE_FILL`` of its
  entries can be non-zero (a bound read off its Kronecker factors) and
  sparse otherwise: below that fill the sparse form is the smaller one
  and its products and LU are the cheaper ones.  A model builds its
  forward generator once; the dual is its conjugate transpose, built on
  request for the Heisenberg images that Q_t alone does not carry.
* Propagation.  ``propagate_series`` first closes the support of the
  initial operator under the generator's stored non-zero pattern.  That
  set S is invariant under every ``exp(t G)``, so when it is a proper
  subset the series runs on the principal block ``G[S, S]`` (stored by
  fill) and is scattered back into zeros; a phase-covariant dissipator
  keeps a diagonal operator diagonal, so the thermal oscillator's d^2
  space shrinks to d (Albert & Jiang, PRA 89, 022118 (2014)).  The series
  steps from one grid time to the next.  One ``expm(G dt)`` per distinct
  step, densified and reused for every repeat of that step (a uniform grid
  costs one exponential plus matrix-vector products), is taken whenever a
  fitted cost model prices it below ``expm_multiply`` (Al-Mohy & Higham
  2011) on every step; otherwise each step is one ``expm_multiply``.
  ``propagate`` is the one-point case.
* Stationary state.  ``stationary_state`` solves ``L x = 0`` with its first
  row replaced by the trace functional scaled to ``||L||_1``, by a dense LU
  or by ``splu``.  Uniqueness is gated by the relative margin
  ``1/(||A||_1 ||A^-1||_1)`` of that bordered matrix, so every gate scales
  with the generator and ``D_Q`` is invariant under a rescaling of time.
"""

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import breadth_first_order

from . import qcore
from .qcore import (
    DegenerateSteadyStateError,
    QuantumState,
    as_operator,
    require_finite,
    require_hermitian,
    unvec,
    vec,
)

DENSE_FILL = 1.0 / 16.0      # generators at least this full are stored dense
# scipy's expm_multiply estimates norms of matrix powers past this shifted
# |A dt|_1: 2 ell p_max (p_max + 3) theta_55 / 55 with ell = 2, p_max = 8
# (Al-Mohy and Higham 2011, condition (3.13))
EXPM_NORM_SWITCH = 63.36
# Uniqueness gate on 1/cond_1 of the bordered generator: the solve loses
# about log10(1/margin) digits, so 1e-10 keeps six.  A weak decay at rate
# r against an O(1) Hamiltonian reads margin ~ r/2.
STATIONARY_MARGIN = 1e-10


class LindbladModel:
    """Effective Hamiltonian, jump operators and the rate matrix.

    The rate matrix must be Hermitian positive semidefinite; ``rates``
    may be given as a 1d array of diagonal rates or omitted entirely
    (identity) when the jump operators already absorb their rates.
    Every entry of every input must be finite.  The forward generator is
    built once, on first use, so the inputs must not change after that.
    """

    def __init__(self, h_bar, jump_ops, rates=None):
        self.h_bar = require_hermitian(h_bar, name="h_bar")
        self.jump_ops = [as_operator(require_finite(v, "jump operator"), "jump operator")
                         for v in jump_ops]
        d = self.h_bar.shape[0]
        for v in self.jump_ops:
            if v.shape[0] != d:
                raise ValueError("jump operator dimension mismatch")
        n = len(self.jump_ops)
        if rates is None:
            rates = np.eye(n)
        rates = require_finite(rates, "rate matrix")
        if rates.ndim == 1:
            rates = np.diag(rates)
        if rates.shape != (n, n):
            raise ValueError(f"rate matrix shape {rates.shape} != ({n}, {n})")
        if n:
            if np.abs(rates - rates.conj().T).max() > qcore.VALID_TOL:
                raise ValueError("rate matrix is not Hermitian")
            if np.linalg.eigvalsh(0.5 * (rates + rates.conj().T)).min() < -qcore.VALID_TOL:
                raise ValueError("rate matrix is not positive semidefinite")
        self.rates = rates

    @property
    def dim(self):
        return self.h_bar.shape[0]

    @cached_property
    def _forward(self):
        """Forward generator stored by fill, built on first use and read-only."""
        gen = _generator(self, None)
        for array in (gen.data, gen.indices, gen.indptr) if scipy.sparse.issparse(gen) else (gen,):
            array.flags.writeable = False
        return gen


class Superoperator:
    """Matrix representation of a map on column-stacked operators."""

    def __init__(self, matrix, dim, kind=None):
        self.matrix = matrix
        self.dim = dim
        self.kind = kind  # "forward", "dual" or None

    @property
    def is_sparse(self):
        return scipy.sparse.issparse(self.matrix)

    @cached_property
    def norm(self):
        """Induced 1-norm (largest column sum), the scale of every gate."""
        return _one_norm(self.matrix)

    def dense(self):
        return self.matrix.toarray() if self.is_sparse else self.matrix

    def apply(self, operator):
        return unvec(self.matrix @ vec(operator), self.dim)


def _one_norm(a):
    return float(abs(a).sum(axis=0).max()) if a.size else 0.0


def _generator(model, sparse):
    """Forward generator I (x) J + conj(J) (x) I + sum a_mu_nu conj(V_nu) (x) V_mu.

    J = -i h_bar - M/2 with M = sum a_mu_nu V_nu^dag V_mu.  ``sparse=None``
    stores it dense when a bound on its non-zero count, read off the
    Kronecker factors, reaches ``DENSE_FILL`` of its d^4 entries.
    """
    d = model.dim
    pairs = [(model.rates[mu, nu], model.jump_ops[mu], model.jump_ops[nu])
             for mu, nu in zip(*np.nonzero(model.rates))]
    j = -1j * model.h_bar
    for a, v_mu, v_nu in pairs:
        j = j - 0.5 * a * (v_nu.conj().T @ v_mu)
    if sparse is None:
        nz = np.count_nonzero
        bound = 2 * d * nz(j) + sum(nz(v_nu) * nz(v_mu) for _, v_mu, v_nu in pairs)
        sparse = bound < DENSE_FILL * d ** 4
    if sparse:
        csr = scipy.sparse.csr_matrix
        eye = scipy.sparse.identity(d, format="csr")
        gen = scipy.sparse.kron(eye, csr(j)) + scipy.sparse.kron(csr(j.conj()), eye)
        for a, v_mu, v_nu in pairs:
            gen = gen + a * scipy.sparse.kron(csr(v_nu.conj()), csr(v_mu))
        return scipy.sparse.csr_matrix(gen)
    # gen[c, r, c', r'] is the entry between vec indices r + d c and r' + d c'
    gen = np.zeros((d, d, d, d), dtype=complex)
    k = np.arange(d)
    gen[k, :, k, :] += j
    gen[:, k, :, k] += j.conj()
    gen = gen.reshape(d * d, d * d)
    for a, v_mu, v_nu in pairs:
        gen += np.kron(a * v_nu.conj(), v_mu)
    return gen


def _forward_matrix(model, sparse):
    return model._forward if sparse is None else _generator(model, sparse)


def liouvillian(model, sparse=None):
    """Forward generator of d(rho)/dt; annihilates the trace functional.

    ``sparse=None`` picks the storage by fill (``DENSE_FILL``) and returns
    the model's generator, built once per model; an explicit ``sparse``
    builds a fresh one in that storage.
    """
    return Superoperator(_forward_matrix(model, sparse), model.dim, kind="forward")


def dual_liouvillian(model, sparse=None):
    """Adjoint generator for Heisenberg-picture operators.

    dA/dt = +i[h_bar, A] + sum a_mu_nu (V_nu^dag A V_mu
    - (V_nu^dag V_mu A + A V_nu^dag V_mu)/2).  It is the conjugate
    transpose of the forward generator (the Hilbert-Schmidt adjoint), so
    it annihilates the identity but generally does not preserve the trace.
    """
    gen = _forward_matrix(model, sparse)
    gen = gen.conj().T.tocsr() if scipy.sparse.issparse(gen) else np.conjugate(gen.T, order="C")
    return Superoperator(gen, model.dim, kind="dual")


def _by_fill(a):
    """``a`` stored dense when at least ``DENSE_FILL`` of its entries are stored, else CSR."""
    full = np.prod(a.shape) * DENSE_FILL
    if scipy.sparse.issparse(a):
        return a.toarray() if a.nnz >= full else a
    return a if np.count_nonzero(a) >= full else scipy.sparse.csr_matrix(a)


def _reachable(a, v):
    """Indices that the stored pattern of ``a`` reaches from the support of v.

    Column j of ``a`` feeds every row i with a stored entry a[i, j], so the
    closure S of supp(v) under that pattern holds a^k v for every k, and
    with it exp(t a) v.  Returns None when S is the whole space.
    """
    reached = v != 0
    if reached.all():
        return None
    if scipy.sparse.issparse(a):
        n = reached.size
        csc = a.tocsc()
        sources = np.flatnonzero(reached)
        # one breadth-first search from a virtual node n joined to every source
        indptr = np.append(csc.indptr, csc.indptr[-1] + sources.size)
        indices = np.concatenate([csc.indices, sources])
        graph = scipy.sparse.csr_matrix((np.ones(indices.size), indices, indptr),
                                        shape=(n + 1, n + 1))
        reached[breadth_first_order(graph, n, return_predecessors=False)[1:]] = True
    else:
        frontier = np.flatnonzero(reached)
        while frontier.size:
            new = (a[:, frontier] != 0).any(axis=1) & ~reached
            reached |= new
            frontier = np.flatnonzero(new)
    return None if reached.all() else np.flatnonzero(reached)


def _shifted_one_norm(a):
    """||a - mu I||_1 with mu = tr(a) / n, the norm scipy's expm_multiply gates on."""
    n = a.shape[0]
    eye = scipy.sparse.identity(n, format="csr") if scipy.sparse.issparse(a) else np.eye(n)
    return _one_norm(a - (a.diagonal().sum() / n) * eye)


def _expm_pays(a, norm, moving, distinct):
    """Whether one dense expm per distinct step beats expm_multiply on every step.

    ``moving`` holds every positive step and ``distinct`` one step per
    exponential the expm route would build.  Costs are in nanoseconds,
    fitted to scipy on one core for dense n x n matrices with n = 4..576
    and sparse ones with 34..11286 stored entries.  A dense expm costs
    about 2.2e4 + 134 n^2 + 1.18 n^3, plus 0.14 n^3 for each of its
    ceil(log2(|a dt|_1 / 5.37)) squarings, and densifying a sparse ``a``
    or one product with the dense exponential 0.83 n^2.  One
    expm_multiply call costs a fixed 1.4e5 (dense) or 6.4e5 (sparse) plus
    (6 |a dt|_1 + 25) products of 3.2e3 + 0.43 n^2 (dense) or
    4.0e3 + 2.7 nnz (sparse).  Past |(a - mu I) dt|_1 = EXPM_NORM_SWITCH,
    mu = tr(a) / n, scipy first estimates the 1-norms of powers of a and
    then needs fewer products: such a call costs 2.2e6 more and
    (2.5 |a dt|_1 + 300) products when dense, and 5.5e6 more when sparse.
    """
    n = a.shape[0]
    sparse = scipy.sparse.issparse(a)
    squarings = np.maximum(np.ceil(np.log2(np.maximum(norm * distinct, 1e-300) / 5.37)), 0.0)
    expm_cost = (np.sum(2.2e4 + 134.0 * n ** 2 + (1.18 + 0.14 * squarings) * n ** 3)
                 + (moving.size + sparse) * 0.83 * n ** 2)
    call, product = (6.4e5, 4.0e3 + 2.7 * a.nnz) if sparse else (1.4e5, 3.2e3 + 0.43 * n ** 2)
    x = norm * moving
    krylov = call + (6.0 * x + 25.0) * product
    # the shifted norm is at most twice the norm, so below half the switch it is not needed
    if 2.0 * x.max(initial=0.0) > EXPM_NORM_SWITCH:
        estimated = _shifted_one_norm(a) * moving > EXPM_NORM_SWITCH
        krylov[estimated] = (krylov[estimated] + 5.5e6 if sparse
                             else call + 2.2e6 + (2.5 * x[estimated] + 300.0) * product)
    krylov_cost = np.sum(krylov)
    return expm_cost <= krylov_cost


def propagate_series(g, x0, times):
    """exp(t G) applied to an operator at every time of an ascending grid.

    The operator is stepped from 0 to ``times[0]`` and then from one grid
    time to the next; steps that agree to 1e-12 of the longest share one
    exponential.  Only the block of G on the entries reachable from x0 is
    propagated (see ``_reachable``); the others stay exactly 0.  ``times``
    must be finite, non-negative and ascending.  Returns an array of
    shape (len(times), d, d).  Forward generators must preserve the trace
    of ``x0`` to 1e-10 (relative to max(1, |Tr x0|)) at every time; a
    violation signals a broken generator.
    """
    x0 = as_operator(x0, "x0")
    if x0.shape[0] != g.dim:
        raise ValueError(f"operator dimension {x0.shape[0]} != superoperator dim {g.dim}")
    times = qcore.time_grid(times)
    steps = np.diff(times, prepend=0.0)
    longest = steps.max(initial=0.0)
    keys = np.round(steps / longest, 12) if longest > 0.0 else steps
    full = vec(x0)
    index = _reachable(g.matrix, full)
    if index is None:
        a, norm, index = g.matrix, g.norm, slice(None)
    else:
        a = _by_fill(g.matrix[np.ix_(index, index)])
        norm = _one_norm(a)
    v = full[index]
    full = np.zeros_like(full)
    moving = steps > 0.0
    first = np.unique(keys[moving], return_index=True)[1]
    use_expm = _expm_pays(a, norm, steps[moving], steps[moving][first])
    if use_expm and scipy.sparse.issparse(a):
        a = a.toarray()
    exponentials = {}
    out = np.empty((times.size, g.dim, g.dim), dtype=complex)
    for k, (dt, key) in enumerate(zip(steps, keys)):
        if dt > 0.0:
            if not use_expm:
                v = scipy.sparse.linalg.expm_multiply(a * dt, v)
            else:
                if key not in exponentials:
                    exponentials[key] = scipy.linalg.expm(a * dt)
                v = exponentials[key] @ v
        full[index] = v
        out[k] = unvec(full, g.dim)
    if g.kind == "forward" and out.size:
        trace0 = np.trace(x0)
        drift = np.abs(np.trace(out, axis1=1, axis2=2) - trace0).max()
        if drift > 1e-10 * max(1.0, abs(trace0)):
            raise RuntimeError(f"forward propagation changed the trace by {drift:.3e}")
    return out


def propagate(g, x0, t):
    """exp(t G) applied to an operator: the one-point ``propagate_series``."""
    return propagate_series(g, x0, [t])[0]


def generator_spectrum(g):
    """Eigenvalues of the generator (dense route)."""
    return np.linalg.eigvals(g.dense())


def spectral_gap(g):
    """Slowest nonzero relaxation rate |Re lambda| of the generator.

    Eigenvalues within ``1e-9 * ||G||_1`` of zero count as zero.
    """
    evals = generator_spectrum(g)
    rates = np.abs(evals.real[np.abs(evals) > 1e-9 * g.norm])
    if rates.size == 0:
        raise ValueError("generator has no decaying modes")
    return float(rates.min())


def _bordered_lu(g, scale):
    """LU of the generator with row 0 replaced by ``scale`` times the trace functional.

    Returns (solve, adjoint_solve, ||A||_1); raises DegenerateSteadyStateError
    when A is exactly singular.  Row 0 is the (0, 0) population equation,
    which trace preservation makes minus the sum of the other population rows.
    """
    trace_row = scale * vec(np.eye(g.dim))
    if g.is_sparse:
        a = scipy.sparse.vstack([scipy.sparse.csr_matrix(trace_row), g.matrix[1:]], format="csc")
        try:
            lu = scipy.sparse.linalg.splu(a)
        except RuntimeError as exc:
            raise DegenerateSteadyStateError(f"bordered generator is singular: {exc}") from None
        return lu.solve, lambda b: lu.solve(b, trans="H"), float(abs(a).sum(axis=0).max())
    a = np.array(g.matrix, dtype=complex)
    a[0] = trace_row
    a_norm = float(np.abs(a).sum(axis=0).max())
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise DegenerateSteadyStateError(
            f"bordered generator is singular: pivot {info} is exactly zero"
        )
    return (lambda b: scipy.linalg.lu_solve((lu, piv), b),
            lambda b: scipy.linalg.lu_solve((lu, piv), b, trans=2), a_norm)


def stationary_state(g):
    """Unique unit-trace null vector of a forward generator.

    Solves L x = 0 with one row replaced by the trace functional (see
    ``_bordered_lu``).  Raises DegenerateSteadyStateError when that
    bordered matrix A is singular or its uniqueness margin
    1/(||A||_1 ||A^-1||_1), with ||A^-1||_1 estimated on the LU, falls
    below ``STATIONARY_MARGIN``, since the degree of quantumness is only
    defined for dynamics whose stationary state is independent of the
    initial condition.  The residual max|L[rho]| must stay below
    ``1e-9 * ||L||_1``.
    """
    n = g.dim ** 2
    scale = g.norm or 1.0
    solve, adjoint_solve, a_norm = _bordered_lu(g, scale)
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=solve, rmatvec=adjoint_solve, matmat=solve, rmatmat=adjoint_solve,
        dtype=complex,
    )
    # t=1 keeps the estimate deterministic and off numpy's global random state
    margin = 1.0 / (a_norm * scipy.sparse.linalg.onenormest(inverse, t=1))
    if not margin >= STATIONARY_MARGIN:
        raise DegenerateSteadyStateError(
            f"stationary state is not unique: margin {margin:.3e} below {STATIONARY_MARGIN:.0e}"
        )
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = scale
    rho = unvec(solve(rhs), g.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = np.abs(g.apply(rho)).max()
    if residual > 1e-9 * scale:
        raise RuntimeError(f"stationary-state residual {residual:.3e} exceeds 1e-09 * {scale:.3e}")
    return QuantumState(rho, tol=1e-8)


def time_reversed_state(rho):
    """Entrywise complex conjugate in the computational basis.

    Realizes the time-reversal that turns the stationary state into the
    object whose top eigenvector is the reported optimal initial state.
    The spectrum is untouched; only eigenvectors conjugate.
    """
    m = rho.matrix if isinstance(rho, QuantumState) else QuantumState(rho).matrix
    dims = rho.dims if isinstance(rho, QuantumState) else None
    return QuantumState(m.conj(), dims=dims)


def kraus_from_superoperator(g):
    """Kraus operators of a completely positive map given as a matrix.

    Goes through the Choi matrix; small negative Choi eigenvalues are
    clipped at 1e-12 times the largest one.
    """
    d = g.dim
    mat = g.dense()
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            block = unvec(mat @ vec(e_ij), d)
            choi += np.kron(e_ij, block)
    choi = 0.5 * (choi + choi.conj().T)
    evals, evecs = np.linalg.eigh(choi)
    kraus = []
    floor = 1e-12 * max(evals.max(), 1.0)
    for lam, col in zip(evals, evecs.T):
        if lam < -100 * floor:
            raise ValueError(f"map is not completely positive (Choi eigenvalue {lam:.3e})")
        if lam > floor:
            # Choi eigenvector component (i, m) holds K[m, i]
            kraus.append(np.sqrt(lam) * col.reshape(d, d).T)
    return kraus
