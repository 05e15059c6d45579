"""Lindblad generators, their duals, grid propagation and stationary states.

Superoperators act on column-stacked operators, so a generator on a
d-dimensional system is a d^2 x d^2 matrix G.  Each job has one route:

* Real coordinates.  Dissipative dynamics preserve Hermiticity, so every
  generator, every propagated operator X_t = e^{tL}[X] and every
  stationary state lives in the real d^2-dimensional space of Hermitian
  operators.  A Hermitian X is stored as Y = Re X + Im X (column-stacked):
  Re X is symmetric and Im X antisymmetric, so the map is an isometry that
  keeps the vec index layout, the trace functional and the diagonal
  indices, and Tr[A X] = y_A . y_X.  Its inverse is X = sym(Y) + i anti(Y)
  (Alicki & Lendi, Quantum Dynamical Semigroups and Applications, LNP 717
  (2007), for the real form of a semigroup generator).  With P the
  transpose permutation r + d c <-> c + d r, a map that satisfies
  conj(G) = P G P acts on Y as the float64 matrix L = Re G + Im(G P), which
  inverts as G = (L + PLP)/2 + i(LP - PL)/2.  The dual (Hilbert-Schmidt
  adjoint) is exactly L.T.  Only Hermitian operators enter: each passes
  ``qcore.require_hermitian`` where it enters, and its exact Hermitian
  part is stepped as its one real column (``_column``).  Model inputs are
  checked once, in ``LindbladModel``, and are not checked again.
* Storage.  A generator is kept dense when at least ``DENSE_FILL`` of its
  entries can be non-zero (a bound read off its Kronecker factors) and
  sparse otherwise: below that fill the sparse form is the smaller one
  and its products and LU are the cheaper ones.  That bound is the only
  storage switch.  A sparse L is summed from the COO triplets of the
  Kronecker terms of G in one ``csr_matrix`` call; a dense L is formed
  from Re G and Im G, assembled with two real products over the jump
  pairs.  A model builds its forward and dual ``Superoperator`` once
  each, on first use, so their finiteness check and norm run once per
  model; the dual shares the forward real form as its transpose.  A
  ``Superoperator`` is constructed from a real form only and keeps the
  storage it is given; the complex ``Superoperator.matrix`` is rebuilt
  from it on request.
* Propagation.  ``propagate_series`` first closes the support of the
  initial coordinates under the stored non-zero pattern of L.  That set S
  is invariant under every ``exp(t L)``, so when it is a proper subset the
  series runs on the principal block ``L[S, S]`` (stored by fill) and is
  scattered back into zeros; a phase-covariant dissipator keeps a
  diagonal operator diagonal, so the thermal oscillator's d^2 space
  shrinks to d (Albert & Jiang, PRA 89, 022118 (2014)).  The series steps
  from one grid time to the next.  One ``expm(L dt)`` per distinct step,
  densified and reused for every repeat of that step (a uniform grid
  costs one exponential plus matrix-vector products), is taken whenever a
  fitted cost model prices it below ``expm_multiply`` (Al-Mohy & Higham,
  SIAM J. Sci. Comput. 33 (2011)) on every step; otherwise each step is
  one ``expm_multiply``.  All times map back to operators in one
  vectorised call.  ``propagate`` is the one-point case.
* Stationary state.  ``stationary_state`` solves ``L y = 0`` with its first
  row replaced by the trace functional scaled to ``||L||_1``, by a dense
  real LU or by ``splu``.  Uniqueness is gated by the relative margin
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
    require_hermitian,
    state_matrix,
)

DENSE_FILL = 1.0 / 16.0      # generators at least this full are stored dense
# scipy's expm_multiply estimates norms of matrix powers past this shifted
# |A dt|_1 for one column: 2 ell p_max (p_max + 3) theta_55 / 55 with
# ell = 2, p_max = 8 (Al-Mohy and Higham 2011, condition (3.13))
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
    Every operator must be at least 1 x 1 and every entry of every input
    finite; ``h_bar`` and the rate matrix are kept as their exact
    Hermitian parts.  The generators are built once, on first use, so the
    inputs must not change after that.
    """

    def __init__(self, h_bar, jump_ops, rates=None):
        self.h_bar = require_hermitian(h_bar, name="h_bar")
        self.jump_ops = [as_operator(v, "jump operator") for v in jump_ops]
        d = self.h_bar.shape[0]
        for v in self.jump_ops:
            if v.shape[0] != d:
                raise ValueError("jump operator dimension mismatch")
        n = len(self.jump_ops)
        rates = np.asarray(np.eye(n) if rates is None else rates, dtype=complex)
        if rates.ndim == 1:
            rates = np.diag(rates)
        if rates.shape != (n, n):
            raise ValueError(f"rate matrix shape {rates.shape} != ({n}, {n})")
        if n:
            rates = require_hermitian(rates, name="rate matrix")
            gate = qcore.VALID_TOL * max(1.0, np.abs(rates).max())
            if np.linalg.eigvalsh(rates).min() < -gate:
                raise ValueError("rate matrix is not positive semidefinite")
        self.rates = rates

    @property
    def dim(self):
        return self.h_bar.shape[0]

    @cached_property
    def _forward(self):
        """Forward generator, its real form stored by fill and read-only, built on first use."""
        gen = _generator(self, None)
        _freeze(gen)
        return Superoperator(gen, self.dim, "forward")

    @cached_property
    def _dual(self):
        """Dual generator, whose real form is the transpose (a view) of the forward one."""
        return Superoperator(self._forward.real.T, self.dim, "dual")


class Superoperator:
    """A Hermiticity-preserving map on column-stacked operators.

    It is given and stored as its real form ``real`` = Re G + Im(G P), a
    float64 d^2 x d^2 array or scipy sparse matrix kept in the storage it
    comes in, which acts on the real coordinates of Hermitian operators
    (see ``real_coordinates``).  Every real matrix is the real form of a
    Hermiticity-preserving G, so only a complex dtype, a wrong shape or a
    non-finite entry raises ValueError.  ``matrix``, the complex matrix G
    in the vec basis, is rebuilt from it on request.
    """

    def __init__(self, real, dim, kind=None):
        if not scipy.sparse.issparse(real):
            real = np.asarray(real)
        if real.dtype.kind == "c":
            raise ValueError(f"superoperator takes its real form Re G + Im(G P), "
                             f"not a {real.dtype} matrix")
        if real.shape != (dim * dim, dim * dim):
            raise ValueError(f"superoperator shape {real.shape} != ({dim * dim}, {dim * dim})")
        if not np.isfinite(real.data if scipy.sparse.issparse(real) else real).all():
            raise ValueError("superoperator has a non-finite entry")
        self.real = real
        self.dim = dim
        self.kind = kind  # "forward", "dual" or None

    @property
    def is_sparse(self):
        return scipy.sparse.issparse(self.real)

    @cached_property
    def norm(self):
        """Induced 1-norm of ``real`` (largest column sum), the scale of every gate."""
        return _one_norm(self.real)

    @property
    def matrix(self):
        """G = (L + PLP)/2 + i(LP - PL)/2 from L = ``real``, read-only, rebuilt per access."""
        pi = _transpose_index(self.dim)
        lp, pl = self.real[:, pi], self.real[pi]
        g = 0.5 * (self.real + pl[:, pi]) + 0.5j * (lp - pl)
        _freeze(g)
        return g

    def dense(self):
        return self.matrix.toarray() if self.is_sparse else self.matrix

    def apply(self, operator):
        """G[X] for a Hermitian X; raises ValueError unless X passes ``_column``."""
        return hermitian_operator((self.real @ _column(operator, self.dim))[:, 0], self.dim)


def _one_norm(a):
    return float(abs(a).sum(axis=0).max()) if a.shape[0] else 0.0


def _freeze(a):
    for array in (a.data, a.indices, a.indptr) if scipy.sparse.issparse(a) else (a,):
        array.flags.writeable = False


def _transpose_index(d):
    """P as an index map: vec(X^T)[k] = vec(X)[P[k]], so P[r + d c] = c + d r."""
    k = np.arange(d * d)
    return k % d * d + k // d


def _real_csr(rows, cols, vals, d):
    """CSR L from COO triplets of G, duplicates summed in one call.

    A triplet (i, j, v) adds Re v at (i, j) and Im v at (i, P j).
    """
    vals = np.asarray(vals, dtype=complex)
    re, im = vals.real != 0, vals.imag != 0
    real = scipy.sparse.csr_matrix(
        (np.concatenate([vals.real[re], vals.imag[im]]),
         (np.concatenate([rows[re], rows[im]]),
          np.concatenate([cols[re], _transpose_index(d)[cols[im]]]))),
        shape=(d * d, d * d),
    )
    real.eliminate_zeros()
    return real


def real_coordinates(x):
    """Real coordinates vec(Re X + Im X) of a Hermitian X, or of each of a stack.

    For Hermitian X, Re X is symmetric and Im X antisymmetric, so the map
    is an isometry onto R^(d^2) that keeps the vec index layout, and
    Tr[A X] = real_coordinates(A) . real_coordinates(X) for Hermitian A.
    """
    m = np.asarray(x)
    return np.swapaxes(m.real + m.imag, -1, -2).reshape(*m.shape[:-2], -1)


def hermitian_operator(y, dim):
    """Inverse of ``real_coordinates``: X = sym(Y) + i anti(Y), Y = unvec(y), over leading axes."""
    y = np.asarray(y)
    m = np.swapaxes(y.reshape(*y.shape[:-1], dim, dim), -1, -2)
    mt = np.swapaxes(m, -1, -2)
    x = np.empty(m.shape, dtype=complex)
    x.real = 0.5 * (m + mt)
    x.imag = 0.5 * (m - mt)
    return x


def _column(x, dim):
    """Real coordinate column (d^2, 1) of the Hermitian part that ``require_hermitian`` returns."""
    x = require_hermitian(x, name="operator")
    if x.shape[0] != dim:
        raise ValueError(f"operator dimension {x.shape[0]} != superoperator dim {dim}")
    return real_coordinates(x)[:, None]


def _generator(model, sparse):
    """Forward generator in real coordinates, L = Re G + Im(G P).

    G = I (x) J + conj(J) (x) I + sum a_mu_nu conj(V_nu) (x) V_mu with
    J = -i h_bar - M/2, M = sum a_mu_nu V_nu^dag V_mu.  ``sparse=None``
    stores it dense when a bound on its non-zero count, read off the
    Kronecker factors, reaches ``DENSE_FILL`` of its d^4 entries.  Sparse L
    is summed from the COO triplets of G in one ``csr_matrix`` call; dense
    L is formed from Re G and Im G, whose pair terms come from two real
    products over the jump pairs, so no complex d^4 array is formed.
    """
    d = model.dim
    pairs = [(model.rates[mu, nu], model.jump_ops[nu].conj(), model.jump_ops[mu])
             for mu, nu in zip(*np.nonzero(model.rates))]
    j = -1j * model.h_bar
    for a, v_nu, v_mu in pairs:
        j = j - 0.5 * a * (v_nu.T @ v_mu)
    if sparse is None:
        nz = np.count_nonzero
        bound = 2 * d * nz(j) + sum(nz(v_nu) * nz(v_mu) for _, v_nu, v_mu in pairs)
        sparse = bound < DENSE_FILL * d ** 4
    if sparse:
        eye = np.eye(d)
        triplets = [_kron_triplets(eye, j, d), _kron_triplets(j.conj(), eye, d),
                    *(_kron_triplets(v_nu, v_mu, d, a) for a, v_nu, v_mu in pairs)]
        return _real_csr(*(np.concatenate(t) for t in zip(*triplets)), d)
    # re and im are Re G and Im G with [c, r, c', r'] the entry between vec
    # indices r + d c and r' + d c'.  The pairs add a conj(V_nu)[c, c'] V_mu[r, r']:
    # one complex product over the pairs, taken as two real ones so that no
    # complex d^4 array is formed.
    p = np.array([a * v_nu for a, v_nu, _ in pairs], dtype=complex).reshape(len(pairs), d * d)
    q = np.array([v_mu for _, _, v_mu in pairs], dtype=complex).reshape(len(pairs), d * d)
    re = np.concatenate([p.real, -p.imag]).T @ np.concatenate([q.real, q.imag])
    im = np.concatenate([p.real, p.imag]).T @ np.concatenate([q.imag, q.real])
    re, im = (x.reshape(d, d, d, d).transpose(0, 2, 1, 3) for x in (re, im))
    k = np.arange(d)
    re[k, :, k, :] += j.real                # I (x) J
    re[:, k, :, k] += j.real                # conj(J) (x) I
    im[k, :, k, :] += j.imag
    im[:, k, :, k] -= j.imag
    # L = Re G + Im(G P): P swaps the last two axes of the column index
    return (re + im.transpose(0, 1, 3, 2)).reshape(d * d, d * d)


def _kron_triplets(a, b, d, scale=1.0):
    """COO triplets of scale * kron(a, b): scale (a[c, c'] b[r, r']) at (r + d c, r' + d c').

    The scale multiplies last, so a real-rate pair conj(V) (x) V and its
    mirror under P hold exactly conjugate values.
    """
    (c, c2), (r, r2) = np.nonzero(a), np.nonzero(b)
    vals = (scale * np.multiply.outer(a[c, c2], b[r, r2])).ravel()
    return ((r + d * c[:, None]).ravel(), (r2 + d * c2[:, None]).ravel(), vals)


def liouvillian(model):
    """Forward generator of d(rho)/dt; annihilates the trace functional.

    It is the model's generator, built once and stored by ``DENSE_FILL``:
    every call returns the same read-only Superoperator."""
    return model._forward


def dual_liouvillian(model):
    """Adjoint generator for Heisenberg-picture operators.

    dA/dt = +i[h_bar, A] + sum a_mu_nu (V_nu^dag A V_mu
    - (V_nu^dag V_mu A + A V_nu^dag V_mu)/2).  It is the Hilbert-Schmidt
    adjoint of the forward generator, which in the orthonormal real
    coordinates is the transpose ``L.T`` (a view, no copy); it annihilates
    the identity but generally does not preserve the trace.  Every call
    returns the same Superoperator.
    """
    return model._dual


def _by_fill(a):
    """``a`` stored dense when at least ``DENSE_FILL`` of its entries are stored, else CSR."""
    full = np.prod(a.shape) * DENSE_FILL
    if scipy.sparse.issparse(a):
        return a.toarray() if a.nnz >= full else a
    return a if np.count_nonzero(a) >= full else scipy.sparse.csr_matrix(a)


def _reachable(a, support):
    """Indices that the stored pattern of ``a`` reaches from a boolean ``support``.

    Column j of ``a`` feeds every row i with a stored entry a[i, j], so for
    every v supported on ``support`` the closure S of that support under
    the pattern holds a^k v for every k, and with it exp(t a) v.  Returns
    None when S is the whole space.
    """
    reached = support.copy()
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

    ``a`` is a real generator block stepping one coordinate column,
    ``moving`` holds every positive step and ``distinct`` one step per
    exponential the expm route would build.  Costs are in nanoseconds,
    fitted to scipy on one core for float64 matrices: dense n x n with
    n = 4..576 and sparse ones with 518..15068 stored entries (minimum of
    9-25 runs, two sessions; each fit is within 0.48-1.65x of every
    measurement).  A dense expm costs 1.9e4 + 25 n^2 + 0.34 n^3, plus
    0.06 n^3 for each of its ceil(log2(|a dt|_1 / 5.37)) squarings;
    densifying a sparse ``a`` costs 0.45 n^2 and one product with the
    exponential 1.2e3 + 0.25 n^2.  One expm_multiply call at x = |a dt|_1
    costs 1.7e5 + 7 n^2 + x (2.5e4 + 0.29 n^2) when dense and 9.3e5
    + 58 nnz + x (8.9e4 + 6.7 nnz) when sparse.  Past |(a - mu I) dt|_1
    = EXPM_NORM_SWITCH, mu = tr(a) / n, scipy first estimates the 1-norms
    of powers of a and then needs fewer products: such a call costs 2.4e6
    + 84 n^2 + 1.2e4 x when dense and 8.5e6 + 1370 nnz + x (7.0e4 + 4.8 nnz)
    when sparse.
    """
    n = a.shape[0]
    sparse = scipy.sparse.issparse(a)
    squarings = np.maximum(np.ceil(np.log2(np.maximum(norm * distinct, 1e-300) / 5.37)), 0.0)
    expm_cost = (np.sum(1.9e4 + 25.0 * n ** 2 + (0.34 + 0.06 * squarings) * n ** 3)
                 + moving.size * (1.2e3 + 0.25 * n ** 2) + sparse * 0.45 * n ** 2)
    x = norm * moving
    if sparse:
        krylov = 9.3e5 + 58.0 * a.nnz + x * (8.9e4 + 6.7 * a.nnz)
    else:
        krylov = 1.7e5 + 7.0 * n ** 2 + x * (2.5e4 + 0.29 * n ** 2)
    # the shifted norm is at most twice the norm, so below half the switch it is not needed
    if 2.0 * x.max(initial=0.0) > EXPM_NORM_SWITCH:
        estimated = _shifted_one_norm(a) * moving > EXPM_NORM_SWITCH
        xe = x[estimated]
        krylov[estimated] = (8.5e6 + 1370.0 * a.nnz + xe * (7.0e4 + 4.8 * a.nnz) if sparse
                             else 2.4e6 + 84.0 * n ** 2 + 1.2e4 * xe)
    return expm_cost <= np.sum(krylov)


def propagate_series(g, x0, times):
    """exp(t G) applied to an operator at every time of an ascending grid.

    The operator is stepped from 0 to ``times[0]`` and then from one grid
    time to the next; steps that agree to 1e-12 of the longest share one
    exponential.  A finite, Hermitian ``x0`` (else ValueError, see
    ``_column``) is stepped as its one real coordinate column, by the
    block of the real generator on the entries reachable from it (see
    ``_reachable``); the others stay exactly 0.  ``times`` must be finite,
    non-negative and ascending.  Returns an array of shape (len(times), d,
    d).  Forward generators must preserve the trace of ``x0`` to 1e-10
    (relative to max(1, |Tr x0|)) at every time; a violation, NaN
    included, signals a broken generator.
    """
    y0 = _column(x0, g.dim)
    times = qcore.time_grid(times)
    steps = np.diff(times, prepend=0.0)
    longest = steps.max(initial=0.0)
    keys = np.round(steps / longest, 12) if longest > 0.0 else steps
    index = _reachable(g.real, y0.any(axis=1))
    if index is None:
        a, norm, index = g.real, g.norm, slice(None)
    else:
        a = _by_fill(g.real[np.ix_(index, index)])
        norm = _one_norm(a)
    v = y0[index]
    moving = steps > 0.0
    first = np.unique(keys[moving], return_index=True)[1]
    use_expm = _expm_pays(a, norm, steps[moving], steps[moving][first])
    if use_expm and scipy.sparse.issparse(a):
        a = a.toarray()
    exponentials = {}
    ys = np.zeros((times.size, y0.shape[0]))
    for k, (dt, key) in enumerate(zip(steps, keys)):
        if dt > 0.0:
            if not use_expm:
                v = scipy.sparse.linalg.expm_multiply(a * dt, v)
            else:
                if key not in exponentials:
                    exponentials[key] = scipy.linalg.expm(a * dt)
                v = exponentials[key] @ v
        ys[k, index] = v[:, 0]
    out = hermitian_operator(ys, g.dim)
    if g.kind == "forward" and out.size:
        trace0 = y0[::g.dim + 1, 0].sum()  # the trace functional keeps its vec form
        drift = np.abs(np.trace(out, axis1=1, axis2=2) - trace0).max()
        if not drift <= 1e-10 * max(1.0, abs(trace0)):
            raise RuntimeError(f"forward propagation changed the trace by {drift:.3e}")
    return out


def propagate(g, x0, t):
    """exp(t G) applied to an operator: the one-point ``propagate_series``."""
    return propagate_series(g, x0, [t])[0]


def generator_spectrum(g):
    """Eigenvalues of the generator, from its real form (unitarily similar to G)."""
    return np.linalg.eigvals(g.real.toarray() if g.is_sparse else g.real)


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
    """LU of the real generator with row 0 replaced by ``scale`` times the trace functional.

    Returns (solve, transpose_solve, ||A||_1); raises DegenerateSteadyStateError
    when A is exactly singular.  Row 0 is the (0, 0) population equation,
    which trace preservation makes minus the sum of the other population
    rows.  The trace functional keeps its vec form in real coordinates.
    """
    trace_row = scale * np.eye(g.dim).ravel()
    if g.is_sparse:
        a = scipy.sparse.vstack([scipy.sparse.csr_matrix(trace_row), g.real[1:]], format="csc")
        try:
            lu = scipy.sparse.linalg.splu(a)
        except RuntimeError as exc:
            raise DegenerateSteadyStateError(f"bordered generator is singular: {exc}") from None
        return lu.solve, lambda b: lu.solve(b, trans="T"), float(abs(a).sum(axis=0).max())
    a = np.array(g.real, dtype=float)
    a[0] = trace_row
    a_norm = float(np.abs(a).sum(axis=0).max())
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise DegenerateSteadyStateError(
            f"bordered generator is singular: pivot {info} is exactly zero"
        )
    return (lambda b: scipy.linalg.lu_solve((lu, piv), b),
            lambda b: scipy.linalg.lu_solve((lu, piv), b, trans=1), a_norm)


def stationary_state(g):
    """Unique unit-trace null vector of a forward generator.

    Solves L y = 0 in real coordinates with one row replaced by the trace
    functional (see ``_bordered_lu``).  Raises DegenerateSteadyStateError
    when that bordered matrix A is singular or its uniqueness margin
    1/(||A||_1 ||A^-1||_1), with ||A^-1||_1 estimated on the LU, falls
    below ``STATIONARY_MARGIN``, since the degree of quantumness is only
    defined for dynamics whose stationary state is independent of the
    initial condition.  The residual max|L[rho]| must stay below
    ``1e-9 * ||L||_1``.
    """
    n = g.dim ** 2
    scale = g.norm or 1.0
    solve, transpose_solve, a_norm = _bordered_lu(g, scale)
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=solve, rmatvec=transpose_solve, matmat=solve, rmatmat=transpose_solve,
        dtype=float,
    )
    # t=1 keeps the estimate deterministic and off numpy's global random state
    margin = 1.0 / (a_norm * scipy.sparse.linalg.onenormest(inverse, t=1))
    if not margin >= STATIONARY_MARGIN:
        raise DegenerateSteadyStateError(
            f"stationary state is not unique: margin {margin:.3e} below {STATIONARY_MARGIN:.0e}"
        )
    rhs = np.zeros(n)
    rhs[0] = scale
    rho = hermitian_operator(solve(rhs), g.dim)
    rho = rho / np.trace(rho).real
    residual = np.abs(g.apply(rho)).max()
    if not residual <= 1e-9 * scale:
        raise RuntimeError(f"stationary-state residual {residual:.3e} exceeds 1e-09 * {scale:.3e}")
    return QuantumState(rho, tol=1e-8)


def time_reversed_state(rho):
    """Entrywise complex conjugate in the computational basis.

    Realizes the time-reversal that turns the stationary state into the
    object whose top eigenvector is the reported optimal initial state.
    The spectrum is untouched; only eigenvectors conjugate.
    """
    return QuantumState(state_matrix(rho).conj())


def kraus_from_superoperator(g):
    """Kraus operators of a completely positive map given as a matrix.

    Goes through the Choi matrix; small negative Choi eigenvalues are
    clipped at 1e-12 times the largest one.
    """
    d = g.dim
    # block (i, j) of the Choi matrix is G[E_ij], and G[r + d c, r' + d c'] sits at
    # [c, r, c', r'] of G.reshape(d, d, d, d)
    choi = g.dense().reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
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
