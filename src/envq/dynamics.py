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
  storage switch.  A model derives J, its jump pairs and that bound once
  (``_Kronecker``).  A sparse L is summed from the COO triplets of the
  Kronecker terms of G in one ``csr_matrix`` call; a dense L is formed
  from Re G and Im G, assembled with two real products over the jump
  pairs.  A model's forward and dual ``Superoperator`` are made once each
  and build their real form on its first read of ``real`` (a
  stationary state, a spectrum, ``matrix``, a dense model's propagation),
  so its finiteness check and norm run once per model; the dual shares
  the forward real form as its transpose.  A ``Superoperator`` made from
  a real form keeps the storage it is given; the complex
  ``Superoperator.matrix`` is rebuilt from it on request.
* Propagation.  ``propagate_series`` steps the initial coordinates on the
  set S that their support reaches, one breadth-first search from the
  support (``_reached``).  S is invariant under every ``exp(t L)``, so
  when it is a proper subset the series runs on the principal block
  ``L[S, S]`` (stored by fill, its entries checked finite) and is
  scattered back into zeros; a phase-covariant dissipator keeps a
  diagonal operator diagonal, so the thermal oscillator's d^2 space
  shrinks to d (Albert & Jiang, PRA 89, 022118 (2014)).  A model stored
  sparse searches the pattern of its Kronecker terms and assembles only
  ``L[S, S]`` from J and the jump pairs (``_model_sector``), so its real
  form is built only when S is the whole space; every other generator
  searches the stored pattern of its real form and slices the block out.
  The series steps from one grid time to the next.  One ``expm(L dt)``
  per distinct step, densified and reused for every repeat of that step
  (a uniform grid costs one exponential plus matrix-vector products), is
  taken whenever a fitted cost model prices it below the truncated-Taylor
  action of the block (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
  (2011), Alg. 3.2) on every step; otherwise each step is that action
  (``_TaylorAction``).  The action is set up once per block (trace shift,
  shifted 1-norm and, past condition (3.13), power-norm estimates), so a
  step costs only its products; it needs of the block only ``a @ v``,
  ``a.T @ v``, its diagonal and its column sums.  The exponentials of
  five or more distinct steps of a block of at most 16 rows, as on a log
  grid, are built in one batched Pade pass over the stack
  (``_step_exponentials``); a single step keeps scipy's ``expm``, bit
  for bit, and so do larger blocks.  All times map back to operators in
  one vectorised call.  ``propagate`` is the one-point case, and
  ``reduced_series`` the system marginal of a model dilated by an
  auxiliary factor, such as the phase-type clock of a renewal model.
* Stationary state.  ``stationary_state`` solves ``L y = 0`` with its first
  row replaced by the trace functional scaled to ``||L||_1``, by a dense
  real LU or by ``splu``.  Uniqueness is gated by the relative margin
  ``1/(||A||_1 ||A^-1||_1)`` of that bordered matrix, so every gate scales
  with the generator and ``D_Q`` is invariant under a rescaling of time.
  ``||A^-1||_1`` is estimated on the LU: by one LAPACK ``gecon`` call on a
  dense A, by ``onenormest`` on a sparse one.
"""

import math
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
# The Taylor action estimates norms of powers of the shifted block past this
# |(a - mu I) dt|_1 for one column: 2 ell p_max (p_max + 3) theta_55 / 55 with
# ell = 2, p_max = 8 (Al-Mohy and Higham 2011, condition (3.13))
EXPM_NORM_SWITCH = 63.36
# Fitted costs of the Taylor action in nanoseconds (see ``_expm_pays``): per
# step, per product, and per product and stored entry, dense then sparse
_ACTION_COSTS = {False: (5.6e4, 2.3e3, 0.06), True: (1.2e5, 4.2e3, 4.0)}
# Uniqueness gate on 1/cond_1 of the bordered generator: the solve loses
# about log10(1/margin) digits, so 1e-10 keeps six.  A weak decay at rate
# r against an O(1) Hamiltonian reads margin ~ r/2.
STATIONARY_MARGIN = 1e-10
# Numerators b_0..b_m of the [m/m] Pade approximants of exp at m = 3, 5, 7, 9
# and 13, one row each, and log2 of the largest ||A||_1 at which each m keeps
# the backward error below unit roundoff (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005), Table 2.3)
_PADE_DEGREES = np.array([3, 5, 7, 9, 13])
_PADE = np.array([np.pad(b, (0, 14 - len(b))) for b in (
    (120, 60, 12, 1),
    (30240, 15120, 3360, 420, 30, 1),
    (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1),
    (17643225600, 8821612800, 2075673600, 302702400, 30270240, 2162160, 110880, 3960, 90, 1),
    (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
     10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1),
)], dtype=float)
_PADE_LOG2_THETA = np.log2([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                            2.097847961257068e0, 5.371920351148152e0])
# Degrees m of the truncated Taylor series and theta_m, the largest ||A t / s||_1
# at which s steps of degree m keep the backward error of exp(t A) below unit
# roundoff (m <= 30: Higham and Al-Mohy, Acta Numer. 19, 159 (2010), Table
# A.3; m = 35..55: Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011),
# Table 3.1)
_TAYLOR_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9])
# The pairs (p, m) that (3.11) searches past (3.13), p-major as there: 2 <= p <= 8
# and m >= p (p - 1) - 1, as indices p - 2 into the alphas and k into the table
_POWER_P, _POWER_K = np.array([(p - 2, k) for p in range(2, 9)
                               for k, m in enumerate(_TAYLOR_DEGREES) if m >= p * (p - 1) - 1]).T


class LindbladModel:
    """Effective Hamiltonian, jump operators and the rate matrix.

    The rate matrix must be Hermitian, and positive semidefinite to
    ``VALID_TOL`` times its largest entry; ``rates`` may be given as a 1d
    array of diagonal rates or omitted entirely (identity) when the jump
    operators already absorb their rates.
    Every operator must be at least 1 x 1 and every entry of every input
    finite; ``h_bar`` and the rate matrix are kept as their exact
    Hermitian parts.  Its Kronecker factors and generators are derived
    once, on first use, so the inputs must not change after that.
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
            low = np.linalg.eigvalsh(rates).min()
            if low < -qcore.VALID_TOL * np.abs(rates).max():
                raise ValueError(f"rate matrix is not positive semidefinite (min eigenvalue {low:.3e})")
        self.rates = rates

    @property
    def dim(self):
        return self.h_bar.shape[0]

    @cached_property
    def _kronecker(self):
        return _Kronecker(self)

    @cached_property
    def _forward(self):
        return _ModelGenerator(self._kronecker, "forward")

    @cached_property
    def _dual(self):
        return _ModelGenerator(self._kronecker, "dual", self._forward)


class _Kronecker:
    """The Kronecker factors of a model's generator, derived once from its inputs.

    G = I (x) J + conj(J) (x) I + sum a_mu_nu conj(V_nu) (x) V_mu with
    J = -i h_bar - M/2, M = sum a_mu_nu V_nu^dag V_mu.  ``pairs`` holds
    (a_mu_nu, conj(V_nu), V_mu) over the non-zero rates, and ``sparse``
    whether G is stored sparse: a bound on its non-zero count, read off the
    factors, falls below ``DENSE_FILL`` of its d^4 entries.  It holds no
    reference to the model, whose generators hold it.
    """

    def __init__(self, model):
        d = self.dim = model.dim
        self.pairs = [(model.rates[mu, nu], model.jump_ops[nu].conj(), model.jump_ops[mu])
                      for mu, nu in zip(*np.nonzero(model.rates))]
        j = -1j * model.h_bar
        for a, v_nu, v_mu in self.pairs:
            j = j - 0.5 * a * (v_nu.T @ v_mu)
        self.j = j
        nz = np.count_nonzero
        bound = 2 * d * nz(j) + sum(nz(v_nu) * nz(v_mu) for _, v_nu, v_mu in self.pairs)
        self.sparse = bound < DENSE_FILL * d ** 4
        self._adjacency = {}

    @cached_property
    def terms(self):
        """G's diagonal and its Kronecker terms, each held by its factors' non-zero entries.

        G = diag(diagonal) + sum scale kron(A, B), where ``diagonal`` holds
        the part J[r, r] + conj(J[c, c]) that I (x) J and conj(J) (x) I put
        at r + d c, and the terms are I (x) J and conj(J) (x) I off J's
        diagonal and the jump pairs.  Each term is (scale, A's na and B's nb
        non-zero values, rows, cols), rows and cols being the (na, nb) vec
        indices r + d c and r' + d c' of the entries scale A[c, c'] B[r, r'].  The scale multiplies last, so a
        real-rate pair conj(V) (x) V and its mirror under P hold exactly
        conjugate values.
        """
        d, j = self.dim, self.j
        k = np.arange(d)
        r, r2, vals = _entries(j)
        off = r != r2
        j_off = r[off], r2[off], vals[off]
        eye = k, k, np.ones(d)
        factors = [(1.0, eye, j_off), (1.0, (*j_off[:2], j_off[2].conj()), eye),
                   *((a, _entries(v_nu), _entries(v_mu)) for a, v_nu, v_mu in self.pairs)]
        terms = [(scale, a_vals, b_vals, r + d * c[:, None], r2 + d * c2[:, None])
                 for scale, (c, c2, a_vals), (r, r2, b_vals) in factors]
        jd = np.diag(j)
        return (jd[None, :] + jd.conj()[:, None]).ravel(), terms

    @cached_property
    def transpose(self):
        """P as an index map (``_transpose_index``)."""
        return _transpose_index(self.dim)

    def adjacency(self, dual):
        """Adjacency lists (indptr, indices) of the Kronecker terms' pattern, built once per flow.

        For the forward flow node j lists every row i of a term entry
        G[i, j], which column j feeds; the dual flow reverses those edges.
        G's diagonal adds only self-loops and is left out.
        """
        if dual not in self._adjacency:
            _, terms = self.terms
            rows = np.concatenate([term[3].ravel() for term in terms])
            cols = np.concatenate([term[4].ravel() for term in terms])
            tails, heads = (rows, cols) if dual else (cols, rows)
            indptr = np.zeros(self.dim ** 2 + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails, minlength=self.dim ** 2), out=indptr[1:])
            self._adjacency[dual] = indptr, heads[np.argsort(tails)]
        return self._adjacency[dual]


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
        self.dim = dim
        self.kind = kind  # "forward", "dual" or None
        self.real = self._checked(real)

    def _checked(self, real):
        """``real``, a real form or a block of one, once every stored entry is finite."""
        if not np.isfinite(real.data if scipy.sparse.issparse(real) else real).all():
            raise ValueError("superoperator has a non-finite entry")
        return real

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

    def _sector(self, support):
        """The entries reachable from a boolean ``support`` and the generator on them.

        Returns (index, block, ||block||_1): the closure of ``support``
        under the stored pattern of ``real`` (see ``_reachable``) and the
        principal block ``real[index, index]`` stored by fill, or
        (slice(None), ``real``, ``norm``) when that closure is everything.
        """
        index = _reachable(self.real, support)
        if index is None:
            return slice(None), self.real, self.norm
        block = _by_fill(self.real[np.ix_(index, index)])
        return index, block, _one_norm(block)


class _ModelGenerator(Superoperator):
    """The forward or dual generator of a ``LindbladModel``, held as its Kronecker factors.

    The real form is built by ``_generator``, stored by fill and frozen, on
    its first read; the dual's is the transpose of the forward one's.  A
    model that the fill bound stores sparse propagates without it: its
    sector is searched on the pattern of the Kronecker terms and only the
    block on it is assembled (``_model_sector``), unless that sector is
    the whole space.
    """

    def __init__(self, kronecker, kind, forward=None):
        self._kronecker = kronecker
        self._forward = forward  # the dual's forward generator
        self.dim = kronecker.dim
        self.kind = kind

    @cached_property
    def real(self):
        if self.kind == "dual":
            return self._checked(self._forward.real.T)
        gen = self._checked(_generator(self, None))
        _freeze(gen)
        return gen

    @property
    def is_sparse(self):
        return self._kronecker.sparse

    def _sector(self, support):
        if not self.is_sparse or support.all():
            return super()._sector(support)
        found = _model_sector(self._kronecker, support, self.kind == "dual")
        if found is None:
            return slice(None), self.real, self.norm
        index, block = found
        block = _by_fill(self._checked(block.T if self.kind == "dual" else block))
        return index, block, _one_norm(block)


def _column_sums(a):
    """Column sums of |a|, for a dense array or a scipy sparse matrix."""
    return np.asarray(abs(a).sum(axis=0)).ravel()


def _one_norm(a):
    return float(_column_sums(a).max()) if a.shape[0] else 0.0


def _freeze(a):
    for array in (a.data, a.indices, a.indptr) if scipy.sparse.issparse(a) else (a,):
        array.flags.writeable = False


def _transpose_index(d):
    """P as an index map: vec(X^T)[k] = vec(X)[P[k]], so P[r + d c] = c + d r."""
    k = np.arange(d * d)
    return k % d * d + k // d


def _real_csr(rows, cols, vals, transpose):
    """CSR L from COO triplets of G, duplicates summed in one call.

    A triplet (i, j, v) adds Re v at (i, j) and Im v at (i, transpose[j]),
    where ``transpose`` is P on the indices kept (``_transpose_index`` for
    the whole space).
    """
    n = transpose.size
    vals = np.asarray(vals, dtype=complex)
    re, im = vals.real != 0, vals.imag != 0
    real = scipy.sparse.csr_matrix(
        (np.concatenate([vals.real[re], vals.imag[im]]),
         (np.concatenate([rows[re], rows[im]]),
          np.concatenate([cols[re], transpose[cols[im]]]))),
        shape=(n, n),
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
    return qcore.vec(m.real + m.imag)


def hermitian_operator(y, dim):
    """Inverse of ``real_coordinates``: X = sym(Y) + i anti(Y), Y = unvec(y), over leading axes."""
    m = qcore.unvec(y, dim)
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

    ``model`` is a ``LindbladModel`` or one of its generators; G is summed
    from the Kronecker factors both carry as ``_kronecker``, and
    ``sparse=None`` stores it as their fill bound says.  Sparse L is summed
    from the COO triplets of G in one ``csr_matrix`` call (``_sparse_real``);
    dense L is formed from Re G and Im G, whose pair terms come from two
    real products over the jump pairs, so no complex d^4 array is formed.
    """
    d = model.dim
    kronecker = model._kronecker
    j, pairs = kronecker.j, kronecker.pairs
    if sparse is None:
        sparse = kronecker.sparse
    if sparse:
        return _sparse_real(kronecker, np.ones(d * d, dtype=bool))
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


def _entries(m):
    """Row indices, column indices and values of the non-zero entries of a matrix."""
    r, c = np.nonzero(m)
    return r, c, m[r, c]


def _sparse_real(kronecker, reached):
    """L[S, S] as CSR, S the indices where a P-closed boolean ``reached`` is True.

    Summed in one ``_real_csr`` call from the entries of G (``_Kronecker.terms``)
    whose row and column both lie in S, their values formed for those
    entries only; an all-True ``reached`` gives the whole sparse L.
    """
    d = kronecker.dim
    diagonal, terms = kronecker.terms
    index = np.flatnonzero(reached)
    position = np.zeros(d * d, dtype=np.int64)
    position[index] = np.arange(index.size)
    rows, cols, vals = [np.arange(index.size)], [np.arange(index.size)], [diagonal[index]]
    for scale, a_vals, b_vals, term_rows, term_cols in terms:
        ca, rb = np.nonzero(reached[term_rows] & reached[term_cols])
        rows.append(position[term_rows[ca, rb]])
        cols.append(position[term_cols[ca, rb]])
        vals.append(scale * (a_vals[ca] * b_vals[rb]))
    return _real_csr(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                     position[kronecker.transpose[index]])


def liouvillian(model):
    """Forward generator of d(rho)/dt; annihilates the trace functional.

    Every call returns the model's one Superoperator, whose read-only
    real form is built and stored by ``DENSE_FILL`` on its first read."""
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


def _reached(indptr, indices, support):
    """Boolean closure of ``support`` along adjacency lists: node k feeds indices[indptr[k]:indptr[k + 1]].

    One breadth-first search, from a virtual node joined to every index of
    the support; duplicate edges and self-loops are harmless.
    """
    n = support.size
    sources = np.flatnonzero(support)
    graph = scipy.sparse.csr_matrix(
        (np.ones(indices.size + sources.size), np.concatenate([indices, sources]),
         np.append(indptr, indptr[-1] + sources.size)), shape=(n + 1, n + 1))
    reached = support.copy()
    reached[breadth_first_order(graph, n, return_predecessors=False)[1:]] = True
    return reached


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
        csc = a.tocsc()
        reached = _reached(csc.indptr, csc.indices, reached)
    else:
        frontier = np.flatnonzero(reached)
        while frontier.size:
            new = (a[:, frontier] != 0).any(axis=1) & ~reached
            reached |= new
            frontier = np.flatnonzero(new)
    return None if reached.all() else np.flatnonzero(reached)


def _model_sector(kronecker, support, dual):
    """The sector of a model's generator reachable from ``support``, and the block on it.

    The search runs on the pattern of G's Kronecker terms (``_Kronecker.terms``),
    not on a built real form: column j of G feeds row i for every term
    entry G[i, j] (G's diagonal adds only self-loops), and the dual flow
    reverses those edges.  L = Re G + Im(G P) also feeds row i from column
    P j; the pattern of G is mapped onto itself by P (conj(G) = P G P, and
    the rate matrix is Hermitian), so a start closed under P, support | P
    support, has a closure S under G's pattern that is closed under P and
    invariant under L and under L.T.  Returns None when S is the whole
    space, else S and the forward block L[S, S] (``_sparse_real``).
    """
    reached = _reached(*kronecker.adjacency(dual), support | support[kronecker.transpose])
    if reached.all():
        return None
    return np.flatnonzero(reached), _sparse_real(kronecker, reached)


def _shifted_one_norm(a):
    """||a - mu I||_1 with mu = tr(a) / n, the norm scipy's expm_multiply gates on.

    The column sums of |a| with |a_jj - mu| in place of |a_jj|, so no
    shifted copy of ``a`` is formed.
    """
    if not a.shape[0]:
        return 0.0
    diagonal = a.diagonal()
    shift = diagonal.sum() / a.shape[0]
    return float((_column_sums(a) - np.abs(diagonal) + np.abs(diagonal - shift)).max())


class _TaylorAction:
    """exp(t a) v for a real block ``a``, by the truncated Taylor series, set up once.

    This is Algorithm 3.2 of Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488 (2011), split into what depends on the block and what depends on
    the step.  Set up once per block, each on first use: the trace shift
    mu = tr(a) / n, the exact 1-norm of a - mu I (``_shifted_one_norm``;
    the shifted block is never formed, each product is a v - mu v) and,
    for the first step past condition (3.13), the estimates d_p = ||(a - mu I)^p||_1^(1/p) for
    p = 2..9, which do not depend on the step since d_p(t A) = t d_p(A).
    They come from ``onenormest`` with t = 1, which draws nothing from
    numpy's global random state, so the series does not depend on it.
    ``plan`` picks each step's degree m and sub-step count s from the theta
    table, and ``step`` runs at most s m products.  The block enters only
    through ``a @ v``, ``a.T @ v``, its diagonal and its column sums.
    """

    def __init__(self, a):
        self.a = a
        self.mu = float(a.diagonal().sum()) / a.shape[0] if a.shape[0] else 0.0

    @cached_property
    def norm(self):
        return _shifted_one_norm(self.a)

    @cached_property
    def alphas(self):
        """alpha_p = max(d_p, d_{p+1}) for p = 2..8."""
        a, mu = self.a, self.mu
        shifted = scipy.sparse.linalg.LinearOperator(
            a.shape, matvec=lambda x: a @ x - mu * x, rmatvec=lambda x: a.T @ x - mu * x,
            dtype=float)
        d = np.array([scipy.sparse.linalg.onenormest(shifted ** p, t=1) ** (1.0 / p)
                      for p in range(2, 10)])
        return np.maximum(d[:-1], d[1:])

    def plan(self, steps):
        """Degree m and sub-step count s of every step of ``steps``, as two integer arrays.

        Up to condition (3.13) each step minimises m s over the table with
        s = ceil(||(a - mu I) dt||_1 / theta_m); past it over the pairs (p, m)
        of (3.11), with s = ceil(alpha_p dt / theta_m), at least 1.  Ties go
        to the first in table order.  A zero step or block gets m = 0, s = 1.
        """
        x = self.norm * steps
        scalings = np.ceil(x[:, None] / _TAYLOR_THETA)
        k = np.argmin(_TAYLOR_DEGREES * scalings, axis=1)
        degrees, scalings = _TAYLOR_DEGREES[k], scalings[np.arange(k.size), k]
        far = x > EXPM_NORM_SWITCH
        if far.any():
            power = np.ceil(steps[far, None] * self.alphas[_POWER_P] / _TAYLOR_THETA[_POWER_K])
            j = np.argmin(_TAYLOR_DEGREES[_POWER_K] * power, axis=1)
            degrees[far] = _TAYLOR_DEGREES[_POWER_K[j]]
            scalings[far] = np.maximum(power[np.arange(j.size), j], 1.0)
        degrees[x == 0.0], scalings[x == 0.0] = 0, 1.0
        return degrees, scalings.astype(int)

    def step(self, v, t, m, s):
        """exp(t a) v by s sub-steps of at most m Taylor terms (``plan``'s m and s for t).

        A sub-step stops adding terms once its last two fall below unit
        roundoff of the partial sum, in the infinity norm.  That norm is
        read only once the two terms fall below unit roundoff of its upper
        bound, the sum of the terms' norms.
        """
        a, mu = self.a, self.mu
        if not m:
            return math.exp(t * mu) * v
        eta = math.exp(t * mu / s)
        for _ in range(s):
            f = v.copy()
            c1 = bound = np.abs(v).max()
            for j in range(1, m + 1):
                w = a @ v
                w -= mu * v
                w *= t / (s * j)
                v = w
                c2 = np.abs(v).max()
                f += v
                bound += c2
                if c1 + c2 <= 2.0 ** -53 * bound and c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                    break
                c1 = c2
            f *= eta
            v = f
        return v


def _expm_pays(a, norm, action, moving, distinct):
    """Whether one dense expm per distinct step beats the Taylor action on every step.

    ``a`` is a real generator block stepping one coordinate column,
    ``action`` its ``_TaylorAction``, ``moving`` holds every positive step
    and ``distinct`` one step per exponential the expm route would build.
    Costs are in nanoseconds, fitted on one core for float64 matrices.  A
    dense expm costs 1.9e4 + 25 n^2 + 0.34 n^3, plus 0.06 n^3 for each of
    its ceil(log2(|a dt|_1 / 5.37)) squarings; densifying a sparse ``a``
    costs 0.45 n^2 and one product with the exponential 1.2e3 + 0.25 n^2.
    The action costs its worst-case product count, the sum of m s over the
    steps (``_TaylorAction.plan``), times 2.3e3 + 0.06 n^2 per product plus
    5.6e4 per step when dense, and 4.2e3 + 4.0 nnz per product plus 1.2e5 per
    step when sparse (fitted to ``propagate_series`` on dense blocks with
    n = 9..400 and sparse oscillator blocks with 184..2576 stored entries,
    within 0.5-1.5x; past n ~ 400 a dense product leaves the cache and costs
    about 0.33 n^2, where the action wins by far).  Past (3.13) the
    power-norm estimates come first, about 2e6 plus 220 products; when expm
    costs less than those alone, it is taken before they run.
    """
    n = a.shape[0]
    sparse = scipy.sparse.issparse(a)
    squarings = np.maximum(np.ceil(np.log2(np.maximum(norm * distinct, 1e-300) / 5.37)), 0.0)
    expm_cost = (np.sum(1.9e4 + 25.0 * n ** 2 + (0.34 + 0.06 * squarings) * n ** 3)
                 + moving.size * (1.2e3 + 0.25 * n ** 2) + sparse * 0.45 * n ** 2)
    per_step, per_product, per_entry = _ACTION_COSTS[sparse]
    product = per_product + per_entry * (a.nnz if sparse else n ** 2)
    action_cost = moving.size * per_step
    if expm_cost <= action_cost:
        return True  # without reading the action's norm or plan
    if action.norm * moving.max(initial=0.0) > EXPM_NORM_SWITCH:
        # the power-norm estimates come first, and cost about that on their own
        action_cost += 2.0e6 + 220 * product
        if expm_cost <= action_cost:
            return True
    degrees, scalings = action.plan(moving)
    return expm_cost <= action_cost + product * np.dot(degrees, scalings)


def _step_exponentials(a, norm, steps):
    """exp(a dt) for every dt of ``steps``, in step order, for a dense real ``a``.

    ``norm`` is ||a||_1 and every step is positive.  Five or more steps of
    a block of at most 16 rows take one numpy pass over the stack, by
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)): each step's Pade degree 3, 5, 7, 9 or 13 and, at degree 13,
    its squarings s are read off log2(||a||_1 dt) against
    ``_PADE_LOG2_THETA``.  The powers of a, scaled by a power of two to a
    1-norm in [1/2, 1) so that none overflows, are formed once; U and V of
    every step are one product of its coefficients with them, one batched
    solve gives r = I + 2 (V - U)^-1 U, which is (V - U)^-1 (V + U) with
    less roundoff, and each r is squared s times.  Fewer steps or a larger
    block take one ``scipy.linalg.expm`` per step, so a single step (a
    uniform grid) keeps scipy's bits.  Measured on one core, minimum of
    9 runs, random n x n blocks of 1-norm 4, K steps log-spaced over
    [0.04, 2], scipy per step against the pass: n = 4, K = 120: 1.49
    against 0.15 ms; n = 16, K = 60: 1.27 against 0.47 ms; K = 4 about
    even and K = 5 1.2x at n = 4 and 16; K = 1 29 us more.  Past n = 16
    the batched solve dominates: n = 25 and 36 at K = 60 read 0.7-1.8x
    over four sets, no steady gain.
    """
    n = a.shape[0]
    if steps.size < 5 or n > 16:
        return [scipy.linalg.expm(a * dt) for dt in steps]
    # log2(x) as a sum, so that no product overflows; a zero block reads -inf
    exponent = (math.log2(norm) if norm > 0.0 else -math.inf) + np.log2(steps)
    degree = np.minimum(np.searchsorted(_PADE_LOG2_THETA, exponent), _PADE_DEGREES.size - 1)
    squarings = np.maximum(np.ceil(exponent - _PADE_LOG2_THETA[-1]), 0.0).astype(int)
    top = _PADE_DEGREES[degree.max()]
    e = math.frexp(norm)[1]
    # powers[k + 1 : 2k + 1] = powers[1 : k + 1] @ powers[k], so 13 powers take four products
    powers = np.empty((top + 1, n, n))
    powers[0] = np.eye(n)
    powers[1] = np.ldexp(a, -e)
    k = 1
    while k < top:
        m = min(k, top - k)
        powers[k + 1:k + m + 1] = powers[1:m + 1] @ powers[k]
        k += m
    powers = powers.reshape(top + 1, n * n)
    # step k's scaled matrix a dt_k / 2^s_k is this multiple of powers[1] = a / 2^e
    scale = np.ldexp(steps, e - squarings)
    coefficients = _PADE[degree, :top + 1] * scale[:, None] ** np.arange(top + 1)
    u = (coefficients[:, 1::2] @ powers[1::2]).reshape(-1, n, n)
    v = (coefficients[:, 0::2] @ powers[0::2]).reshape(-1, n, n)
    r = np.linalg.solve(v - u, 2.0 * u)
    np.einsum("kii->ki", r)[...] += 1.0
    for i in range(squarings.max()):
        late = squarings > i
        square = r[late]
        r[late] = square @ square
    return r


def propagate_series(g, x0, times):
    """exp(t G) applied to an operator at every time of an ascending grid.

    The operator is stepped from 0 to ``times[0]`` and then from one grid
    time to the next; steps that agree to 1e-12 of the longest share one
    exponential, and the exponentials of all distinct steps are built
    together (see ``_step_exponentials``).  A finite, Hermitian ``x0``
    (else ValueError, see ``_column``) is stepped as its one real
    coordinate column, by the block of the real generator on the entries
    reachable from it; the others stay exactly 0.  A model stored sparse
    finds those entries on the pattern of its Kronecker terms and
    assembles only their block (``_model_sector``), without building its
    real form; any other generator searches its real form (``_reachable``)
    and slices the block out.  The core below takes that block, its
    1-norm and the entries' index from ``Superoperator._sector``, and
    steps it either by reused exponentials or by the block's
    ``_TaylorAction``, set up once for the whole grid, whichever
    ``_expm_pays`` prices lower.
    ``times`` must be finite, non-negative and ascending.  Returns an array
    of shape (len(times), d, d).  Forward generators must preserve the
    trace of ``x0`` to 1e-10 (relative to max(1, |Tr x0|)) at every time;
    a violation, NaN included, signals a broken generator.
    """
    y0 = _column(x0, g.dim)
    times = qcore.time_grid(times)
    steps = np.diff(times, prepend=0.0)
    longest = steps.max(initial=0.0)
    keys = np.round(steps / longest, 12) if longest > 0.0 else steps
    index, a, norm = g._sector(y0.any(axis=1))
    v = y0[index]
    moving = steps > 0.0
    distinct, first = np.unique(keys[moving], return_index=True)
    action = _TaylorAction(a)
    if _expm_pays(a, norm, action, steps[moving], steps[moving][first]):
        dense = a.toarray() if scipy.sparse.issparse(a) else a
        exponentials = dict(zip(distinct, _step_exponentials(dense, norm, steps[moving][first])))
        plan = None
    else:
        plan = zip(*action.plan(steps[moving]))  # (m, s) of each positive step, in order
    ys = np.zeros((times.size, y0.shape[0]))
    for k, (dt, key) in enumerate(zip(steps, keys)):
        if dt > 0.0:
            v = exponentials[key] @ v if plan is None else action.step(v, dt, *next(plan))
        ys[k, index] = v[:, 0]
    out = hermitian_operator(ys, g.dim)
    if g.kind == "forward" and out.size:
        trace0 = np.trace(qcore.unvec(y0[:, 0], g.dim))  # the trace functional keeps its vec form
        drift = np.abs(np.trace(out, axis1=1, axis2=2) - trace0).max()
        if not drift <= 1e-10 * max(1.0, abs(trace0)):
            raise RuntimeError(f"forward propagation changed the trace by {drift:.3e}")
    return out


def propagate(g, x0, t):
    """exp(t G) applied to an operator: the one-point ``propagate_series``."""
    return propagate_series(g, x0, [t])[0]


def reduced_series(model, aux, x0, times):
    """Tr_A e^{tL}[aux (x) x0] at every time of an ascending grid, for a model on A (x) S.

    ``model`` is a ``LindbladModel`` on the product of an auxiliary A, the
    first factor, and the system S; ``aux`` is the auxiliary's start
    operator and ``x0`` a system operator, and their product must be
    Hermitian.  One ``propagate_series`` steps the product, on the block
    reachable from it, and ``qcore.partial_trace`` traces A out of every
    time at once.  Returns an array of shape (len(times), d_S, d_S).
    """
    aux, x0 = as_operator(aux, "auxiliary operator"), as_operator(x0, "system operator")
    joint = propagate_series(liouvillian(model), qcore.tensor_product(aux, x0), times)
    return qcore.partial_trace(joint, (aux.shape[0], x0.shape[0]), keep=1)


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

    Returns (solve, margin), the margin being 1/(||A||_1 ||A^-1||_1) with
    ||A^-1||_1 estimated on the LU by the t = 1 Hager-Higham estimator:
    LAPACK's ``gecon`` on a dense A, ``onenormest(t=1)`` on a sparse one
    (deterministic, and off numpy's global random state).  Raises
    DegenerateSteadyStateError when A is exactly singular.  Row 0 is the
    (0, 0) population equation, which trace preservation makes minus the
    sum of the other population rows.  The trace functional keeps its vec
    form in real coordinates.
    """
    n = g.dim ** 2
    trace_row = scale * qcore.vec(np.eye(g.dim))
    if g.is_sparse:
        a = scipy.sparse.vstack([scipy.sparse.csr_matrix(trace_row), g.real[1:]], format="csc")
        try:
            lu = scipy.sparse.linalg.splu(a)
        except RuntimeError as exc:
            raise DegenerateSteadyStateError(f"bordered generator is singular: {exc}") from None
        def transpose_solve(b):
            return lu.solve(b, trans="T")

        inverse = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lu.solve, rmatvec=transpose_solve, matmat=lu.solve,
            rmatmat=transpose_solve, dtype=float,
        )
        return lu.solve, 1.0 / (_one_norm(a) * scipy.sparse.linalg.onenormest(inverse, t=1))
    # one Fortran-ordered copy, which getrf factors in place
    a = np.array(g.real, dtype=float, order="F")
    a[0] = trace_row
    a_norm = _one_norm(a)
    getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (a,))
    lu, piv, info = getrf(a, overwrite_a=True)
    if info > 0:
        raise DegenerateSteadyStateError(
            f"bordered generator is singular: pivot {info} is exactly zero"
        )
    margin, _ = gecon(lu, a_norm, norm="1")
    return lambda b: scipy.linalg.lu_solve((lu, piv), b), margin


def stationary_state(g):
    """Unique unit-trace null vector of a forward generator.

    Solves L y = 0 in real coordinates with one row replaced by the trace
    functional (see ``_bordered_lu``).  Raises DegenerateSteadyStateError
    when that bordered matrix A is singular or its uniqueness margin
    1/(||A||_1 ||A^-1||_1), with ||A^-1||_1 estimated on the LU (one
    LAPACK ``gecon`` call when A is dense), falls below
    ``STATIONARY_MARGIN``, since the degree of quantumness is only defined
    for dynamics whose stationary state is independent of the initial
    condition.  The residual max|L[rho]| must stay below ``1e-9 * ||L||_1``.
    """
    scale = g.norm or 1.0
    solve, margin = _bordered_lu(g, scale)
    if not margin >= STATIONARY_MARGIN:
        raise DegenerateSteadyStateError(
            f"stationary state is not unique: margin {margin:.3e} below {STATIONARY_MARGIN:.0e}"
        )
    rhs = np.zeros(g.dim ** 2)
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
