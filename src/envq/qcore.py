"""Dense complex linear algebra and quantum-information primitives.

Conventions fixed here for the whole package:

* operators are dense ``numpy`` complex arrays in row-major semantic order;
* vectorization stacks columns (Fortran order), so that
  ``vec(A X B) = kron(B.T, A) @ vec(X)``;
* validity checks use tolerance ``1e-10``, reconstruction checks
  ``1e-9`` and the ``[0, dim]`` bound on computed Q values ``1e-8``;
* a Hermitian eigensystem is the pair ``(w, v)`` of ``np.linalg.eigh``,
  eigenvalues ascending, checked by reconstruction;
* each raw input is checked where it enters, by one gate per kind:
  ``as_operator`` (square, at least 1 x 1, finite), ``require_hermitian``
  (Hermitian relative to its largest entry), ``QuantumState`` and
  ``time_grid``.  A checked Hermitian operator is handed on as its exact
  Hermitian part (m + m^dag)/2, which is m bit for bit when m is exactly
  Hermitian, so a value already checked passes a gate again unchanged
  (``dynamics._column`` re-gates what it steps).
"""

import numpy as np
import scipy.linalg

# centralized tolerances
VALID_TOL = 1e-10   # hermiticity / trace / positivity of states
RECON_TOL = 1e-9    # eigendecomposition reconstruction residual
BOUND_TOL = 1e-8    # slack of the [0, dim] bound on computed Q values
VOLTERRA_BLOCK = 64  # blocked_volterra: steps per block times components, the in-block width


class BoundViolationError(RuntimeError):
    """A computed quantumness value left its dimensional bounds."""


class DegenerateSteadyStateError(RuntimeError):
    """The generator has no unique stationary state."""


# ---------------------------------------------------------------------------
# elementary operators

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# basis order (|+>, |->) with sigma_z|+> = +|+>; sigma_minus lowers
sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
sigma_plus = sigma_minus.conj().T


def identity(dim):
    return np.eye(dim, dtype=complex)


def ket(dim, index):
    """Computational-basis column vector |index> of length dim."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def destroy(dim):
    """Truncated bosonic annihilation operator on a dim-level ladder."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def number_operator(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def bloch_vector_state(theta, phi):
    """Pure qubit state cos(theta/2)|+> + e^{i phi} sin(theta/2)|->."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


# ---------------------------------------------------------------------------
# shape and validity helpers

def as_operator(m, name="operator"):
    """Coerce to a complex ndarray, raising ValueError unless it is square,
    at least 1 x 1 and finite; the message names the first NaN or infinite entry."""
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} must be a square matrix of at least 1 x 1, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{name} has a non-finite entry {a[index]} at {index}")
    return a


def require_finite_parameters(obj, *names):
    """Raise ValueError when a named attribute of ``obj`` is NaN or infinite; None is skipped."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{type(obj).__name__} {name} must be finite, got {value}")


def require_q_bounds(values, dim):
    """Raise BoundViolationError when a Q value leaves [0, dim] by more than BOUND_TOL or is NaN."""
    values = np.asarray(values, dtype=float)
    if values.size and not (values.min() >= -BOUND_TOL and values.max() <= dim + BOUND_TOL):
        raise BoundViolationError(
            f"Q leaves [0, {dim}]: min {values.min():.3e}, max {values.max():.6e}"
        )


def require_channel(kraus, dim, tol, name="Kraus family"):
    """Raise ValueError unless sum T^dag T equals the dim x dim identity to ``tol``.

    The deviation is the largest entry of |sum T^dag T - I|; the message carries it.
    """
    dev = np.abs(sum(t.conj().T @ t for t in kraus) - np.eye(dim)).max()
    if not dev <= tol:
        raise ValueError(f"{name} is not a channel: sum T^dag T deviates from I by {dev:.3e}")


def time_grid(times):
    """Validated 1d grid of finite, non-negative, ascending times."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1d sequence, got shape {times.shape}")
    bad = ~np.isfinite(times) | (times < 0.0)
    if bad.any():
        raise ValueError(f"times must be finite and non-negative, got {times[bad][0]}")
    back = np.flatnonzero(np.diff(times) < 0.0)
    if back.size:
        k = back[0]
        raise ValueError(f"times must be ascending: {times[k + 1]} follows {times[k]}")
    return times


def require_hermitian(m, tol=VALID_TOL, name="operator"):
    """The Hermitian part (m + m^dag)/2 of an operator (see ``as_operator``),
    gated at max|m - m^dag| <= tol * max(1, max|m|)."""
    m = as_operator(m, name)
    dev = np.abs(m - m.conj().T).max()
    gate = tol * max(1.0, np.abs(m).max())
    if dev > gate:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e} > {gate:.3e})")
    return 0.5 * (m + m.conj().T)


def vec(m):
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, dim=None):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if dim is None:
        dim = round(np.sqrt(v.size))
    return v.reshape(dim, dim, order="F")


def trace_distance(a, b):
    """Half trace norm of a - b, each gated by ``require_hermitian``."""
    delta = require_hermitian(a, name="a") - require_hermitian(b, name="b")
    return 0.5 * np.abs(np.linalg.eigvalsh(delta)).sum()


# ---------------------------------------------------------------------------
# core operations

def tensor_product(a, b):
    """Kronecker product a (x) b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims, keep):
    """Reduced matrix of factor ``keep`` (0 or 1) of a two-factor space.

    ``dims`` holds the two factor dimensions, whose product must equal
    the matrix dimension; the other factor is traced out, so the total
    trace is preserved.
    """
    m = as_operator(m, "partial_trace input")
    d0, d1 = (int(d) for d in dims)
    if d0 * d1 != m.shape[0]:
        raise ValueError(f"product of dims {[d0, d1]} does not match matrix dimension {m.shape[0]}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    return np.einsum("ijkj->ik" if keep == 0 else "ijil->jl", m.reshape(d0, d1, d0, d1))


def matrix_exponential(m):
    """Matrix exponential ``exp(m)``.

    A Hermitian or anti-Hermitian input takes a spectral route; any other
    falls back to scaling-and-squaring with the order-13 rational
    approximant (``scipy.linalg.expm``).
    """
    m = as_operator(m, "matrix_exponential input")
    scale = max(np.abs(m).max(), 1.0)
    herm = np.abs(m - m.conj().T).max() <= 1e-13 * scale
    anti = np.abs(m + m.conj().T).max() <= 1e-13 * scale
    if herm or anti:
        h = m if herm else -1j * m
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        phase = np.exp(w) if herm else np.exp(1j * w)
        return (v * phase) @ v.conj().T
    return scipy.linalg.expm(m)


def hermitian_eigensystem(h):
    """(w, v) of a matrix Hermitian to 1e-8, as ``np.linalg.eigh`` returns them,
    gated on the reconstruction residual."""
    h = require_hermitian(h, tol=1e-8, name="eigensystem input")
    w, v = np.linalg.eigh(h)
    resid = np.abs((v * w) @ v.conj().T - h).max()
    if not resid <= RECON_TOL * max(1.0, np.abs(w).max()):
        raise RuntimeError(f"eigendecomposition residual {resid:.3e} too large")
    return w, v


def concurrence(rho):
    """Wootters concurrence of a two-qubit state, in [0, 1].

    C(rho) = max(0, mu1 - mu2 - mu3 - mu4) where the mu_i are the
    square roots, in decreasing order, of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  Pure states take
    the equivalent spin-flip overlap |psi^T (sigma_y x sigma_y) psi|,
    which avoids square roots of the numerically-zero eigenvalues.  rho is
    gated as a state (``state_matrix``).
    """
    m = state_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 two-qubit state, got {m.shape}")
    yy = tensor_product(sigma_y, sigma_y)
    w, v = np.linalg.eigh(m)
    if abs(np.trace(m @ m).real - 1.0) < 1e-12:  # pure
        return float(abs(v[:, -1] @ yy @ v[:, -1]))
    sqrt_m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    r = sqrt_m @ (yy @ m.conj() @ yy) @ sqrt_m
    evals = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
    mu = np.sqrt(np.clip(np.sort(evals)[::-1], 0.0, None))
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def blocked_volterra(r, c, a):
    """x_k = r_k + a sum_{j=1}^{k-1} c_{k-j} * x_j for k >= 1, with x_0 = r_0.

    The product-trapezoid Volterra solve of the package: the renewal
    chain of envq.stochastic and the memory-kernel amplitude of
    envq.models both reduce to it.  ``r`` and ``c`` are (m, n + 1)
    arrays of m components over the grid nodes 0..n, ``*`` multiplies
    componentwise and ``a`` is (m, m).  The nodes 1..n are solved in
    blocks of B = VOLTERRA_BLOCK // m steps (at least one).  The history
    from earlier blocks is one ``np.convolve`` per component.  Inside a
    block the unknowns solve a unit lower-triangular system whose
    inverse, a (B m)^2 matrix, is the same for every block because the
    kernel depends only on k - j.  The last block is padded with nodes
    past n, which no node up to n reads.
    """
    m, n1 = r.shape
    nb = max(1, min(VOLTERRA_BLOCK // m, n1 - 1))
    blocks = -(-(n1 - 1) // nb)
    pad = 1 + blocks * nb - n1
    r, c = (np.concatenate([y, np.zeros((m, pad), y.dtype)], axis=1) for y in (r, c))
    width = nb * m
    lag = np.subtract.outer(np.arange(nb), np.arange(nb))
    # step-major (row p * m + i) the block system is I - a diag(c_{p-q}) at p > q
    coef = np.where(lag > 0, c[:, np.maximum(lag, 0)], 0.0)
    unit = np.eye(width) - np.einsum("ij,jpq->piqj", a, coef).reshape(width, width)
    trtri = scipy.linalg.lapack.get_lapack_funcs("trtri", (unit,))
    op, info = trtri(unit, lower=1, unitdiag=1)
    if info:
        raise RuntimeError(f"in-block Volterra operator: trtri returned info {info}")
    # component-major (row i * nb + p) from here on, to match the rows of x
    op = op.reshape(nb, m, nb, m).transpose(1, 0, 3, 2).reshape(width, width)
    op_a = np.einsum("xiq,ij->xjq", op.reshape(width, m, nb), a).reshape(width, width)
    x = np.empty_like(r, dtype=np.result_type(r, c, a))
    x[:, 0] = r[:, 0]
    # the r part of every block at once; the history adds op_a applied to its sums
    x[:, 1:] = (r[:, 1:].reshape(m, blocks, nb).transpose(1, 0, 2).reshape(blocks, width)
                @ op.T).reshape(blocks, m, nb).transpose(1, 0, 2).reshape(m, -1)
    for k0 in range(1 + nb, n1, nb):
        hist = np.array([np.convolve(x[i, 1:k0], c[i, 1:k0 + nb - 1], "valid")
                         for i in range(m)])
        x[:, k0:k0 + nb] += (op_a @ hist.ravel()).reshape(m, nb)
    return x[:, :n1]


# ---------------------------------------------------------------------------
# states

class QuantumState:
    """Density matrix with validity checks.

    Hermiticity is gated by ``require_hermitian`` at ``tol`` (a state's
    entries are at most 1, so the gate is ``tol``), the trace must be 1 to
    ``tol`` and the minimum eigenvalue must not fall below ``-tol``.  The
    stored ``matrix`` is the exact Hermitian part of the input.
    """

    def __init__(self, matrix, tol=VALID_TOL):
        m = require_hermitian(matrix, tol, "state")
        tr = np.trace(m)
        if abs(tr - 1.0) > tol:
            raise ValueError(f"state trace {tr} is not 1")
        min_eig = np.linalg.eigvalsh(m).min()
        if min_eig < -tol:
            raise ValueError(f"state not positive semidefinite (min eigenvalue {min_eig:.3e})")
        self.matrix = m

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.matrix
        return self.matrix.astype(dtype)

    def __repr__(self):
        return f"QuantumState(dim={self.dim})"


def state_matrix(state, dim=None):
    """Matrix of a QuantumState, or a validated plain density matrix, of dimension ``dim``."""
    m = state.matrix if isinstance(state, QuantumState) else QuantumState(state).matrix
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"rho0 dimension {m.shape[0]} != model dimension {dim}")
    return m


def random_state(dim, rng):
    """Haar-ish random density matrix (Wishart construction)."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return QuantumState(rho / np.trace(rho).real)


def random_pure_state(dim, rng):
    return QuantumState.pure(rng.normal(size=dim) + 1j * rng.normal(size=dim))


# ---------------------------------------------------------------------------
# shared matrix text format: "rows cols" then whitespace-separated
# "re+imi" entries in row-major order

def format_complex(z, digits=17):
    z = complex(z)
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def parse_complex(token):
    """Parse one "re+imi" token; plain reals and pure imaginaries allowed.

    The token is Python's complex() syntax with its trailing ``j`` written
    ``i``; a ``j``, ``J`` or parenthesis of complex()'s own is rejected.
    """
    s = token.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex token")
    if any(c in s for c in "jJ()"):
        raise ValueError(f"malformed complex token {token!r}")
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def format_matrix_text(m, digits=17):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    entries = " ".join(format_complex(z, digits) for z in m.reshape(-1))
    return f"{rows} {cols} {entries}"


def parse_matrix_text(text):
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs 'rows cols' followed by entries")
    rows, cols = int(tokens[0]), int(tokens[1])
    entries = tokens[2:]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    data = [parse_complex(tok) for tok in entries]
    return np.array(data, dtype=complex).reshape(rows, cols)
