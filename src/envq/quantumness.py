"""Quantumness measures for Markovian generators.

Q_t is defined through the dual (Heisenberg-picture) flow started from
the initial state,

    Q_t = Tr[A_t],   dA/dt = L*[A],   A_0 = rho_0,

the convention validated against the closed forms of the worked models.
It is computed through the trace pairing Q_t = Tr[rho_0 X_t] with
X_t = e^{tL}[I]: one forward propagation of the identity serves every
initial state (``q_functional_series``), and ``q_series`` pairs it with
one.  Its stationary limit is therefore dim * Tr[rho_inf rho_0].

Every degree report, numeric or closed-form, is a QuantumnessReport.
Time reversal enters only through its optimal state: the degree of
quantumness is the same for the stationary state and its conjugate
(their spectra agree), but the eigenvector that the report carries
belongs to the conjugated stationary state, and the propagated series
attains q_infinity = 1 + D_Q when started from the conjugate of that
state, ``QuantumnessReport.propagation_state()``.
"""

import numpy as np

from . import dynamics, qcore
from .qcore import QuantumState, as_operator, state_matrix


class QuantumnessSeries:
    """Sampled (t, Q_t) pairs with the dimensional bound attached.

    ``times`` must pass ``qcore.time_grid`` (finite, non-negative, ascending)."""

    def __init__(self, times, values, dim_s):
        times = qcore.time_grid(times)
        values = np.asarray(values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must be 1d arrays of equal length")
        if times.size and times[0] == 0.0 and not abs(values[0] - 1.0) <= 1e-9:
            raise ValueError(f"Q at t=0 is {values[0]}, expected 1")
        qcore.require_q_bounds(values, dim_s)
        self.times = times
        self.values = values
        self.dim_s = int(dim_s)

    def __len__(self):
        return self.times.size


def csv_text(header, *columns):
    """The header line, then one row per index of the columns, at 12 digits."""
    lines = [header]
    # Python floats (tolist) format faster than numpy scalars, to the same text
    for row in zip(*(np.asarray(column, dtype=float).tolist() for column in columns)):
        lines.append(",".join([f"{v:.12g}" for v in row]))
    return "\n".join(lines) + "\n"


class QuantumnessReport:
    """Degree of quantumness, optimal initial state and stationary data."""

    def __init__(self, dq, optimal_state, q_infinity, stationary):
        dim = stationary.dim
        if not -1e-12 <= dq <= dim - 1 + 1e-8:
            raise ValueError(f"dq={dq} outside [0, {dim - 1}]")
        evals = np.linalg.eigvalsh(optimal_state.matrix)
        if not evals[:-1].max(initial=0.0) <= 1e-10:
            raise ValueError("optimal state is not rank one")
        self.dq = float(dq)
        self.optimal_state = optimal_state
        self.q_infinity = float(q_infinity)
        self.stationary = stationary

    def propagation_state(self):
        """The conjugate of the optimal state: it undoes the time reversal."""
        return dynamics.time_reversed_state(self.optimal_state)


def q_functional_series(model, times):
    """Operators X_t = e^{tL}[I] such that Q_t(rho_0) = Tr[rho_0 X_t].

    One propagation serves every initial state: ``q_series`` pairs it
    with one, a batch of states with several.
    """
    g = dynamics.liouvillian(model)
    eye = np.eye(model.dim, dtype=complex)
    return dynamics.propagate_series(g, eye, times)


def q_series(model, rho0, times):
    """Quantumness series of a Lindblad model for one initial state.

    Pairs rho_0 with the operators of ``q_functional_series``; values
    outside [0, dim] beyond ``qcore.BOUND_TOL`` abort.
    """
    rho0 = state_matrix(rho0, model.dim)
    values = np.einsum("ij,tji->t", rho0, q_functional_series(model, times)).real
    return QuantumnessSeries(times, values, model.dim)


def q_stationary(model, rho0):
    """Stationary value of the propagated series, dim * Tr[rho_inf rho_0].

    This is the t -> infinity limit of ``q_series`` whenever the
    stationary state is unique, and reproduces the closed stationary
    forms of the worked models.
    """
    rho_inf = dynamics.stationary_state(dynamics.liouvillian(model))
    rho0 = state_matrix(rho0, model.dim)
    return float(model.dim * np.trace(rho_inf.matrix @ rho0).real)


def dq_geometric(stationary, rho0):
    """Departure functional |dim * Tr[stationary rho_0] - 1|.

    Pass the conjugated stationary state to evaluate the time-reversed
    functional whose maximizer is the reported optimal state; pass the
    stationary state itself for the propagated-limit departure.  Both
    share the same maximum, dim * maxeig - 1.
    """
    stat = state_matrix(stationary)
    rho0 = state_matrix(rho0)
    if stat.shape != rho0.shape:
        raise ValueError("state dimensions differ")
    dim = stat.shape[0]
    return float(abs(dim * np.trace(stat @ rho0).real - 1.0))


def degree_of_quantumness(model):
    """Maximal asymptotic departure of Q from 1 over initial states of a
    Lindblad model: ``stationary_degree`` of its stationary state."""
    return stationary_degree(dynamics.stationary_state(dynamics.liouvillian(model)))


def stationary_degree(rho_inf):
    """Degree-of-quantumness report of a unique stationary state rho_inf.

    D_Q = dim * maxeig(rho_inf) - 1 whenever that branch dominates;
    the minimum-eigenvalue branch |dim * mineig - 1| is also evaluated
    and the larger departure reported.  Ties go to the upper branch,
    and so does a lower branch ahead by at most 1e-12 * dim: a qubit's
    branches always tie in exact arithmetic (mineig + maxeig = 1), so
    their roundoff must not pick one.  The optimal state is the matching
    eigenprojector of the conjugated stationary state, and q_infinity =
    dim * (that eigenvalue).
    """
    w, v = qcore.hermitian_eigensystem(dynamics.time_reversed_state(rho_inf).matrix)
    dim = rho_inf.dim
    upper = dim * w[-1] - 1.0
    lower = abs(dim * w[0] - 1.0)
    # the departures are dimensionless and at most dim - 1
    k = -1 if upper >= lower - 1e-12 * dim else 0
    return QuantumnessReport(max(upper, lower), QuantumState.pure(v[:, k]), dim * w[k], rho_inf)


def renormalized_degree(stationary):
    """Largest eigenvalue of the (possibly truncated) stationary state.

    The infinite-dimensional replacement for the degree of quantumness:
    the maximum of Tr[conj(rho_inf) rho_0] over initial states, attained
    at the top eigenprojector.  Conjugation leaves it unchanged.
    """
    stat = state_matrix(stationary)
    return float(np.linalg.eigvalsh(stat).max())


def unitality_check(kraus):
    """Whether a Kraus family is unital: sum T T^dag = I to 1e-10.

    Returns (is_unital, residual) with residual the max-entry deviation
    of sum T T^dag from the identity.  The input must be a valid channel
    (sum T^dag T = I to 1e-8).
    """
    kraus = [as_operator(t, "Kraus operator") for t in kraus]
    if not kraus:
        raise ValueError("empty Kraus list")
    d = kraus[0].shape[0]
    qcore.require_channel(kraus, d, 1e-8)
    residual = float(np.abs(sum(t @ t.conj().T for t in kraus) - np.eye(d)).max())
    return residual <= 1e-10, residual
