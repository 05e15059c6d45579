"""Independent reference routes and the checker that compares against them.

Everything here is plain numpy/scipy written for the benchmark, so a
reference never shares code with the envq route it checks: the
stationary state comes from a direct linear solve of the column-stacked
generator, the noise averages from their closed characteristic
functions, and the collisional chains from the renewal counting law.
"""

import numpy as np
import scipy.linalg
import scipy.stats


class Checker:
    """Collects reference misses for one task.

    ``bias`` is added to every reference value; the self-test sets it to
    a deliberately wrong offset and expects every task to miss.
    """

    def __init__(self, bias=0.0):
        self.bias = bias
        self.misses = []

    def close(self, label, value, reference, tol):
        """Elementwise |value - reference| <= tol (tol may be an array)."""
        value = np.asarray(value)
        reference = np.asarray(reference) + self.bias
        err = np.abs(value - reference)
        if value.shape != reference.shape or not np.all(err <= tol):
            worst = float(np.max(err - tol)) if value.shape == reference.shape else np.nan
            self.misses.append(f"{label}: excess {worst:.3e} over tolerance")

    def states_close(self, label, states, references, tol):
        """Trace distance of each state to its reference within tol[k]."""
        d = np.asarray(references[0]).shape[0]
        shift = self.bias * np.eye(d)
        dist = np.array([trace_distance(s, r + shift) for s, r in zip(states, references)])
        if len(states) != len(references) or not np.all(dist <= tol):
            self.misses.append(f"{label}: max excess {np.max(dist - tol):.3e} over tolerance")

    def bounded(self, label, values, lo, hi, tol=1e-8):
        """Values inside [lo, hi] up to tol (not shifted by the bias)."""
        values = np.asarray(values)
        if values.min() < lo - tol or values.max() > hi + tol:
            self.misses.append(f"{label}: outside [{lo}, {hi}]")


def trace_distance(a, b):
    delta = np.asarray(a) - np.asarray(b)
    return 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (delta + delta.conj().T))).sum()


# ---------------------------------------------------------------------------
# Lindblad generators

def lindblad_matrix(h, jumps, rates):
    """Forward generator on column-stacked operators (vec(AXB) = (B^T x A) vec X)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v, r in zip(jumps, rates):
        vdv = v.conj().T @ v
        gen = gen + r * (np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vdv) + np.kron(vdv.T, eye)))
    return gen


def stationary_state(h, jumps, rates):
    """Unit-trace null vector from one dense solve with a trace row."""
    d = h.shape[0]
    gen = lindblad_matrix(h, jumps, rates)
    gen[0] = np.eye(d).reshape(-1, order="F")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(gen, rhs).reshape(d, d, order="F")
    return 0.5 * (rho + rho.conj().T)


def degree(rho_inf):
    """D_Q = dim * lambda_max(rho_inf) - 1, or the lower branch when it dominates."""
    w = np.linalg.eigvalsh(rho_inf)
    d = len(w)
    return max(d * w[-1] - 1.0, abs(d * w[0] - 1.0))


def lindblad_states(h, jumps, rates, rho0, times):
    """Forward Lindblad states by dense expm of the generator."""
    gen = lindblad_matrix(h, jumps, rates)
    d = h.shape[0]
    v0 = np.asarray(rho0).reshape(-1, order="F")
    return [(scipy.linalg.expm(gen * t) @ v0).reshape(d, d, order="F") for t in times]


# ---------------------------------------------------------------------------
# classical noise with a commuting sigma_z coupling

def dephasing_factor(family, amplitude, correlation_time, times):
    """E[exp(-2i int_0^t xi)] for the three noise families.

    White noise of intensity a^2 gives exp(-2 a^2 t); stationary
    Ornstein-Uhlenbeck noise gives exp(-2 Var Phi) with Var Phi =
    2 a^2 tau^2 (t/tau - 1 + e^{-t/tau}); a symmetric telegraph of
    amplitude a flipping at rate 1/(2 tau) gives the damped
    cosh/sinh law.
    """
    t = np.asarray(times, dtype=float)
    a = amplitude
    if family == "gaussian-white":
        return np.exp(-2.0 * a * a * t)
    tau = correlation_time
    if family == "ornstein-uhlenbeck":
        var = 2.0 * a * a * tau * tau * (t / tau - 1.0 + np.exp(-t / tau))
        return np.exp(-2.0 * var)
    lam = 0.5 / tau
    mu = np.sqrt(complex(lam * lam - 4.0 * a * a))
    return (np.exp(-lam * t) * (np.cosh(mu * t) + lam / mu * np.sinh(mu * t))).real


def dephased_states(rho0, omega, factor, times):
    """rho_01 -> rho_01 e^{-i omega t} factor(t) under h0 = omega/2 sigma_z."""
    out = []
    for t, f in zip(times, factor):
        r = np.array(rho0, dtype=complex)
        r[0, 1] *= np.exp(-1j * omega * t) * f
        r[1, 0] = np.conj(r[0, 1])
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# renewal counting law

def renewal_moment(waiting, s, times):
    """E[s^{N_t}] for the renewal count N_t of a WaitingTime."""
    t = np.asarray(times, dtype=float)
    if waiting.family == "deterministic":
        return s ** np.floor(t / waiting.period)
    shape = 1.0 if waiting.family == "exponential" else waiting.shape
    total = np.zeros_like(t)
    upper = np.ones_like(t)  # P(N_t >= n)
    n = 0
    while True:
        nxt = scipy.stats.gamma.cdf(t, a=(n + 1) * shape, scale=1.0 / waiting.rate)
        total += s ** n * (upper - nxt)
        upper = nxt
        n += 1
        if upper.max() < 1e-17:
            return total


def amplitude_damping_q(waiting, damping, p0, p1, times, n_paths=None):
    """Q_t of amplitude-damping collisions under a diagonal free Hamiltonian.

    The chain maps the identity to diag(2 - s^N, s^N) with s = 1 - damping,
    so Q_t = 1 + (p0 - p1)(1 - E[s^N]).  With ``n_paths`` also returns the
    exact standard error |p0 - p1| sqrt(Var[s^N] / n_paths) of a Monte
    Carlo estimate of Q_t.
    """
    s = 1.0 - damping
    m1 = renewal_moment(waiting, s, times)
    q = 1.0 + (p0 - p1) * (1.0 - m1)
    if n_paths is None:
        return q
    var = np.clip(renewal_moment(waiting, s * s, times) - m1 * m1, 0.0, None)
    return q, abs(p0 - p1) * np.sqrt(var / n_paths)


def ensemble_stderr(rho0, mean_states, n_paths):
    """Exact aggregate stderr sqrt(sum_ij Var[rho_ij] / n_paths) of a unitary ensemble.

    Every path keeps the purity of rho0, so sum_ij Var[rho_ij] equals
    Tr[rho0^2] - |E rho|_F^2.
    """
    purity = np.trace(rho0 @ rho0).real
    return np.array([np.sqrt(max(purity - np.sum(np.abs(m) ** 2), 0.0) / n_paths)
                     for m in mean_states])
