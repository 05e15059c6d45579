"""Classical-noise and collisional dynamics.

Both constructions realize system evolutions driven by classical
stochastic processes, so their quantumness series must stay pinned at
1: per noise realization the dual map is a unitary conjugation, and a
collision channel with trace-preserving dual leaves the dual-chain
trace invariant.  The non-unital collision channels exercised in the
tests are deliberate counterexamples, not part of that guarantee.

Randomness is counter-based: path p of seed s draws from the Philox
stream keyed by the pair (s, p), the stream of Philox(key=s + 2**64 p),
so results are independent of evaluation order and bitwise reproducible.

Monte Carlo runs in blocks of PATH_BLOCK paths, so memory does not grow
with the path count.  One Philox generator is reset to each path's key
with a zero counter; path_rng and sample_noise_path reach their single
path the same way.  A noise block is padded to equal length with
zero-length segments, and its unitaries are gathered at the requested
times from the scan below, without cutting the paths.  At d = 2 every
segment unitary exp(-i tau (h0 + x C)) is the closed form
exp(-i tau m) [cos(tau r) I - i (sin(tau r)/r) (H - m I)], with
H = h0 + x C, m = Tr H / 2 and r half the gap of H's eigenvalues: a few
elementwise operations, where numpy's eigh costs about 1.3 us per 2 x 2
matrix; from d = 3 on they come from one batched eigh.  The chain of
segment unitaries is a two-level scan for all paths at once: running
products within fixed runs of SCAN_BLOCK segments, one carry per run,
and run product times carry only where a requested time reads it, so
the unitaries at the requested times come out as one (paths, times, d, d)
array without the full prefix array.  At d = 2 every stacked product of
the engine is four elementwise products (_mul_2x2), since numpy's stacked
matmul calls zgemm once per matrix; from d = 3 on it is np.matmul.
Every Monte Carlo route has one reducer, _ensemble_moments, which merges
the per-block means and spreads: stochastic_average_state feeds it the
states U rho0 U^dag, stochastic_q the path pairings Tr[rho0 U U^dag]
and the collisional Monte Carlo its chain snapshots.  A collisional
path draws its waits in chunks and sums them with np.cumsum, which adds
in order, so its collision times are bitwise those of one draw at a
time.  The block's chain runs in the eigenbasis H = V diag(e) V^dag on
the d^2 coordinates P^dag vec(x), P = kron(conj V, V): a free step is
the elementwise phase exp(-i (e_i - e_j) u), and the j-th collision of
every path is one (paths, d^2) x (d^2, d^2) product with the model's
cached P^dag E P.
A collision at a grid time acts before the snapshot there, and P maps
each snapshot back by its own matrix-vector product.

A collisional chain runs in one of MODES, series or monte-carlo.  Each
waiting family reads only its WAITING_FIELDS; a WaitingTime that sets
another field is rejected.  Deterministic waiting has one path, the
collisions at the exact hits k period, so both modes run that one path
through the same chain and give the same bits.  Grid times that land on
whole periods are common, so a hit counts at a time it passes by at
most 1e-12 period.

For exponential and gamma waiting the series mode solves the renewal
(second-kind Volterra) equation for the collision-arrival density by
one product-trapezoid forward substitution on a uniform grid, which
sums every collision count at once, so there is no truncated tail to
bound.  Its survival weight is the discrete partner of that density, so
the chain conserves the trace to roundoff.  The solve runs in the
eigenbasis of the free Hamiltonian, where the free map is diagonal,
through qcore.blocked_volterra, the package's one Volterra solver (the
memory-kernel amplitude of envq.models runs on it too): np.convolve
sums the history of earlier blocks of grid steps, and one precomputed
triangular operator solves inside a block.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.special

from . import qcore, quantumness
from .qcore import (
    QuantumState, as_operator, require_hermitian, state_matrix, unvec, vec,
)

NOISE_FAMILIES = ("gaussian-white", "ornstein-uhlenbeck", "telegraph")
# the fields each waiting family reads; WaitingTime rejects any other that is set
WAITING_FIELDS = {"exponential": ("rate",), "gamma": ("rate", "shape"), "deterministic": ("period",)}
MODES = ("series", "monte-carlo")  # the run modes, of [run] mode and --mode too
PATH_BLOCK = 128  # paths whose segment stacks are held in memory at once
SCAN_BLOCK = 16  # segments per run of the blocked prefix scan of a noise path


def require_seed(seed):
    """``seed`` as an int in [0, 2**64); TypeError for a non-integer, ValueError out of range."""
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _path_streams(seed, paths):
    """Yield one generator per path, at the start of that path's Philox stream.

    Path p of seed s draws from the Philox stream whose 128-bit key is the
    pair (s, p), the stream of Philox(key=s + 2**64 p): Philox is built so
    that distinct keys give independent streams.  One Philox serves every
    path: its state is reset to the path's key with a zero counter and an
    empty buffer.  The same Generator is yielded each time, so each one is
    read before the next is requested.
    """
    keys = np.empty((len(paths), 2), dtype=np.uint64)
    keys[:, 0] = require_seed(seed)
    keys[:, 1] = paths
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    # the state setter copies what it is given, so one dict serves every path
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def path_rng(seed, path_index):
    """Philox generator of one path of one seeded run: Philox(key=seed + 2**64 path_index).

    ``seed`` is an integer in [0, 2**64); any other seed raises TypeError
    (not an integer) or ValueError (out of range).  A non-integer
    ``path_index`` raises TypeError.
    """
    return next(_path_streams(seed, [operator.index(path_index)]))


# ---------------------------------------------------------------------------
# noise processes and stochastic Hamiltonians

@dataclass(frozen=True)
class NoiseProcess:
    """Scalar classical noise through a Hermitian coupling; white noise takes correlation_time 0."""

    family: str
    amplitude: float
    correlation_time: float
    coupling: object

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        qcore.require_finite_parameters(self, "amplitude", "correlation_time")
        if self.correlation_time < 0:
            raise ValueError("correlation_time must be nonnegative")
        if self.family != "gaussian-white" and self.correlation_time <= 0:
            raise ValueError(f"{self.family} noise needs a positive correlation time")
        if self.family == "gaussian-white" and self.correlation_time != 0:
            raise ValueError("correlation_time applies to the colored families only, "
                             f"not gaussian-white (got {self.correlation_time})")
        object.__setattr__(
            self, "coupling", require_hermitian(self.coupling, name="noise coupling")
        )


@dataclass(frozen=True)
class NoisePath:
    """Piecewise-constant realization: values held over durations."""

    durations: np.ndarray
    values: np.ndarray

    @property
    def t_max(self):
        return float(self.durations.sum())


def sample_noise_path(process, t_max, dt, seed, path_index=0):
    """Reproducible single realization on [0, t_max].

    White noise is represented by per-step values whose time integrals
    carry the correct Wiener increments; the colored families hold the
    step rule dt <= correlation_time / 10.  Telegraph paths switch at
    exact exponential-clock times.
    """
    return next(_noise_paths(process, t_max, dt, seed, [operator.index(path_index)]))


def _noise_paths(process, t_max, dt, seed, paths):
    """Yield the NoisePath of every path index in ``paths``, as sample_noise_path draws it."""
    if dt <= 0 or t_max <= 0:
        raise ValueError("t_max and dt must be positive")
    if process.family != "gaussian-white" and dt > process.correlation_time / 10.0:
        raise ValueError("dt must not exceed correlation_time / 10 for colored noise")
    a = process.amplitude
    if process.family != "telegraph":
        n = int(np.ceil(t_max / dt))
        durations = np.full(n, dt)
        durations[-1] = t_max - dt * (n - 1)
    if process.family == "ornstein-uhlenbeck":
        # imported here: scipy.signal adds about 0.13 s to every import of envq
        from scipy.signal import lfilter
        decay = np.exp(-durations / process.correlation_time)
        kick = a * np.sqrt(1.0 - decay ** 2)
    for rng in _path_streams(seed, paths):
        if process.family == "telegraph":
            rate = 0.5 / process.correlation_time
            sign = 1.0 if rng.random() < 0.5 else -1.0
            steps, values = [], []
            elapsed = 0.0
            while elapsed < t_max:
                wait = rng.exponential(1.0 / rate)
                step = min(wait, t_max - elapsed)
                steps.append(step)
                values.append(sign * a)
                sign = -sign
                elapsed += step
            yield NoisePath(np.asarray(steps), np.asarray(values))
        elif process.family == "gaussian-white":
            yield NoisePath(durations, a * rng.standard_normal(n) / np.sqrt(durations))
        else:  # ornstein-uhlenbeck, exact discretization from stationarity
            # the start is drawn before the kicks, so a path's first k values
            # do not depend on t_max
            start = a * rng.standard_normal()
            kicks = kick * rng.standard_normal(n)
            # x[k+1] = decay x[k] + kicks[k]; only the steps before the last are
            # read, and all of them last dt
            yield NoisePath(durations, lfilter([1.0], [1.0, -decay[0]],
                                               np.concatenate([[start], kicks[:-1]])))


def _dagger(m):
    return np.swapaxes(m.conj(), -1, -2)


def _spectral_unitary(w, v, t):
    """exp(-i t H) from the eigensystem (w, v) of H, batched over leading axes of t."""
    phase = np.exp(-1j * w * np.asarray(t)[..., None])
    return (v * phase[..., None, :]) @ _dagger(v)


def _unitary_2x2(h0, coupling, x, t):
    """exp(-i t (h0 + x C)) for 2 x 2 Hermitian h0 and C, elementwise over arrays x and t.

    H = m I + K with m = (H_00 + H_11)/2 and K traceless, K^2 = r^2 I,
    r = sqrt(((H_00 - H_11)/2)^2 + |H_01|^2), so
    exp(-i t H) = exp(-i t m) [cos(t r) I - i (sin(t r)/r) K].  The factor
    sin(t r)/r is t at r = 0, and t = 0 gives the exact identity.  Sine and
    cosine take the same argument t r: np.sinc(t r / pi) rescales it, which
    left U U^dag - I at about 1e-7 for t r = 1e9, against 1e-16 here.
    Reads the upper triangle and the real diagonal only.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    h00 = h0[0, 0].real + x * coupling[0, 0].real
    h11 = h0[1, 1].real + x * coupling[1, 1].real
    off = h0[0, 1] + x * coupling[0, 1]
    mid = 0.5 * (h00 + h11)
    half = 0.5 * (h00 - h11)
    r = np.hypot(half, np.abs(off))
    tr = t * r
    sin_r = np.divide(np.sin(tr), r, out=np.array(t), where=r > 0)
    phase = np.exp(-1j * (t * mid))
    cos_phase = phase * np.cos(tr)
    sin_phase = phase * (-1j * sin_r)
    u = np.empty(x.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = cos_phase + sin_phase * half
    u[..., 1, 1] = cos_phase - sin_phase * half
    u[..., 0, 1] = sin_phase * off
    u[..., 1, 0] = sin_phase * off.conj()
    return u


def _path_blocks(n_paths):
    """Ranges of at most PATH_BLOCK path indices; n_paths is checked now, the ranges made lazily."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    return (range(s, min(s + PATH_BLOCK, n_paths)) for s in range(0, n_paths, PATH_BLOCK))


def _padded(rows, fill):
    """Stack 1-D rows of unequal length into one (len(rows), longest) array."""
    out = np.full((len(rows), max(len(r) for r in rows)), fill, dtype=float)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _mul_2x2(a, b):
    """a @ b over stacks of 2 x 2 matrices, as four elementwise products.

    numpy's stacked matmul calls zgemm once per matrix: 32 us against
    9.6 us here for 128 products on one core.  From d = 3 on matmul wins
    (73 against 567 us at d = 12), so the engine uses this at d = 2 only.
    """
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _chain_prefix(full, seg, mul):
    """full[p, s-1] ... full[p, 0] for every s = seg[p, k], as (paths, times, d, d).

    A two-level scan over runs of SCAN_BLOCK segments (all n, when n is
    smaller).  The running product within every run of every path is
    formed in place, one vectorized product per position in a run, over
    the strided view of that position in every run; one carry per run
    chains the run products; and run product times carry is taken only at
    the requested pairs.  The run length is fixed, so the chain before
    segment s depends on segments below s only, never on how many were
    sampled.  A product with an identity carry or run product is exact, and
    the carry product is skipped when every requested segment lies in the
    first run.  Overwrites ``full``.
    """
    paths, n, d = full.shape[:3]
    run = min(SCAN_BLOCK, n)
    for k in range(1, run):
        here = full[:, k::run]
        here[...] = mul(here, full[:, k - 1::run][:, :here.shape[1]])
    block, pos = np.divmod(seg, run)
    eye = np.eye(d, dtype=complex)
    carry = np.empty((paths, int(block.max(initial=0)) + 1, d, d), dtype=complex)
    carry[:, 0] = eye
    for r in range(1, carry.shape[1]):
        carry[:, r] = mul(full[:, r * run - 1], carry[:, r - 1])
    rows = np.arange(paths)[:, None]
    within = full[rows, seg - 1]
    within[pos == 0] = eye
    if carry.shape[1] == 1:  # every carry is the identity
        return within
    return mul(within, carry[rows, block])


def _path_unitaries(process, h0, times, n_paths, seed, dt):
    """Path unitaries U_p(times[k]), yielded block by block as (paths, times, d, d).

    A requested time belongs to the first segment ending no earlier than
    1e-12 t_max before it, a slack relative to the path length, so it
    does not depend on the time unit; paths are padded to equal length
    with zero-length segments, which no requested time reaches.  At d = 2
    the segment unitaries are the closed form of ``_unitary_2x2``, since
    numpy's eigh costs about 1.3 us per 2 x 2 matrix, and every product is
    ``_mul_2x2``; from d = 3 on they come from one batched eigh of every
    segment's Hamiltonian and the products from np.matmul.  The chain
    before each requested segment comes from the blocked scan of
    ``_chain_prefix``, and the partial segment multiplies it last.  Both
    routes read one triangle of ``h0`` and of the coupling, so both must be
    the exact Hermitian parts that ``require_hermitian`` returns.
    """
    t_max = max(float(times.max()) if times.size else dt, dt)
    for block in _path_blocks(n_paths):
        paths = list(_noise_paths(process, t_max, dt, seed, block))
        tau = _padded([path.durations for path in paths], 0.0)
        ends = np.cumsum(tau, axis=1)
        starts = np.concatenate([np.zeros((len(paths), 1)), ends[:, :-1]], axis=1)
        eps = 1e-12 * np.array([path.t_max for path in paths])
        seg = (ends[:, None, :] + eps[:, None, None] < times[:, None]).sum(axis=2)
        if np.any(seg >= np.array([[len(path.durations)] for path in paths])):
            raise ValueError("requested times extend beyond the sampled path")
        x = _padded([path.values for path in paths], 0.0)
        rows = np.arange(len(paths))[:, None]
        step = times - starts[rows, seg]
        if h0.shape[0] == 2:
            full = _unitary_2x2(h0, process.coupling, x, tau)
            partial = _unitary_2x2(h0, process.coupling, x[rows, seg], step)
            mul = _mul_2x2
        else:
            w, v = np.linalg.eigh(h0 + x[..., None, None] * process.coupling)
            full = _spectral_unitary(w, v, tau)
            partial = _spectral_unitary(w[rows, seg], v[rows, seg], step)
            mul = np.matmul
        yield mul(partial, _chain_prefix(full, seg, mul))


def _noise_snapshots(process, h0, x0, times, n_paths, seed, dt):
    """U_p(t) x0 U_p(t)^dag at every requested time, yielded block by block as
    (paths, times, d, d)."""
    if process.coupling.shape != h0.shape:
        raise ValueError(f"noise coupling dimension {process.coupling.shape[0]} != "
                         f"base Hamiltonian dimension {h0.shape[0]}")
    times = qcore.time_grid(times)
    dt = _default_dt(process, times) if dt is None else dt
    mul = _mul_2x2 if h0.shape[0] == 2 else np.matmul  # as _path_unitaries chooses
    for u in _path_unitaries(process, h0, times, n_paths, seed, dt):
        # u x0 as one GEMM over the stacked rows: a broadcast matmul loops
        # over the stack and took about 1.7 times as long
        yield mul((u.reshape(-1, x0.shape[0]) @ x0).reshape(u.shape), _dagger(u))


def _ensemble_moments(blocks):
    """Hermitized means over (paths, times, d, d) blocks and the aggregate
    stderr sqrt(sum_ij Var / n_paths) per time.

    Deviations are taken from each block's mean and the blocks merged by
    Chan's update: a one-pass E|r|^2 - |E r|^2 reports about 1e-9 of
    spread, from cancellation roundoff, where every path agrees.
    """
    n = 0
    acc = m2 = 0.0
    for r in blocks:
        nb = r.shape[0]
        sb = r.sum(axis=0)
        dev = r - sb / nb
        m2b = (dev.real ** 2 + dev.imag ** 2).sum(axis=0)
        if n:
            delta = sb / nb - acc / n
            m2b += (delta.real ** 2 + delta.imag ** 2) * (n * nb / (n + nb))
        acc, m2, n = acc + sb, m2 + m2b, n + nb
    mean = acc / n
    stderr = np.sqrt(m2.sum(axis=(1, 2)) / n / max(n - 1, 1))
    return [0.5 * (m + m.conj().T) for m in mean], stderr


def stochastic_q(process, base_h, rho0, times, n_paths, seed, dt=None):
    """Ensemble quantumness series under a stochastic Hamiltonian.

    Each path pairs rho0 with its forward map of the identity,
    Tr[rho0 U U^dag], as ``collisional_q`` does with its chain.  Per
    realization the map is a unitary conjugation, so every path
    contributes exactly 1; the returned standard error is the honest
    (vanishing) spread std(ddof=1) / sqrt(n_paths) of the path values.
    """
    h0 = require_hermitian(base_h, name="base Hamiltonian")
    rho0 = state_matrix(rho0, h0.shape[0])
    eye = np.eye(rho0.shape[0], dtype=complex)
    pairings = (np.einsum("ij,ptji->pt", rho0, x).real[..., None, None]
                for x in _noise_snapshots(process, h0, eye, times, n_paths, seed, dt))
    mean, stderr = _ensemble_moments(pairings)
    return quantumness.QuantumnessSeries(times, [m[0, 0] for m in mean], rho0.shape[0]), stderr


def stochastic_average_state(process, base_h, rho0, times, n_paths, seed, dt=None):
    """Noise-averaged states and the aggregate elementwise stderr scale.

    Returns (states, stderr) where states[k] is the ensemble mean
    density matrix at times[k] and stderr[k] collects
    sqrt(sum_ij Var[rho_ij] / n_paths).
    """
    h0 = require_hermitian(base_h, name="base Hamiltonian")
    rho0 = state_matrix(rho0, h0.shape[0])
    return _ensemble_moments(_noise_snapshots(process, h0, rho0, times, n_paths, seed, dt))


def _default_dt(process, times):
    t_max = float(np.max(times)) if np.size(times) else 1.0
    if process.family == "gaussian-white":
        return max(t_max, 1e-6) / 400.0
    return process.correlation_time / 20.0


# ---------------------------------------------------------------------------
# renewal waiting times

@dataclass(frozen=True)
class WaitingTime:
    """Renewal waiting-time distribution between collisions."""

    family: str
    rate: float = None
    shape: float = None
    period: float = None

    def __post_init__(self):
        if self.family not in WAITING_FIELDS:
            raise ValueError(f"unknown waiting family {self.family!r}")
        extra = [name for name in ("rate", "shape", "period")
                 if getattr(self, name) is not None and name not in WAITING_FIELDS[self.family]]
        if extra:
            raise ValueError(f"{self.family} waiting reads only {list(WAITING_FIELDS[self.family])}, "
                             f"not {extra}")
        qcore.require_finite_parameters(self, "rate", "shape", "period")
        if self.family == "exponential" and not (self.rate and self.rate > 0):
            raise ValueError("exponential waiting needs rate > 0")
        if self.family == "gamma":
            if not (self.rate and self.rate > 0 and self.shape and self.shape >= 1):
                raise ValueError("gamma waiting needs rate > 0 and shape >= 1")
        if self.family == "deterministic" and not (self.period and self.period > 0):
            raise ValueError("deterministic waiting needs period > 0")

    def mean(self):
        if self.family == "exponential":
            return 1.0 / self.rate
        if self.family == "gamma":
            return self.shape / self.rate
        return self.period

    def sample(self, rng, size=None):
        if self.family == "exponential":
            return rng.exponential(1.0 / self.rate, size=size)
        if self.family == "gamma":
            return rng.gamma(self.shape, 1.0 / self.rate, size=size)
        return np.full(size, self.period) if size is not None else self.period

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "exponential":
            return self.rate * np.exp(-self.rate * t)
        if self.family == "gamma":
            # the form scipy.stats.gamma evaluates, without importing scipy.stats
            scale = 1.0 / self.rate
            x = t / scale
            log_pdf = scipy.special.xlogy(self.shape - 1.0, x) - x - scipy.special.gammaln(self.shape)
            return np.where(x < 0.0, 0.0, np.exp(log_pdf) / scale)
        raise ValueError("deterministic waiting has no density")


# ---------------------------------------------------------------------------
# collisional models

@dataclass
class CollisionalModel:
    """Free Hamiltonian evolution interrupted by channel collisions."""

    free_hamiltonian: object
    collision: list
    waiting: WaitingTime

    def __post_init__(self):
        self.free_hamiltonian = require_hermitian(self.free_hamiltonian, name="free Hamiltonian")
        self.collision = [as_operator(t, "Kraus operator") for t in self.collision]
        qcore.require_channel(self.collision, self.dim, 1e-10, name="collision")

    @property
    def dim(self):
        return self.free_hamiltonian.shape[0]

    @cached_property
    def _eig(self):
        """Eigenvalues e and eigenvectors V of the free Hamiltonian, computed once."""
        return qcore.hermitian_eigensystem(self.free_hamiltonian)

    @cached_property
    def _collision_eig(self):
        """P^dag E P, P = kron(conj V, V): the collision superoperator in the
        eigenbasis of H, read by the series and the Monte Carlo chain."""
        vecs = self._eig[1]
        dd = self.dim * self.dim
        # sum over Kraus operators T of kron(conj T', T'), T' = V^dag T V
        kraus = vecs.conj().T @ np.array(self.collision) @ vecs
        e_eig = np.einsum("nij,nkl->ikjl", kraus.conj(), kraus).reshape(dd, dd)
        e_eig.setflags(write=False)
        return e_eig


def _superbasis(vecs):
    """P = kron(conj V, V), which maps the eigenbasis coordinates of an operator to vec form."""
    d = vecs.shape[0]
    return (vecs.conj()[:, None, :, None] * vecs[None, :, None, :]).reshape(d * d, d * d)


def _series_chain(model, x0, times, step=None):
    """Deterministic renewal average of the collision chain applied to x0.

    Works on an internal uniform grid t_k = k h with a product-trapezoid
    convolution.  The collision-arrival density solves the second-kind
    Volterra equation b = b_1 + K*b with kernel K_t = w(t) E F_t, E the
    collision superoperator and F_t the free map.  The trapezoid rule
    turns it into a forward substitution with (I - h/2 K_0)^-1 applied at
    every step, which sums every iterated convolution of the rule.  The
    chain is C_t = s F_t + (s F) * b: free evolution weighted by the
    survival s, plus the same after the last arrival.

    The survival weight is the discrete partner of the solved density,
    s = 1 - h trap(s * beta), where beta = w + h trap(w * beta) is the
    scalar arrival density of the same rule; neither is clipped.  So a
    trace-preserving collision keeps Tr C_t[x0] = Tr x0, and a unital one
    C_t[I] = I, to roundoff at every horizon; only the distance to the
    continuum chain carries the quadrature error.

    The solve runs in the eigenbasis H = V diag(e) V^dag of the free
    Hamiltonian.  With P = kron(conj V, V) the free map at t_k is
    P diag(ph_k) P^dag, where ph_k = kron(conj lam_k, lam_k) (``_phases``) and
    lam_k = exp(-i e t_k).  The kernel is then P^dag E P diag(w_k ph_k),
    and each history term is a componentwise product of d^2 numbers.
    ``qcore.blocked_volterra`` solves the density in blocks of grid steps, and
    with d^2 = 1 the two scalar weights.  The output is read only through
    linear interpolation at ``times``, so it is convolved only at the grid
    nodes that bracket them, and mapped back with P there.
    """
    if not times.size:
        return []
    t_max = float(times.max())
    w = model.waiting
    if step is None:
        step = w.mean() / 100.0
    n_grid = max(2, int(np.ceil(t_max / step)))
    if n_grid > 60000:
        raise ValueError("series grid too fine; raise step or lower t_max")
    grid = step * np.arange(n_grid + 1)
    d = model.dim
    dd = d * d
    wk = w.pdf(grid)
    # beta_k = r_k + h/(1 - h w_0/2) sum_{j=1}^{k-1} w_{k-j} beta_j, beta_0 = w_0
    lead = 1.0 - 0.5 * step * wk[0]
    r = wk * (1.0 + 0.5 * step * wk[0]) / lead
    r[0] = wk[0]
    beta = qcore.blocked_volterra(r[None], wk[None], np.array([[step / lead]]))[0]
    # s_k = r_k - h/(1 + h beta_0/2) sum_{j=1}^{k-1} beta_{k-j} s_j, s_0 = 1; solving
    # the defining equation, rather than a closed form, keeps its residual at roundoff
    lead = 1.0 + 0.5 * step * beta[0]
    r = (1.0 - 0.5 * step * beta) / lead
    r[0] = 1.0
    surv = qcore.blocked_volterra(r[None], beta[None], np.array([[-step / lead]]))[0]
    energies, vecs = model._eig
    p = _superbasis(vecs)
    ph = _phases(energies, grid).T
    e_eig = model._collision_eig
    c = wk * ph
    # (I - h/2 K_0)^-1 P^dag E P; K_0 = w_0 E, since the free map at 0 is I
    inv_e = np.linalg.solve(np.eye(dd) - 0.5 * step * wk[0] * e_eig, e_eig)
    v0 = p.conj().T @ vec(x0)
    b0 = wk[0] * (e_eig @ v0)
    # b_k = inv_e (c_k (v0 + h/2 b_0)) + h inv_e sum_{j=1}^{k-1} c_{k-j} b_j: the
    # trapezoid over j with the unknown j = k endpoint moved left
    r = inv_e @ (c * (v0 + 0.5 * step * b0)[:, None])
    r[:, 0] = b0
    b = qcore.blocked_volterra(r, c, step * inv_e)
    # np.interp reads a time's value from the node at or below it and the next
    below = np.searchsorted(grid, times, side="right") - 1
    nodes = np.unique(np.concatenate([below, np.minimum(below + 1, n_grid)]))
    # with g = s ph and g_0 = 1, node k is g_k (v0 - h/2 b_0) + h (sum_{j<=k} g_{k-j} b_j - b_k/2)
    sph = surv * ph
    rev = np.ascontiguousarray(sph[:, ::-1])
    conv = np.array([np.einsum("aj,aj->a", rev[:, n_grid - k:], b[:, :k + 1]) for k in nodes])
    tilde = sph[:, nodes].T * (v0 - 0.5 * step * b0) + step * (conv - 0.5 * b[:, nodes].T)
    # one product per node, so a node's bits do not depend on the other nodes
    out = np.array([p @ row for row in tilde])
    result = np.empty((times.size, dd), dtype=complex)
    xp = grid[nodes]
    for col in range(dd):
        result[:, col] = np.interp(times, xp, out[:, col].real) + 1j * np.interp(
            times, xp, out[:, col].imag
        )
    return [unvec(row, d) for row in result]


def _hit_slack(waiting):
    """How far past a time a collision may fall and still count there:
    1e-12 period for the exact hits of deterministic waiting, else 0."""
    return 1e-12 * waiting.period if waiting.family == "deterministic" else 0.0


def _event_times(waiting, rng, t_max):
    """Collision times of one renewal path up to and including t_max.

    Deterministic waiting draws nothing: its times are the exact hits
    k period up to t_max plus the hit slack.  Otherwise waits are drawn
    in chunks of about twice the expected count.  A sized draw gives the
    values of as many single draws, and np.cumsum adds in order from the
    last time of the previous chunk, so the times are bitwise those of
    adding one wait at a time.
    """
    if waiting.family == "deterministic":
        n = int(np.floor((t_max + _hit_slack(waiting)) / waiting.period))
        return waiting.period * np.arange(1, n + 1)
    chunk = int(2.0 * t_max / waiting.mean()) + 2
    elapsed = np.cumsum(waiting.sample(rng, size=chunk))
    while elapsed[-1] <= t_max:
        more = waiting.sample(rng, size=chunk)
        more[0] += elapsed[-1]
        elapsed = np.concatenate([elapsed, np.cumsum(more)])
    return elapsed[:np.searchsorted(elapsed, t_max, side="right")]


def _phases(energies, u):
    """exp(-i (e_i - e_j) u) at coordinate j d + i, batched over the axes of u."""
    lam = np.exp(-1j * np.multiply.outer(u, energies))
    return (lam.conj()[..., :, None] * lam[..., None, :]).reshape(lam.shape[:-1] + (-1,))


def _chain_snapshots(model, x0, times, n_paths, seed):
    """Collision-chain snapshots, yielded block by block as (paths, times, d, d).

    The chain runs in the eigenbasis H = V diag(e) V^dag on the d^2
    coordinates z = P^dag vec(x), P = kron(conj V, V), where a free step
    over u is the phase exp(-i (e_i - e_j) u) and a collision the model's
    cached P^dag E P.  Each block steps through its collisions together,
    z[:, j] holding the state after j collisions; a snapshot at time t
    takes the state after every collision at or before t (plus the hit
    slack), evolved freely since the last of them, and maps it back with
    one matrix-vector product by P per snapshot, so a time's bits do not
    depend on the other times requested.  Padded steps past a path's last
    collision are computed but never read.  Memory grows with the
    collisions: z holds paths x (collisions + 1) x d^2 coordinates.
    """
    t_max = float(times.max()) if times.size else 0.0
    energies, vecs = model._eig
    e_eig = model._collision_eig
    p = _superbasis(vecs)
    z0 = p.conj().T @ vec(x0)
    d = model.dim
    slack = _hit_slack(model.waiting)
    for block in _path_blocks(n_paths):
        events = [_event_times(model.waiting, rng, t_max) for rng in _path_streams(seed, block)]
        # time of the j-th collision, 0 for j = 0
        hit = np.concatenate([np.zeros((len(block), 1)), _padded(events, 0.0)], axis=1)
        z = np.empty(hit.shape + z0.shape, dtype=complex)
        z[:, 0] = z0
        for j in range(1, hit.shape[1]):
            z[:, j] = (_phases(energies, hit[:, j] - hit[:, j - 1]) * z[:, j - 1]) @ e_eig.T
        rows = np.arange(len(block))[:, None]
        # collisions counted at each time: a hit counts from the first time t with hit <= t + slack
        first = np.searchsorted(times + slack, _padded(events, np.inf), side="left")
        span = times.size + 1
        counts = np.bincount((rows * span + first).ravel(), minlength=len(block) * span)
        applied = counts.reshape(-1, span).cumsum(axis=1)[:, :-1]
        y = _phases(energies, times - hit[rows, applied]) * z[rows, applied]
        x = (p @ y[..., None])[..., 0]
        # coordinate j d + i of vec(x) holds entry (i, j)
        yield np.swapaxes(x.reshape(x.shape[:-1] + (d, d)), -1, -2)


def _monte_carlo_chain(model, x0, times, n_paths, seed):
    """Average of the random collision chain applied to x0.

    Returns (means, stderr) with stderr the aggregate elementwise
    standard-error scale sqrt(sum_ij Var / n_paths).
    """
    x0 = np.asarray(x0, dtype=complex)
    snapshots = _chain_snapshots(model, x0, np.asarray(times, dtype=float), n_paths, seed)
    return _ensemble_moments(snapshots)


def _chain(model, x0, times, mode, n_paths, seed, step):
    """The collision chain applied to x0 on a time grid, by series or Monte Carlo."""
    times = qcore.time_grid(times)
    if step is not None and not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "monte-carlo":
        if n_paths is None or seed is None:
            raise ValueError("monte-carlo mode needs n_paths and seed")
        _path_blocks(n_paths)  # rejects an empty ensemble for every waiting law
    if model.waiting.family == "deterministic":
        # one path, which draws nothing: both modes run it through the same chain
        return list(next(_chain_snapshots(model, np.asarray(x0, dtype=complex), times, 1, 0))[0])
    if mode == "series":
        return _series_chain(model, x0, times, step=step)
    return _monte_carlo_chain(model, x0, times, n_paths, seed)[0]


def collisional_states(model, rho0, times, mode="series", n_paths=None, seed=None, step=None):
    """States on a time grid, by deterministic series or Monte Carlo."""
    mats = _chain(model, state_matrix(rho0, model.dim), times, mode, n_paths, seed, step)
    # series-mode snapshots carry the quadrature error of the chain
    return [QuantumState(m, tol=2e-4) for m in mats]


def collisional_q(model, rho0, times, mode="series", n_paths=None, seed=None,
                  step=None, tail_tol=None):
    """Quantumness series of the collisional dynamics.

    Uses the trace pairing: the dual-chain trace of rho0 equals
    Tr[rho0 C_t[I]] with C_t the forward chain applied to the identity,
    so a single chain evaluation serves the whole series.  ``tail_tol``
    is accepted and ignored: the series mode solves the renewal equation
    exactly on its grid, so there is no truncated tail left to bound.
    """
    rho0 = state_matrix(rho0, model.dim)
    eye = np.eye(model.dim, dtype=complex)
    mats = _chain(model, eye, times, mode, n_paths, seed, step)
    values = [np.trace(rho0 @ m).real for m in mats]
    return quantumness.QuantumnessSeries(times, values, model.dim)
