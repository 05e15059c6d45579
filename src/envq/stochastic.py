"""Classical-noise and collisional dynamics.

Both constructions realize system evolutions driven by classical
stochastic processes, so their quantumness series must stay pinned at
1: per noise realization the dual map is a unitary conjugation, and a
collision channel with trace-preserving dual leaves the dual-chain
trace invariant.  The non-unital collision channels exercised in the
tests are deliberate counterexamples, not part of that guarantee.

Randomness is counter-based (Philox; Salmon, Moraes, Dror & Shaw,
SC'11): path p of seed s draws from the stream of
Philox(key=s + 2**64 p), so results are independent of evaluation order
and bitwise reproducible.

Monte Carlo runs in blocks of PATH_BLOCK paths, so memory does not grow
with the path count.  One block sampler serves every path: one Philox
generator is reset to each path's key with a zero counter, and the path
makes one sized draw into its row of a (paths, chunk) array.  A sized
draw gives the values of as many single draws, so the rest runs once per
block: the noise scaling, the Ornstein-Uhlenbeck recursion as one filter
along the rows, and for telegraph switches and collisions, which are
both renewal clocks, the running sums of the waits (np.cumsum adds in
order, so the arrival times are bitwise those of one wait at a time)
and the event counts.  A row whose chunk falls short of t_max is drawn
again from its reset stream with a larger chunk.  A telegraph segment
runs while its start is before t_max; a collision counts while it is at
or before t_max.  path_rng and sample_noise_path reach a single path the
same way.  A noise block is padded to equal length with zero-length
segments, and its unitaries are gathered at the requested times from
the scan below, without cutting the paths.  At d = 2 every segment
unitary is the closed form of _unitary_2x2 and every stacked product
four elementwise products (_mul_2x2), since numpy's eigh and stacked
matmul pay a LAPACK or BLAS call per 2 x 2 matrix; from d = 3 on they
come from one batched eigh and np.matmul.  The chain of segment
unitaries is a two-level scan for all paths at once (_chain_prefix), so
the unitaries at the requested times come out as one (paths, times, d, d)
array without the full prefix array.
Every Monte Carlo route has one reducer, _ensemble_moments, which merges
the per-block means and spreads: stochastic_average_state feeds it the
states U rho0 U^dag, stochastic_q the path pairings Tr[rho0 U U^dag]
and the collisional Monte Carlo its chain snapshots.  The block's chain
runs on the eigenbasis coordinates of _chain_snapshots, one
(paths, d^2) x (d^2, d^2) product per collision.  A collision at a grid
time acts before the snapshot there.

A collisional chain runs in one of MODES, series or monte-carlo.  Each
waiting family reads only its WAITING_FIELDS; a WaitingTime that sets
another field is rejected.  Deterministic waiting has one path, the
collisions at the exact hits k period, so both modes run that one path
through the same chain and give the same bits.  Grid times that land on
whole periods are common, so a hit counts at a time it passes by at
most 1e-12 period.

For exponential and integer-shape gamma waiting the series mode is
exact.  A gamma wait of shape k and rate r is k exponential stages of
rate r in a row, a phase-type law (Neuts, Matrix-Geometric Solutions in
Stochastic Models, 1981), and the exponential wait is the case k = 1.
So the renewal model is exactly a Lindblad model on clock (x) system
(Budini, PRA 74, 053815 (2006)), which ``CollisionalModel.clock``
builds: the clock advances a stage at rate r, and leaves its last stage
through the collision.  The chain is
C_t[x] = Tr_clock e^{tL}[|1><1| (x) x], one ``dynamics.reduced_series``
call, which on a uniform grid takes one exponential whatever the
horizon.  It steps from one requested time to
the next, as ``quantumness.q_series`` does, so a time's value depends on
the other requested times at roundoff (about 1e-15), not bit for bit.

A gamma wait of non-integer shape has no finite clock.  For it the
series mode solves the renewal (second-kind Volterra) equation for the
collision-arrival density by one product-trapezoid forward substitution
on a uniform grid of spacing ``step``, which sums every collision count
at once, so there is no truncated tail to bound.  Only this solve reads
``step``; every law validates it.  Its survival weight is the discrete
partner of that density, so the chain conserves the trace to roundoff.
The solve runs in the eigenbasis of the free Hamiltonian, where the free
map is diagonal, through qcore.blocked_volterra, the package's one
Volterra solver (the memory-kernel amplitude of envq.models runs on it
too): np.convolve sums the history of earlier blocks of grid steps, and
one precomputed triangular operator solves inside a block.  A time's
bits depend on the other requested times only through the grid, which
the last of them fixes.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.special

from . import dynamics, qcore, quantumness
from .qcore import (
    QuantumState, as_operator, require_hermitian, state_matrix, tensor_product, unvec, vec,
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
    """Reproducible single realization on [0, t_max], the one-path case of the block sampler.

    White noise is represented by per-step values whose time integrals
    carry the correct Wiener increments; the colored families hold the
    step rule dt <= correlation_time / 10.  Telegraph paths switch at
    exact exponential-clock times.  Path ``path_index`` gets the same
    segments as in any block of the Monte Carlo engine.
    """
    durations, values, lengths = _noise_sampler(process, t_max, dt)(
        seed, [operator.index(path_index)])
    return NoisePath(np.array(durations[0, :lengths[0]]), np.array(values[0, :lengths[0]]))


def _block_rows(seed, paths, width, draw):
    """A (len(paths), width) array whose row i ``draw(rng, row)`` fills from the
    start of the stream of path paths[i]."""
    rows = np.empty((len(paths), width))
    for rng, row in zip(_path_streams(seed, paths), rows):
        draw(rng, row)
    return rows


def _renewal_block(seed, paths, draw, lead, waiting, t_max):
    """Leading draws, waits and arrival times of a renewal clock on every path of a block.

    Row i is the stream of path paths[i] as ``draw`` fills it: ``lead``
    leading draws, then the standard waits of ``waiting``, which 1 / rate
    scales.  The first chunk holds twice the expected count of waits up to
    t_max, plus 2.  A row whose last arrival does not pass t_max is drawn
    again with twice the chunk; the other rows get zero waits there, so
    their arrivals stay past t_max.  Returns (head, waits, elapsed):
    (paths, lead), (paths, chunk) and the running sums of the waits.
    """
    chunk = int(2.0 * t_max / waiting.mean()) + 2
    scale = 1.0 / waiting.rate
    rows = _block_rows(seed, paths, lead + chunk, draw)
    while True:
        waits = scale * rows[:, lead:]
        elapsed = np.cumsum(waits, axis=1)
        short = np.flatnonzero(elapsed[:, -1] <= t_max)
        if not short.size:
            return rows[:, :lead], waits, elapsed
        chunk *= 2
        grown = np.zeros((len(paths), lead + chunk))
        grown[:, :rows.shape[1]] = rows
        grown[short] = _block_rows(seed, [paths[i] for i in short], lead + chunk, draw)
        rows = grown


def _noise_sampler(process, t_max, dt):
    """The block sampler of ``process`` on [0, t_max] at step dt, set up once per run.

    Returns sample(seed, paths) -> (durations, values, lengths): row i of
    the (len(paths), segments) arrays is path paths[i], which has
    lengths[i] segments and is padded past them with zero-length segments
    of value 0.  White and Ornstein-Uhlenbeck paths share the step grid:
    n segments of dt, the last ending at t_max.  A telegraph path starts
    at the level of its first uniform draw and switches at the arrivals
    of an exponential renewal clock; its last segment ends at t_max.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if process.family != "gaussian-white" and dt > process.correlation_time / 10.0:
        raise ValueError("dt must not exceed correlation_time / 10 for colored noise")
    a = process.amplitude
    if process.family == "telegraph":
        clock = WaitingTime("exponential", rate=0.5 / process.correlation_time)

        def draw(rng, row):
            row[0] = rng.random()
            clock.standard_waits(rng, row[1:])

        def sample(seed, paths):
            first, waits, elapsed = _renewal_block(seed, paths, draw, 1, clock, t_max)
            start = np.concatenate([np.zeros((len(paths), 1)), elapsed[:, :-1]], axis=1)
            live = start < t_max
            lengths = live.sum(axis=1)
            m = lengths.max()
            live, start = live[:, :m], start[:, :m]
            durations = np.where(live, np.minimum(waits[:, :m], t_max - start), 0.0)
            level = np.where(first < 0.5, 1.0, -1.0) * np.where(np.arange(m) % 2, -1.0, 1.0)
            return durations, np.where(live, level * a, 0.0), lengths
        return sample
    n = int(np.ceil(t_max / dt))
    # t_max / dt can round up past a whole number of steps; a last segment
    # within the roundoff of dt (n - 1) is dropped, and the one before ends at t_max
    if n > 1 and t_max - dt * (n - 1) <= 2.0 * n * np.finfo(float).eps * dt:
        n -= 1
    durations = np.full(n, dt)
    durations[-1] = t_max - dt * (n - 1)
    if process.family == "gaussian-white":
        def values(z):
            return a * z / np.sqrt(durations)
    else:  # ornstein-uhlenbeck, exact discretization from stationarity
        # imported here: scipy.signal adds about 0.13 s to every import of envq
        from scipy.signal import lfilter
        decay = np.exp(-durations / process.correlation_time)
        kick = a * np.sqrt(1.0 - decay ** 2)
        # the start is drawn before the kicks, so a path's first k values do
        # not depend on t_max; x[k+1] = decay x[k] + kick[k] z[k+1] is read
        # for the steps before the last only, all of which last dt, so the
        # last kick is never drawn
        scale = np.concatenate([[a], kick[:-1]])

        def values(z):
            return lfilter([1.0], [1.0, -decay[0]], scale * z, axis=1)

    def draw(rng, row):
        rng.standard_normal(out=row)

    def sample(seed, paths):
        z = _block_rows(seed, paths, n, draw)
        return np.broadcast_to(durations, z.shape), values(z), np.full(len(paths), n)
    return sample


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


def _mul_2x2(a, b):
    """a @ b over stacks of 2 x 2 matrices, as four elementwise products.

    numpy's stacked matmul calls zgemm once per matrix: 32 us against
    9.6 us here for 128 products on one core.  From d = 3 on matmul wins
    (73 against 567 us at d = 12), so the engine uses this at d = 2 only.
    """
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _stacked_product(d):
    """The engine's product of stacked d x d matrices: ``_mul_2x2`` at d = 2, else np.matmul."""
    return _mul_2x2 if d == 2 else np.matmul


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
    does not depend on the time unit; the block sampler pads paths to
    equal length with zero-length segments, which no requested time
    reaches.  At d = 2
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
    blocks = _path_blocks(n_paths)
    sample = _noise_sampler(process, t_max, dt)
    eps = 1e-12 * t_max
    for block in blocks:
        tau, x, lengths = sample(seed, block)
        ends = np.cumsum(tau, axis=1)
        starts = np.concatenate([np.zeros((len(block), 1)), ends[:, :-1]], axis=1)
        seg = (ends[:, None, :] + eps < times[:, None]).sum(axis=2)
        if np.any(seg >= lengths[:, None]):
            raise ValueError("requested times extend beyond the sampled path")
        rows = np.arange(len(block))[:, None]
        step = times - starts[rows, seg]
        if h0.shape[0] == 2:
            full = _unitary_2x2(h0, process.coupling, x, tau)
            partial = _unitary_2x2(h0, process.coupling, x[rows, seg], step)
        else:
            w, v = np.linalg.eigh(h0 + x[..., None, None] * process.coupling)
            full = qcore.spectral_unitary(w, v, tau)
            partial = qcore.spectral_unitary(w[rows, seg], v[rows, seg], step)
        mul = _stacked_product(h0.shape[0])
        yield mul(partial, _chain_prefix(full, seg, mul))


def _noise_snapshots(process, h0, x0, times, n_paths, seed, dt):
    """U_p(t) x0 U_p(t)^dag at every requested time, yielded block by block as
    (paths, times, d, d)."""
    if process.coupling.shape != h0.shape:
        raise ValueError(f"noise coupling dimension {process.coupling.shape[0]} != "
                         f"base Hamiltonian dimension {h0.shape[0]}")
    times = qcore.time_grid(times)
    dt = _default_dt(process, times) if dt is None else dt
    mul = _stacked_product(h0.shape[0])
    for u in _path_unitaries(process, h0, times, n_paths, seed, dt):
        # u x0 as one GEMM over the stacked rows: a broadcast matmul loops
        # over the stack and took about 1.7 times as long
        yield mul((u.reshape(-1, x0.shape[0]) @ x0).reshape(u.shape), u.conj().swapaxes(-1, -2))


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
    pairings = (quantumness.trace_pairing(rho0, x)[..., None, None]
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

    def standard_waits(self, rng, out):
        """Fill ``out`` with exponential or gamma waits in units of 1 / rate,
        drawn in order from ``rng``; a sized draw gives the values of as many
        single draws.  Deterministic waiting draws nothing and has none."""
        if self.family == "exponential":
            return rng.standard_exponential(out=out)
        return rng.standard_gamma(self.shape, out=out)

    def sample(self, rng, size=None):
        if self.family == "deterministic":
            return np.full(size, self.period) if size is not None else self.period
        # the scale times the standard draw, as rng.exponential and rng.gamma compute it
        waits = (1.0 / self.rate) * self.standard_waits(rng, np.empty(1 if size is None else size))
        return float(waits[0]) if size is None else waits

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
    def _vec_basis(self):
        """P = kron(conj V, V), which maps eigenbasis coordinates to vec form, and P^dag."""
        p = qcore.superoperator([self._eig[1]])
        return p, p.conj().T

    @cached_property
    def clock(self):
        """The renewal model as a ``LindbladModel`` on clock (x) system, built once.

        A wait of k exponential stages of rate r (k = 1 for exponential
        waiting, k = shape for gamma waiting with an integer shape) gives the
        model on C^k (x) C^d with Hamiltonian I_k (x) H and, each at rate r,
        the jumps |j+1><j| (x) I for j < k and |1><k| (x) T for each Kraus
        operator T of the collision.  Its marginal from the clock state |1><1|
        is the renewal chain.  Deterministic waiting and a non-integer gamma
        shape have no finite clock and raise ValueError.
        """
        w = self.waiting
        k = _clock_stages(w)
        if k is None:
            shape = f" of shape {w.shape}" if w.family == "gamma" else ""
            raise ValueError(f"{w.family} waiting{shape} has no phase-type clock")
        stage = np.eye(k)
        jumps = [tensor_product(np.outer(stage[j + 1], stage[j]), np.eye(self.dim))
                 for j in range(k - 1)]
        jumps += [tensor_product(np.outer(stage[0], stage[k - 1]), t) for t in self.collision]
        return dynamics.LindbladModel(tensor_product(stage, self.free_hamiltonian), jumps,
                                      rates=np.full(len(jumps), w.rate))

    @cached_property
    def _collision_eig(self):
        """P^dag E P, P = kron(conj V, V): the collision superoperator in the
        eigenbasis of H, read by the series and the Monte Carlo chain."""
        vecs = self._eig[1]
        # the Kraus operators T' = V^dag T V in the eigenbasis give P^dag E P
        e_eig = qcore.superoperator(vecs.conj().T @ np.array(self.collision) @ vecs)
        e_eig.setflags(write=False)
        return e_eig


def _clock_stages(waiting):
    """Stages of the phase-type clock of a waiting law: 1 for exponential
    waiting, the shape of gamma waiting with an integer shape, else None."""
    if waiting.family == "exponential":
        return 1
    if waiting.family == "gamma" and float(waiting.shape).is_integer():
        return int(waiting.shape)
    return None


def _clock_chain(model, x0, times):
    """C_t[x0] = Tr_clock e^{tL}[|1><1| (x) x0] through ``model.clock``, as (times, d, d)."""
    clock = model.clock
    start = np.zeros((clock.dim // model.dim,) * 2)
    start[0, 0] = 1.0
    return dynamics.reduced_series(clock, start, x0, times)


def _series_chain(model, x0, times, step=None):
    """Deterministic renewal average of the collision chain applied to x0,
    the series route of waits without a phase-type clock.

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
    dd = model.dim ** 2
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
    energies = model._eig[0]
    p, p_dag = model._vec_basis
    ph = _phases(energies, grid).T
    e_eig = model._collision_eig
    c = wk * ph
    # (I - h/2 K_0)^-1 P^dag E P; K_0 = w_0 E, since the free map at 0 is I
    inv_e = np.linalg.solve(np.eye(dd) - 0.5 * step * wk[0] * e_eig, e_eig)
    v0 = p_dag @ vec(x0)
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
    return list(unvec(result, model.dim))


def _hit_slack(waiting):
    """How far past a time a collision may fall and still count there:
    1e-12 period for the exact hits of deterministic waiting, else 0."""
    return 1e-12 * waiting.period if waiting.family == "deterministic" else 0.0


def _collision_times(waiting, t_max, seed, paths):
    """Collision times of every path of a block, as (len(paths), m).

    Row i holds the collisions of path paths[i] up to t_max (plus the hit
    slack), then later arrivals; m is the most collisions of any row.
    Deterministic waiting draws nothing: every row is the exact hits
    k period.  Otherwise the waits are ``WaitingTime.standard_waits`` scaled
    by 1 / rate in ``_renewal_block``, so the times are bitwise those of
    adding one ``WaitingTime.sample`` at a time.
    """
    if waiting.family == "deterministic":
        n = int(np.floor((t_max + _hit_slack(waiting)) / waiting.period))
        return np.broadcast_to(waiting.period * np.arange(1, n + 1), (len(paths), n))
    _, _, elapsed = _renewal_block(seed, paths, waiting.standard_waits, 0, waiting, t_max)
    return elapsed[:, :(elapsed <= t_max).sum(axis=1).max()]


def _phases(energies, u):
    """vec(lam lam^dag) with lam = exp(-i e u), batched over the axes of u."""
    lam = np.exp(-1j * np.multiply.outer(u, energies))
    # the transpose of a C-ordered product, which vec reads without a copy
    return vec(np.swapaxes(lam.conj()[..., :, None] * lam[..., None, :], -1, -2))


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
    energies = model._eig[0]
    e_eig = model._collision_eig
    p, p_dag = model._vec_basis
    z0 = p_dag @ vec(x0)
    slack = _hit_slack(model.waiting)
    for block in _path_blocks(n_paths):
        events = _collision_times(model.waiting, t_max, seed, block)
        # time of the j-th collision, 0 for j = 0
        hit = np.concatenate([np.zeros((len(block), 1)), events], axis=1)
        z = np.empty(hit.shape + z0.shape, dtype=complex)
        z[:, 0] = z0
        for j in range(1, hit.shape[1]):
            z[:, j] = (_phases(energies, hit[:, j] - hit[:, j - 1]) * z[:, j - 1]) @ e_eig.T
        rows = np.arange(len(block))[:, None]
        # collisions counted at each time: a hit counts from the first time t with hit <= t + slack
        first = np.searchsorted(times + slack, events, side="left")
        span = times.size + 1
        counts = np.bincount((rows * span + first).ravel(), minlength=len(block) * span)
        applied = counts.reshape(-1, span).cumsum(axis=1)[:, :-1]
        y = _phases(energies, times - hit[rows, applied]) * z[rows, applied]
        yield unvec((p @ y[..., None])[..., 0], model.dim)


def _monte_carlo_chain(model, x0, times, n_paths, seed):
    """Average of the random collision chain applied to x0.

    Returns (means, stderr) with stderr the aggregate elementwise
    standard-error scale sqrt(sum_ij Var / n_paths).  ``times`` pass the
    ``qcore.time_grid`` gate.
    """
    times = qcore.time_grid(times)
    return _ensemble_moments(_chain_snapshots(model, x0, times, n_paths, seed))


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
        return list(next(_chain_snapshots(model, x0, times, 1, 0))[0])
    if mode == "series":
        if _clock_stages(model.waiting) is None:
            return _series_chain(model, x0, times, step=step)
        return list(_clock_chain(model, x0, times))
    return _monte_carlo_chain(model, x0, times, n_paths, seed)[0]


def collisional_states(model, rho0, times, mode="series", n_paths=None, seed=None, step=None):
    """States on a time grid, by deterministic series or Monte Carlo."""
    mats = _chain(model, state_matrix(rho0, model.dim), times, mode, n_paths, seed, step)
    # the trapezoid's snapshots (non-integer gamma shapes) carry its quadrature error
    return [QuantumState(m, tol=2e-4) for m in mats]


def collisional_q(model, rho0, times, mode="series", n_paths=None, seed=None,
                  step=None, tail_tol=None):
    """Quantumness series of the collisional dynamics.

    Uses the trace pairing: the dual-chain trace of rho0 equals
    Tr[rho0 C_t[I]] with C_t the forward chain applied to the identity,
    so a single chain evaluation serves the whole series.

    Series mode takes one route per waiting law.  Exponential and
    integer-shape gamma waits run the exact phase-type clock
    (``CollisionalModel.clock``), whose value at a time depends on the
    other requested times at roundoff only; a gamma wait of non-integer
    shape runs the product-trapezoid renewal solve on a grid of spacing
    ``step`` (default mean wait / 100), with its second-order quadrature
    error; deterministic waiting runs its one exact path, as in Monte
    Carlo mode.  ``step`` is validated for every law and read by the
    trapezoid only.  ``tail_tol`` is accepted and ignored: no route
    truncates a tail of collision counts.
    """
    rho0 = state_matrix(rho0, model.dim)
    eye = np.eye(model.dim, dtype=complex)
    values = quantumness.trace_pairing(rho0, _chain(model, eye, times, mode, n_paths, seed, step))
    return quantumness.QuantumnessSeries(times, values, model.dim)
