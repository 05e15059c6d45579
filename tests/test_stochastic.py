import re

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envq import dynamics, qcore, quantumness, stochastic
from envq.qcore import QuantumState


def unitary(angle, axis):
    return qcore.matrix_exponential(-1j * angle * axis)


def free_unitary(model, t):
    """exp(-i t H) of the model's free Hamiltonian, batched over the axes of t."""
    w, v = np.linalg.eigh(model.free_hamiltonian)
    return (v * np.exp(-1j * np.multiply.outer(t, w))[..., None, :]) @ v.conj().T


def apply_collision(model, x):
    """The Kraus sum of the model's collision channel applied to x."""
    return sum(t @ x @ t.conj().T for t in model.collision)


def collision_superoperator(model):
    """sum over the Kraus operators T of kron(conj T, T), the collision on vec(x)."""
    return sum(np.kron(t.conj(), t) for t in model.collision)


# ---------------------------------------------------------------------------
# noise paths

def test_noise_process_validation():
    with pytest.raises(ValueError, match="unknown noise family"):
        stochastic.NoiseProcess("pink", 1.0, 0.5, qcore.sigma_z)
    with pytest.raises(ValueError, match="nonnegative"):
        stochastic.NoiseProcess("gaussian-white", 1.0, -0.5, qcore.sigma_z)
    # a positive one used to be ignored, so the run was white noise regardless
    with pytest.raises(ValueError, match="applies to the colored families only, not gaussian-white"):
        stochastic.NoiseProcess("gaussian-white", 1.0, 0.5, qcore.sigma_z)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        stochastic.NoiseProcess("gaussian-white", np.nan, 0.0, qcore.sigma_z)
    with pytest.raises(ValueError, match="correlation_time must be finite"):
        stochastic.NoiseProcess("telegraph", 1.0, np.inf, qcore.sigma_z)
    with pytest.raises(ValueError, match="non-finite"):
        stochastic.NoiseProcess("telegraph", 1.0, 0.5, np.diag([np.nan, 1.0]))


def test_zero_amplitude_path_is_zero():
    proc = stochastic.NoiseProcess("gaussian-white", 0.0, 0.0, qcore.sigma_x)
    path = stochastic.sample_noise_path(proc, 2.0, 0.01, seed=1)
    assert np.abs(path.values).max() == 0.0


def test_white_path_has_no_zero_length_last_segment():
    # 0.14 / 0.02 rounds to 7.000000000000001, whose ceiling used to add an
    # eighth segment of length 0.0, valued -inf after a divide-by-zero warning
    proc = stochastic.NoiseProcess("gaussian-white", 0.5, 0.0, qcore.sigma_x)
    path = stochastic.sample_noise_path(proc, 0.14, 0.02, 1, 0)
    assert path.durations.size == 7 and path.durations.min() > 0.0
    assert np.isfinite(path.values).all()
    assert path.t_max == pytest.approx(0.14, abs=1e-15)
    # the draws are those of any longer path on the same stream, step for step
    longer = stochastic.sample_noise_path(proc, 0.15, 0.02, 1, 0)
    assert np.array_equal(path.durations[:6], longer.durations[:6])
    assert np.array_equal(path.values[:6], longer.values[:6])


def test_same_seed_bitwise_identical():
    proc = stochastic.NoiseProcess("telegraph", 1.0, 0.5, qcore.sigma_z)
    a = stochastic.sample_noise_path(proc, 3.0, 0.05, seed=42, path_index=7)
    b = stochastic.sample_noise_path(proc, 3.0, 0.05, seed=42, path_index=7)
    assert np.array_equal(a.durations, b.durations)
    assert np.array_equal(a.values, b.values)
    c = stochastic.sample_noise_path(proc, 3.0, 0.05, seed=43, path_index=7)
    assert not np.array_equal(a.values, c.values) or not np.array_equal(a.durations, c.durations)


def test_colored_step_rule():
    proc = stochastic.NoiseProcess("ornstein-uhlenbeck", 1.0, 0.5, qcore.sigma_x)
    with pytest.raises(ValueError, match="correlation_time"):
        stochastic.sample_noise_path(proc, 2.0, 0.2, seed=1)


def test_ou_stationary_variance():
    # 1e5 path values; effective samples spaced well past the correlation time
    amp, tau = 1.3, 0.5
    proc = stochastic.NoiseProcess("ornstein-uhlenbeck", amp, tau, qcore.sigma_x)
    chunks = []
    for p in range(1000):
        path = stochastic.sample_noise_path(proc, 5.0, tau / 10.0, seed=11, path_index=p)
        chunks.append(path.values)
    values = np.concatenate(chunks)
    assert values.size >= 1e5
    n_eff = 1000 * 5.0 / tau  # one independent sample per correlation time
    stderr = amp ** 2 * np.sqrt(2.0 / n_eff)
    assert abs(values.var() - amp ** 2) < 3.0 * stderr


def reference_ou_values(process, t_max, dt, seed, path_index):
    """Step-by-step Ornstein-Uhlenbeck recursion the filtered sampler must reproduce."""
    rng = stochastic.path_rng(seed, path_index)
    a = process.amplitude
    n = int(np.ceil(t_max / dt))
    durations = np.full(n, dt)
    durations[-1] = t_max - dt * (n - 1)
    decay = np.exp(-durations / process.correlation_time)
    x = a * rng.standard_normal()
    z = rng.standard_normal(n)
    values = np.empty(n)
    for k in range(n):
        values[k] = x
        x = x * decay[k] + a * np.sqrt(1.0 - decay[k] ** 2) * z[k]
    return values


@pytest.mark.parametrize("t_max, dt", [(3.0, 0.025), (2.0, 0.0297), (0.01, 0.05)],
                         ids=["whole-steps", "short-last-step", "one-step"])
def test_ou_sampler_matches_step_loop(t_max, dt):
    proc = stochastic.NoiseProcess("ornstein-uhlenbeck", 1.3, 0.5, qcore.sigma_x)
    for p in range(20):
        path = stochastic.sample_noise_path(proc, t_max, dt, seed=17, path_index=p)
        assert np.array_equal(path.values, reference_ou_values(proc, t_max, dt, 17, p))


def reference_telegraph_path(process, t_max, seed, path_index):
    """One switch at a time: the level of the first uniform draw, then
    exponential waits, the last cut at t_max."""
    rng = stochastic.path_rng(seed, path_index)
    rate = 0.5 / process.correlation_time
    sign = 1.0 if rng.random() < 0.5 else -1.0
    steps, values = [], []
    elapsed = 0.0
    while elapsed < t_max:
        step = min(rng.exponential(1.0 / rate), t_max - elapsed)
        steps.append(step)
        values.append(sign * process.amplitude)
        sign = -sign
        elapsed += step
    return np.asarray(steps), np.asarray(values)


def reference_noise_path(process, t_max, dt, seed, path_index):
    """Durations and values of one path, drawn one path at a time."""
    if process.family == "telegraph":
        return reference_telegraph_path(process, t_max, seed, path_index)
    n = int(np.ceil(t_max / dt))
    durations = np.full(n, dt)
    durations[-1] = t_max - dt * (n - 1)
    if process.family == "ornstein-uhlenbeck":
        return durations, reference_ou_values(process, t_max, dt, seed, path_index)
    z = stochastic.path_rng(seed, path_index).standard_normal(n)
    return durations, process.amplitude * z / np.sqrt(durations)


BLOCK_PATHS = [1, stochastic.PATH_BLOCK - 1, stochastic.PATH_BLOCK, stochastic.PATH_BLOCK + 1, 300]


@pytest.mark.parametrize("family", stochastic.NOISE_FAMILIES)
def test_block_sampler_matches_one_path_at_a_time(family):
    # t_max = 3 is 120 whole steps; telegraph paths at tau_c = 0.5 switch
    # about three times, and some outgrow the first chunk of 8 waits
    proc = stochastic.NoiseProcess(family, 1.3, 0.0 if family == "gaussian-white" else 0.5,
                                   qcore.sigma_x)
    t_max, dt, seed = 3.0, 0.025, 23
    sample = stochastic._noise_sampler(proc, t_max, dt)
    refs = [reference_noise_path(proc, t_max, dt, seed, p) for p in range(max(BLOCK_PATHS))]
    longest = 0
    for n_paths in BLOCK_PATHS:
        for block in stochastic._path_blocks(n_paths):
            durations, values, lengths = sample(seed, block)
            assert durations.shape == values.shape == (len(block), lengths.max())
            for row, p in enumerate(block):
                ref_durations, ref_values = refs[p]
                n = lengths[row]
                assert np.array_equal(durations[row, :n], ref_durations)
                assert np.array_equal(values[row, :n], ref_values)
                # padding: zero-length segments of value 0
                assert not durations[row, n:].any() and not values[row, n:].any()
                longest = max(longest, n)
                path = stochastic.sample_noise_path(proc, t_max, dt, seed, p)
                assert np.array_equal(path.durations, ref_durations)
                assert np.array_equal(path.values, ref_values)
    if family == "telegraph":
        assert longest > int(2.0 * t_max * 0.5 / proc.correlation_time) + 2


def test_white_noise_integral_variance():
    amp = 0.8
    proc = stochastic.NoiseProcess("gaussian-white", amp, 0.0, qcore.sigma_z)
    integrals = []
    for p in range(4000):
        path = stochastic.sample_noise_path(proc, 1.0, 0.02, seed=5, path_index=p)
        integrals.append(np.dot(path.durations, path.values))
    var = np.asarray(integrals).var()
    stderr = amp ** 2 * np.sqrt(2.0 / 4000)
    assert abs(var - amp ** 2) < 4.0 * stderr


def test_telegraph_levels_and_rate():
    amp, tau = 1.1, 0.4
    proc = stochastic.NoiseProcess("telegraph", amp, tau, qcore.sigma_z)
    t_max = 8.0
    n_flips = 0
    n_paths = 400
    for p in range(n_paths):
        path = stochastic.sample_noise_path(proc, t_max, 0.01, seed=3, path_index=p)
        assert set(np.round(np.abs(path.values), 12)) == {amp}
        assert np.all(np.diff(np.sign(path.values)) != 0)
        n_flips += len(path.durations) - 1
    # flips are Poisson with rate 1/(2 tau); completed-segment means would
    # be censoring-biased, counts are not
    expect = n_paths * t_max / (2.0 * tau)
    assert abs(n_flips - expect) < 4.0 * np.sqrt(expect)


SEEDS = [0, 1, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1]
PATHS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 64 - 1]
DRAWS = (lambda g: g.random(3), lambda g: g.integers(0, 2 ** 40, size=2),
         lambda g: g.standard_normal(5), lambda g: g.exponential(size=2))


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32+1", "2^63", "2^64-1"])
def test_path_stream_is_philox_keyed_by_seed_and_path(seed):
    def reference(p):
        return np.random.Generator(np.random.Philox(key=seed + 2 ** 64 * p))

    for p in PATHS:
        rng, ref = stochastic.path_rng(seed, p), reference(p)
        for draw in DRAWS:
            assert np.array_equal(draw(rng), draw(ref))
    # a block of paths gives each path the same stream as path_rng does
    for p, rng in zip(PATHS, stochastic._path_streams(seed, PATHS)):
        ref = reference(p)
        for draw in DRAWS:
            assert np.array_equal(draw(rng), draw(ref))


@pytest.mark.parametrize("seed, error", [
    (2.5, TypeError), (np.float64(3.0), TypeError), ("7", TypeError),
    (-1, ValueError), (2 ** 64, ValueError),
])
def test_path_stream_seed_is_checked(seed, error):
    match = re.escape(f"seed must be in [0, 2**64), got {seed}") if error is ValueError else None
    with pytest.raises(error, match=match):
        stochastic.path_rng(seed, 0)
    proc = stochastic.NoiseProcess("telegraph", 1.0, 0.5, qcore.sigma_x)
    with pytest.raises(error, match=match):
        stochastic.stochastic_q(proc, qcore.sigma_z, QuantumState.maximally_mixed(2),
                                [0.0, 0.5], 4, seed)


def test_path_index_must_be_an_integer():
    # int() used to truncate it: path 2.5 drew path 2's stream
    with pytest.raises(TypeError):
        stochastic.path_rng(0, 2.5)
    proc = stochastic.NoiseProcess("telegraph", 1.0, 0.5, qcore.sigma_x)
    with pytest.raises(TypeError):
        stochastic.sample_noise_path(proc, 1.0, 0.05, seed=1, path_index=2.5)
    assert stochastic.path_rng(0, np.int64(2)).random() == stochastic.path_rng(0, 2).random()


# ---------------------------------------------------------------------------
# stochastic Hamiltonians

def test_per_path_series_is_flat():
    rng = np.random.default_rng(0)
    h0 = 0.5 * qcore.sigma_z + 0.2 * qcore.sigma_y
    rho0 = qcore.random_state(2, rng)
    times = np.linspace(0.0, 2.5, 6)
    for family, tc in (("gaussian-white", 0.0), ("ornstein-uhlenbeck", 0.4), ("telegraph", 0.4)):
        proc = stochastic.NoiseProcess(family, 1.4, tc, qcore.sigma_x)
        series, stderr = stochastic.stochastic_q(proc, h0, rho0, times, 10, seed=9)
        assert np.abs(series.values - 1.0).max() < 1e-12
        assert stderr.max() < 1e-12


def test_telegraph_thousand_paths():
    proc = stochastic.NoiseProcess("telegraph", 1.0, 0.5, qcore.sigma_x)
    series, _ = stochastic.stochastic_q(
        proc, 0.5 * qcore.sigma_z, QuantumState.maximally_mixed(2),
        np.linspace(0.0, 2.0, 5), 1000, seed=17,
    )
    assert np.abs(series.values - 1.0).max() < 1e-12


def test_white_noise_dephasing_matches_lindblad():
    # commuting coupling: ensemble average equals the dephasing generator
    # with rate amplitude^2
    amp, omega = 0.6, 1.0
    h0 = 0.5 * omega * qcore.sigma_z
    proc = stochastic.NoiseProcess("gaussian-white", amp, 0.0, qcore.sigma_z)
    rho0 = QuantumState.pure(qcore.bloch_vector_state(np.pi / 2, 0.0))
    times = np.linspace(0.4, 2.0, 5)
    states, stderr = stochastic.stochastic_average_state(
        proc, h0, rho0, times, 4000, seed=23, dt=0.01
    )
    lind = dynamics.LindbladModel(h0, [qcore.sigma_z], rates=[amp ** 2])
    g = dynamics.liouvillian(lind)
    for k, t in enumerate(times):
        exact = dynamics.propagate(g, rho0.matrix, t)
        assert qcore.trace_distance(states[k], exact) <= 3.0 * stderr[k]


def reference_path_unitaries(h0, coupling, path, times):
    """Per-path, per-segment expm loop the batched engine must reproduce."""
    out = np.empty((len(times),) + h0.shape, dtype=complex)
    u = np.eye(h0.shape[0], dtype=complex)
    k = 0
    start = 0.0
    eps = 1e-12 * path.t_max
    for dur, x in zip(path.durations, path.values):
        while k < len(times) and times[k] <= start + dur + eps:
            out[k] = qcore.matrix_exponential(-1j * (times[k] - start) * (h0 + x * coupling)) @ u
            k += 1
        u = qcore.matrix_exponential(-1j * dur * (h0 + x * coupling)) @ u
        start += dur
    assert k == len(times)
    return out


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def test_segment_slack_is_relative_to_the_path_length():
    # OU noise on a clock 1e9 times faster: a time 5e-13 after the fifth
    # segment end lies 1 % into the sixth segment and evolves on its Hamiltonian
    s = 1e9
    h0 = s * (0.45 * qcore.sigma_z + 0.3 * qcore.sigma_x)
    proc = stochastic.NoiseProcess("ornstein-uhlenbeck", 1.3 * s, 0.5 / s, qcore.sigma_y)
    dt, t_max, seed = 0.05 / s, 1.0 / s, 3
    path = stochastic.sample_noise_path(proc, t_max, dt, seed)
    times = np.array([np.cumsum(path.durations)[4] + 5e-13, t_max])
    u = np.eye(2)
    for dur, x in zip(path.durations[:5], path.values[:5]):
        u = scipy.linalg.expm(-1j * dur * (h0 + x * qcore.sigma_y)) @ u
    expected = scipy.linalg.expm(-1j * 5e-13 * (h0 + path.values[5] * qcore.sigma_y)) @ u
    got = next(stochastic._path_unitaries(proc, h0, times, 1, seed, dt))[0]
    assert np.abs(got[0] - expected).max() < 1e-12
    assert np.abs(got - reference_path_unitaries(h0, qcore.sigma_y, path, times)).max() < 1e-12


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e6])
def test_unitary_2x2_matches_expm(scale):
    rng = np.random.default_rng(14)
    h0, coupling = scale * random_hermitian(rng, 2), scale * random_hermitian(rng, 2)
    x, t = rng.normal(size=40), rng.uniform(0.0, 3.0, size=40)
    got = stochastic._unitary_2x2(h0, coupling, x, t)
    for k in range(x.size):
        h = h0 + x[k] * coupling
        # scaling and squaring leaves expm an error of order eps t ||H||
        bound = 1e-12 * max(1.0, t[k] * np.linalg.norm(h, 2))
        assert np.abs(got[k] - scipy.linalg.expm(-1j * t[k] * h)).max() <= bound


def test_unitary_2x2_edge_cases():
    rng = np.random.default_rng(15)
    h0, coupling = random_hermitian(rng, 2), random_hermitian(rng, 2)
    x = np.array([0.0, 0.8, -2.5])
    # t = 0, the zero-length padding segments, is the exact identity
    assert np.array_equal(stochastic._unitary_2x2(h0, coupling, x, 0.0),
                          np.broadcast_to(np.eye(2), (3, 2, 2)))
    # t r = 1e9: sine and cosine of one argument keep U unitary
    h = h0 + x[1] * coupling
    half_gap = 0.5 * np.ptp(np.linalg.eigvalsh(h))
    u = stochastic._unitary_2x2(h0, coupling, x[1], 1e9 / half_gap)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-14
    # H proportional to I (r = 0): sin(t r)/r reads t, and U is the phase alone
    t = np.array([0.0, 0.7, 40.0])
    u = stochastic._unitary_2x2(0.3 * np.eye(2), -1.1 * np.eye(2), x, t)
    phase = np.exp(-1j * t * (0.3 - 1.1 * x))
    assert np.abs(u - phase[:, None, None] * np.eye(2)).max() <= 1e-15


def noise_setup(family, case):
    """Noise and base Hamiltonian: qubit cases take the closed-form segment
    unitaries, the qutrit case the batched eigh."""
    tc = 0.0 if family == "gaussian-white" else 0.5
    if case == "commuting":
        h0, coupling = 0.45 * qcore.sigma_z, qcore.sigma_z
    elif case == "non-commuting":
        h0 = 0.45 * qcore.sigma_z + 0.3 * qcore.sigma_x
        coupling = np.cos(0.7) * qcore.sigma_x + np.sin(0.7) * qcore.sigma_y
    else:
        rng = np.random.default_rng(12)
        h0, coupling = 0.5 * random_hermitian(rng, 3), random_hermitian(rng, 3)
    return stochastic.NoiseProcess(family, 1.3, tc, coupling), h0


@pytest.mark.parametrize("case", ["commuting", "non-commuting", "qutrit"])
@pytest.mark.parametrize("family", stochastic.NOISE_FAMILIES)
def test_path_engine_matches_segment_loop(family, case, monkeypatch):
    # blocks of 3 over 7 paths: unequal padding within and across blocks
    monkeypatch.setattr(stochastic, "PATH_BLOCK", 3)
    proc, h0 = noise_setup(family, case)
    rho0 = qcore.random_state(h0.shape[0], np.random.default_rng(8)).matrix
    dt, t_max, n_paths, seed = 0.05, 1.0, 7, 32  # telegraph paths of 1 to 4 segments
    first = stochastic.sample_noise_path(proc, t_max, dt, seed, path_index=0)
    assert first.durations.size > 1
    boundary = np.cumsum(first.durations)[0]  # on a segment end of path 0
    times = np.array(sorted([0.0, 0.123, 0.35, boundary, 0.61, t_max]))
    paths = [stochastic.sample_noise_path(proc, t_max, dt, seed, path_index=p)
             for p in range(n_paths)]
    ref = np.array([reference_path_unitaries(h0, proc.coupling, path, times) for path in paths])
    got = np.concatenate(list(stochastic._path_unitaries(proc, h0, times, n_paths, seed, dt)))
    assert np.abs(got - ref).max() < 1e-12
    # both reductions against the reference unitaries
    series, stderr = stochastic.stochastic_q(proc, h0, rho0, times, n_paths, seed, dt=dt)
    q_ref = np.trace(np.swapaxes(ref.conj(), -1, -2) @ rho0 @ ref, axis1=-2, axis2=-1).real
    assert np.abs(series.values - q_ref.mean(axis=0)).max() < 1e-12
    assert np.abs(stderr - q_ref.std(axis=0, ddof=1) / np.sqrt(n_paths)).max() < 1e-12
    states, stderr = stochastic.stochastic_average_state(proc, h0, rho0, times, n_paths, seed,
                                                         dt=dt)
    r = ref @ rho0 @ np.swapaxes(ref.conj(), -1, -2)
    mean = r.mean(axis=0)
    var = np.clip((np.abs(r) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0.0, None)
    assert np.abs(np.array(states) - mean).max() < 1e-12
    # squared: the square root amplifies roundoff where the spread vanishes (t = 0)
    assert np.abs(stderr ** 2 - var.sum(axis=(1, 2)) / (n_paths - 1)).max() < 1e-12
    # the same seed gives the same bits
    again, _ = stochastic.stochastic_average_state(proc, h0, rho0, times, n_paths, seed, dt=dt)
    assert all(np.array_equal(a, b) for a, b in zip(states, again))


@pytest.mark.parametrize("n_segments", [1, stochastic.SCAN_BLOCK - 1, stochastic.SCAN_BLOCK,
                                        stochastic.SCAN_BLOCK + 1, 3 * stochastic.SCAN_BLOCK + 5])
@pytest.mark.parametrize("case", ["non-commuting", "qutrit"])
def test_prefix_scan_block_edges(case, n_segments):
    proc, h0 = noise_setup("ornstein-uhlenbeck", case)
    dt, n_paths, seed = 1.0 / 32.0, 3, 41  # t_max = n_segments dt exactly
    t_max = n_segments * dt
    edges = dt * stochastic.SCAN_BLOCK * np.arange(1, n_segments // stochastic.SCAN_BLOCK + 1)
    # segment 0, each run boundary and the segment after it, and the last segment
    times = np.unique(np.concatenate([[0.0, 0.5 * dt], edges, edges + 0.5 * dt,
                                      [t_max - 0.5 * dt, t_max]]))
    times = times[times <= t_max]
    paths = [stochastic.sample_noise_path(proc, t_max, dt, seed, path_index=p)
             for p in range(n_paths)]
    assert all(path.durations.size == n_segments for path in paths)
    ref = np.array([reference_path_unitaries(h0, proc.coupling, path, times) for path in paths])
    got = next(stochastic._path_unitaries(proc, h0, times, n_paths, seed, dt))
    assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("case", ["non-commuting", "qutrit"])
def test_prefix_scan_over_ragged_paths(case):
    # telegraph paths of 39 to 56 segments: the shorter ones are padded
    # across run boundaries that the longer ones carry through
    base, h0 = noise_setup("telegraph", case)
    proc = stochastic.NoiseProcess("telegraph", 1.3, 0.02, base.coupling)
    dt, t_max, n_paths, seed = 0.002, 2.0, 6, 4
    times = np.linspace(0.0, t_max, 23)
    paths = [stochastic.sample_noise_path(proc, t_max, dt, seed, path_index=p)
             for p in range(n_paths)]
    sizes = [path.durations.size for path in paths]
    assert min(sizes) < 3 * stochastic.SCAN_BLOCK < max(sizes)
    ref = np.array([reference_path_unitaries(h0, proc.coupling, path, times) for path in paths])
    got = next(stochastic._path_unitaries(proc, h0, times, n_paths, seed, dt))
    assert np.abs(got - ref).max() < 1e-12


def test_mul_2x2_matches_matmul():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(5, 7, 2, 2)) + 1j * rng.normal(size=(5, 7, 2, 2))
    b = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    assert np.abs(stochastic._mul_2x2(a, b) - a @ b).max() < 1e-14
    bt = np.swapaxes(b, -1, -2)  # a strided view, as _dagger gives
    assert np.abs(stochastic._mul_2x2(b, bt) - b @ bt).max() < 1e-14


@pytest.mark.parametrize("case", ["non-commuting", "qutrit"])
@pytest.mark.parametrize("family", stochastic.NOISE_FAMILIES)
def test_noise_time_does_not_depend_on_other_times(family, case):
    # a time requested alone samples paths that end there; within the grid
    # the same paths run on to t = 2, past run boundaries of the prefix scan
    proc, h0 = noise_setup(family, case)
    rho0 = qcore.random_state(h0.shape[0], np.random.default_rng(9)).matrix
    times, dt = np.linspace(0.0, 2.0, 11), 0.02
    grid, _ = stochastic.stochastic_average_state(proc, h0, rho0, times, 7, 3, dt=dt)
    for k, t in enumerate(times):
        alone, _ = stochastic.stochastic_average_state(proc, h0, rho0, [t], 7, 3, dt=dt)
        if family == "gaussian-white":
            # the last segment of a path lasts t_max - dt (n - 1), to roundoff dt
            assert np.abs(alone[0] - grid[k]).max() < 1e-15
        else:
            assert np.array_equal(alone[0], grid[k])


def test_monte_carlo_rejects_empty_ensemble():
    proc, h0 = noise_setup("telegraph", "non-commuting")
    rho0 = QuantumState.maximally_mixed(2)
    times = np.linspace(0.0, 1.0, 3)
    for fn in (stochastic.stochastic_q, stochastic.stochastic_average_state):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            fn(proc, h0, rho0, times, 0, seed=1)
    for model in (exp_model(), deterministic_model(0.6)):
        for n_paths in (0, -1):
            with pytest.raises(ValueError, match="n_paths must be at least 1"):
                stochastic.collisional_q(model, rho0, times, mode="monte-carlo",
                                         n_paths=n_paths, seed=1)


@pytest.mark.parametrize("route", ["stochastic_q", "stochastic_average_state",
                                   "collisional_q", "collisional_states"])
def test_rho0_of_another_dimension_is_rejected(route):
    # a 2x2 rho0 on a 4x4 system: stochastic_average_state used to return 4x4
    # "states" of trace 2, the other routes failed inside numpy
    h = qcore.tensor_product(qcore.sigma_z, qcore.sigma_x)
    process = stochastic.NoiseProcess("gaussian-white", 0.5, 0.0, h)
    model = stochastic.CollisionalModel(h, [np.eye(4)], stochastic.WaitingTime("exponential", rate=1.0))
    rho0, times = QuantumState.maximally_mixed(2), np.linspace(0.0, 1.0, 3)
    run = {
        "stochastic_q": lambda: stochastic.stochastic_q(process, h, rho0, times, 4, seed=1),
        "stochastic_average_state": lambda: stochastic.stochastic_average_state(
            process, h, rho0, times, 4, seed=1),
        "collisional_q": lambda: stochastic.collisional_q(model, rho0, times),
        "collisional_states": lambda: stochastic.collisional_states(model, rho0, times),
    }[route]
    with pytest.raises(ValueError, match="rho0 dimension 2 != model dimension 4"):
        run()


@pytest.mark.parametrize("times, message", [
    ([0.0, -1.0], "times must be finite and non-negative, got -1.0"),
    ([0.5, 0.2], "times must be ascending: 0.2 follows 0.5"),
    ([0.0, np.nan], "times must be finite and non-negative, got nan"),
    ([[0.0, 0.5]], r"times must be a 1d sequence, got shape \(1, 2\)"),
], ids=["negative", "descending", "nan", "2d"])
@pytest.mark.parametrize("route", [stochastic.stochastic_q, stochastic.stochastic_average_state])
def test_noise_routes_validate_the_time_grid(route, times, message):
    # stochastic_q at t = -1 used to return a value and a descending grid ran;
    # NaN failed converting to an integer and a 2-d grid inside a broadcast
    process = stochastic.NoiseProcess("ornstein-uhlenbeck", 0.5, 0.4, qcore.sigma_x)
    with pytest.raises(ValueError, match=message):
        route(process, qcore.sigma_z, QuantumState.maximally_mixed(2), times, 4, seed=1)


@pytest.mark.parametrize("times, message", [
    ([1.0, 0.5], "times must be ascending: 0.5 follows 1.0"),
    ([-1.0, 0.5], "times must be finite and non-negative, got -1.0"),
    ([np.nan, 1.0], "times must be finite and non-negative, got nan"),
], ids=["descending", "negative", "nan"])
def test_monte_carlo_chain_validates_the_time_grid(times, message):
    # a descending or negative grid used to run to traces of 2, and NaN
    # failed converting to an integer inside numpy
    with pytest.raises(ValueError, match=message):
        stochastic._monte_carlo_chain(exp_model(), np.eye(2, dtype=complex), times, 8, seed=1)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("family", stochastic.NOISE_FAMILIES)
@pytest.mark.parametrize("route", [stochastic.stochastic_q, stochastic.stochastic_average_state])
def test_noise_routes_reject_a_bad_dt(route, family, dt):
    # NaN used to run telegraph noise to Q = 1 and fail converting to an
    # integer for the other families, as did inf for white noise
    proc, h0 = noise_setup(family, "non-commuting")
    with pytest.raises(ValueError, match=re.escape(f"dt must be finite and positive, got {dt}")):
        route(proc, h0, QuantumState.maximally_mixed(2), [0.0, 0.5], 4, seed=1, dt=dt)


@pytest.mark.parametrize("route", [stochastic.stochastic_q, stochastic.stochastic_average_state])
def test_noise_coupling_of_another_dimension_is_rejected(route):
    # a 4x4 coupling on a 2x2 base Hamiltonian used to give Q = 1 from its 2x2 corner
    process = stochastic.NoiseProcess("gaussian-white", 0.5, 0.0,
                                      qcore.tensor_product(qcore.sigma_z, qcore.sigma_x))
    with pytest.raises(ValueError, match="noise coupling dimension 4 != base Hamiltonian dimension 2"):
        route(process, qcore.sigma_z, QuantumState.maximally_mixed(2), [0.0, 0.5], 4, seed=1)


# ---------------------------------------------------------------------------
# waiting times

def test_waiting_time_statistics():
    rng = np.random.default_rng(1)
    exp = stochastic.WaitingTime("exponential", rate=2.0)
    assert exp.mean() == pytest.approx(0.5)
    gam = stochastic.WaitingTime("gamma", rate=2.0, shape=3.0)
    assert gam.mean() == pytest.approx(1.5)
    # closed form: t^2 e^{-2t} 2^3 / 2!
    t = np.array([-1.0, 0.0, 0.3, 1.5, 7.0])
    assert np.allclose(gam.pdf(t), np.where(t < 0, 0.0, 4.0 * t ** 2 * np.exp(-2.0 * t)),
                       rtol=1e-14, atol=0.0)
    samples = gam.sample(rng, size=20000)
    assert abs(samples.mean() - 1.5) < 0.03
    det = stochastic.WaitingTime("deterministic", period=0.8)
    assert det.sample(rng) == 0.8
    with pytest.raises(ValueError):
        stochastic.WaitingTime("gamma", rate=1.0, shape=0.5)
    with pytest.raises(ValueError, match="rate must be finite"):
        stochastic.WaitingTime("exponential", rate=np.inf)
    with pytest.raises(ValueError, match="shape must be finite"):
        stochastic.WaitingTime("gamma", rate=1.0, shape=np.nan)
    with pytest.raises(ValueError, match="period must be finite"):
        stochastic.WaitingTime("deterministic", period=np.inf)


@pytest.mark.parametrize("family, fields, extra", [
    ("exponential", {"rate": 1.0}, "shape"),
    ("exponential", {"rate": 1.0}, "period"),
    ("gamma", {"rate": 1.0, "shape": 2.0}, "period"),
    ("deterministic", {"period": 1.0}, "rate"),
    ("deterministic", {"period": 1.0}, "shape"),
], ids=["exponential-shape", "exponential-period", "gamma-period", "deterministic-rate",
        "deterministic-shape"])
def test_waiting_time_rejects_fields_its_family_does_not_read(family, fields, extra):
    stochastic.WaitingTime(family, **fields)
    with pytest.raises(ValueError, match=rf"{family} waiting reads only .*, not \['{extra}'\]"):
        stochastic.WaitingTime(family, **fields, **{extra: 3.0})


def reference_event_times(waiting, rng, t_max):
    """One wait at a time, added up until the first that passes t_max."""
    events = []
    elapsed = waiting.sample(rng)
    while elapsed <= t_max:
        events.append(elapsed)
        elapsed += waiting.sample(rng)
    return np.asarray(events, dtype=float)


def reference_hits(waiting, t_max):
    """The exact hits k period up to t_max, a hit 1e-12 period late included."""
    k = 1
    hits = []
    while k * waiting.period <= t_max + 1e-12 * waiting.period:
        hits.append(k * waiting.period)
        k += 1
    return np.asarray(hits, dtype=float)


# the chunk-boundary case: whether some path of the test runs past its first
# chunk; deterministic waiting draws nothing, and gamma(3.5) spreads too little
@pytest.mark.parametrize("waiting, crosses", [
    (stochastic.WaitingTime("exponential", rate=1.5), True),
    (stochastic.WaitingTime("gamma", rate=2.0, shape=2.0), True),
    (stochastic.WaitingTime("gamma", rate=1.3, shape=3.5), False),
    (stochastic.WaitingTime("deterministic", period=0.3), False),
], ids=["exponential", "gamma-2", "gamma-3.5", "deterministic"])
def test_event_times_match_scalar_loop(waiting, crosses, monkeypatch):
    if waiting.family == "deterministic":
        def no_streams(seed, paths):
            raise AssertionError("deterministic waiting drew")
        monkeypatch.setattr(stochastic, "_path_streams", no_streams)
    longest = 0
    # 500 paths as well: gamma(2) paths outgrow their first chunk more rarely
    path_counts = BLOCK_PATHS + [500]
    for t_max in (0.0, 0.5 * waiting.mean(), 3.0):
        # the block draws chunks of int(2 t_max / mean) + 2 waits
        chunk = int(2.0 * t_max / waiting.mean()) + 2
        if waiting.family == "deterministic":
            refs = [reference_hits(waiting, t_max)] * max(path_counts)
        else:
            refs = [reference_event_times(waiting, stochastic.path_rng(4, p), t_max)
                    for p in range(max(path_counts))]
        for n_paths in path_counts:
            for block in stochastic._path_blocks(n_paths):
                got = stochastic._collision_times(waiting, t_max, 4, block)
                assert got.shape == (len(block), max(refs[p].size for p in block))
                for row, p in zip(got, block):
                    expect = refs[p]
                    assert row.dtype == expect.dtype
                    assert np.array_equal(row[:expect.size], expect)
                    # a row runs on with later arrivals, which no time counts
                    assert (row[expect.size:] > t_max).all()
                    longest = max(longest, expect.size - chunk + 1)
    assert (longest > 0) == crosses


def test_collisional_model_validates_channel():
    with pytest.raises(ValueError, match="not a channel"):
        stochastic.CollisionalModel(
            0.5 * qcore.sigma_z, [0.9 * np.eye(2)],
            stochastic.WaitingTime("exponential", rate=1.0),
        )
    # the collision gate is tighter than unitality_check's 1e-8, which passes
    nearly = [np.sqrt(1.0 + 5e-9) * np.eye(2)]
    quantumness.unitality_check(nearly)
    with pytest.raises(ValueError, match="deviates from I by 5.000e-09"):
        stochastic.CollisionalModel(0.5 * qcore.sigma_z, nearly,
                                    stochastic.WaitingTime("exponential", rate=1.0))
    with pytest.raises(ValueError, match="Kraus operator has a non-finite entry"):
        stochastic.CollisionalModel(
            0.5 * qcore.sigma_z, [np.diag([1.0, np.nan])],
            stochastic.WaitingTime("exponential", rate=1.0),
        )


def test_collisional_model_takes_no_eigensystem_argument():
    # the eigensystem is a cache computed from the free Hamiltonian, not an input
    waiting = stochastic.WaitingTime("exponential", rate=1.0)
    with pytest.raises(TypeError):
        stochastic.CollisionalModel(0.5 * qcore.sigma_z, [np.eye(2)], waiting,
                                    (np.zeros(2), np.eye(2)))
    m = stochastic.CollisionalModel(0.5 * qcore.sigma_z, [np.eye(2)], waiting)
    energies, vectors = m._eig
    assert np.allclose(energies, [-0.5, 0.5])
    assert m._eig[0] is energies


# ---------------------------------------------------------------------------
# collisional dynamics

def exp_model(u=None, rate=1.0):
    if u is None:
        u = unitary(0.8, qcore.sigma_x)
    return stochastic.CollisionalModel(
        0.45 * qcore.sigma_z, [u], stochastic.WaitingTime("exponential", rate=rate)
    )


def test_collisional_state_at_zero():
    rng = np.random.default_rng(2)
    rho0 = qcore.random_state(2, rng)
    m = exp_model()
    for mode, kw in (("series", {}), ("monte-carlo", {"n_paths": 200, "seed": 3})):
        out = stochastic.collisional_states(m, rho0, [0.0], mode=mode, **kw)[0]
        assert np.abs(out.matrix - rho0.matrix).max() < 1e-10


def test_collisional_exponential_matches_lindblad():
    rng = np.random.default_rng(3)
    rho0 = qcore.random_state(2, rng)
    u = unitary(0.8, qcore.sigma_x)
    m = exp_model(u)
    lind = dynamics.LindbladModel(0.45 * qcore.sigma_z, [u], rates=[1.0])
    g = dynamics.liouvillian(lind)
    times = np.linspace(0.4, 3.0, 5)
    states, stderr = stochastic._monte_carlo_chain(m, rho0.matrix, times, 4000, seed=11)
    for k, t in enumerate(times):
        exact = dynamics.propagate(g, rho0.matrix, t)
        assert qcore.trace_distance(states[k], exact) <= 3.0 * stderr[k]
    # the deterministic series agrees with the generator route too
    series_states = stochastic.collisional_states(m, rho0, times, mode="series")
    for k, t in enumerate(times):
        exact = dynamics.propagate(g, rho0.matrix, t)
        assert qcore.trace_distance(series_states[k].matrix, exact) < 5e-4


def test_collisional_series_vs_monte_carlo_gamma_waiting():
    rng = np.random.default_rng(4)
    rho0 = qcore.random_state(2, rng)
    m = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z, [unitary(0.7, qcore.sigma_y)],
        stochastic.WaitingTime("gamma", rate=2.0, shape=2.0),
    )
    times = np.linspace(0.5, 3.0, 4)
    mc, stderr = stochastic._monte_carlo_chain(m, rho0.matrix, times, 4000, seed=5)
    series = stochastic.collisional_states(m, rho0, times, mode="series")
    for k in range(len(times)):
        assert qcore.trace_distance(mc[k], series[k].matrix) <= 3.0 * stderr[k] + 5e-4


def test_collisional_q_unital_families():
    rng = np.random.default_rng(5)
    rho0 = qcore.random_state(2, rng)
    times = np.linspace(0.0, 3.0, 13)
    for waiting in (
        stochastic.WaitingTime("exponential", rate=1.0),
        stochastic.WaitingTime("gamma", rate=2.0, shape=2.0),
        stochastic.WaitingTime("deterministic", period=1.0),
    ):
        m = stochastic.CollisionalModel(0.45 * qcore.sigma_z, [qcore.sigma_x], waiting)
        series = stochastic.collisional_q(m, rho0, times, mode="series")
        assert np.abs(series.values - 1.0).max() < 1e-9
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)


def amplitude_damping(eta):
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - eta)]]),
            np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]])]


def test_collisional_q_amplitude_damping_departs():
    # non-unital collision with diagonal H: after n collisions C[I] =
    # diag(2 - (1 - eta)^n, (1 - eta)^n), and the Poisson average gives
    # Q_t = 1 + (p0 - p1)(1 - exp(-rate eta t)) exactly
    eta, rate = 0.5, 1.0
    m = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z, amplitude_damping(eta),
        stochastic.WaitingTime("exponential", rate=rate),
    )
    times = np.linspace(0.0, 3.0, 13)
    excited = QuantumState.pure(qcore.ket(2, 0))
    for rho0 in (excited, qcore.random_state(2, np.random.default_rng(7))):
        p0, p1 = rho0.matrix[0, 0].real, rho0.matrix[1, 1].real
        series = stochastic.collisional_q(m, rho0, times, mode="series")
        exact = 1.0 + (p0 - p1) * (1.0 - np.exp(-rate * eta * times))
        assert np.abs(series.values - exact).max() < 5e-4
        if rho0 is excited:
            assert series.values[-1] - 1.0 > 0.05


def reference_monte_carlo_chain(model, x0, times, n_paths, seed):
    """Per-path collision loop the batched chain must reproduce."""
    t_max = float(times.max())
    d = model.dim
    snapshots = np.empty((n_paths, times.size, d, d), dtype=complex)
    for p in range(n_paths):
        event_times = reference_event_times(model.waiting, stochastic.path_rng(seed, p), t_max)
        x = np.asarray(x0, dtype=complex)
        now = 0.0
        ev = 0
        for k, t in enumerate(times):
            while ev < len(event_times) and event_times[ev] <= t:
                u = free_unitary(model, event_times[ev] - now)
                x = apply_collision(model, u @ x @ u.conj().T)
                now = event_times[ev]
                ev += 1
            u = free_unitary(model, t - now)
            snapshots[p, k] = u @ x @ u.conj().T
    mean = snapshots.mean(axis=0)
    var = (np.abs(snapshots) ** 2).mean(axis=0) - np.abs(mean) ** 2
    return mean, np.sqrt(np.clip(var, 0.0, None).sum(axis=(1, 2)) / max(n_paths - 1, 1))


@pytest.mark.parametrize("waiting", ["exponential", "gamma", "deterministic"])
def test_monte_carlo_chain_matches_path_loop(waiting, monkeypatch):
    monkeypatch.setattr(stochastic, "PATH_BLOCK", 3)
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(0.6)]]),
               np.array([[0.0, np.sqrt(0.4)], [0.0, 0.0]])]
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x,
        damping if waiting == "gamma" else [unitary(0.8, qcore.sigma_y)],
        {"exponential": stochastic.WaitingTime("exponential", rate=1.5),
         "gamma": stochastic.WaitingTime("gamma", rate=2.0, shape=2.0),
         "deterministic": stochastic.WaitingTime("deterministic", period=0.5)}[waiting],
    )
    rho0 = qcore.random_state(2, np.random.default_rng(9)).matrix
    n_paths, seed = 7, 13
    # deterministic collisions land exactly on the grid; otherwise put one
    # grid time exactly on the second collision of path 0
    times = np.linspace(0.0, 2.0, 5)
    if waiting != "deterministic":
        rng = stochastic.path_rng(seed, 0)
        hit = model.waiting.sample(rng) + model.waiting.sample(rng)
        times = np.sort(np.append(times[:-1], [hit, 2.0]))
    ref_mean, ref_stderr = reference_monte_carlo_chain(model, rho0, times, n_paths, seed)
    means, stderr = stochastic._monte_carlo_chain(model, rho0, times, n_paths, seed)
    assert np.abs(np.array(means) - ref_mean).max() < 1e-12
    assert np.abs(stderr ** 2 - ref_stderr ** 2).max() < 1e-12
    again, _ = stochastic._monte_carlo_chain(model, rho0, times, n_paths, seed)
    assert all(np.array_equal(a, b) for a, b in zip(means, again))


@pytest.mark.parametrize("kwargs, match", [
    ({"step": 0.0}, "step must be finite and positive, got 0.0"),
    ({"step": np.nan}, "step must be finite and positive, got nan"),
    ({"step": -0.01}, "step must be finite and positive, got -0.01"),
    ({"step": np.inf}, "step must be finite and positive, got inf"),
    ({"times": [0.0, np.nan, 1.0]}, "times must be finite and non-negative, got nan"),
    ({"times": [0.0, np.inf]}, "times must be finite and non-negative, got inf"),
    ({"times": [-0.5, 1.0]}, "times must be finite and non-negative, got -0.5"),
])
@pytest.mark.parametrize("mode", ["series", "monte-carlo"])
def test_collisional_rejects_bad_step_and_times(kwargs, match, mode):
    args = {"times": np.linspace(0.0, 1.0, 3), "mode": mode, "n_paths": 5, "seed": 1, **kwargs}
    with pytest.raises(ValueError, match=match):
        stochastic.collisional_q(exp_model(), QuantumState.maximally_mixed(2), **args)


def test_agreeing_paths_report_no_spread():
    # at t = 0 every chain snapshot is x0; without noise every path is the
    # same unitary, so the true spread is 0 in both
    rho0 = qcore.random_state(2, np.random.default_rng(3)).matrix
    _, stderr = stochastic._monte_carlo_chain(exp_model(), rho0, np.array([0.0]), 7, seed=2)
    assert stderr[0] <= 1e-14
    proc = stochastic.NoiseProcess("gaussian-white", 0.0, 0.0, qcore.sigma_x)
    _, stderr = stochastic.stochastic_average_state(
        proc, 0.5 * qcore.sigma_z, rho0, np.linspace(0.0, 1.0, 5), 300, seed=4
    )
    assert stderr.max() <= 1e-14


def test_collisional_q_monte_carlo_mode():
    rng = np.random.default_rng(6)
    rho0 = qcore.random_state(2, rng)
    m = exp_model()
    times = np.linspace(0.0, 2.0, 5)
    series = stochastic.collisional_q(m, rho0, times, mode="monte-carlo",
                                      n_paths=500, seed=7)
    assert np.abs(series.values - 1.0).max() < 1e-12


def reference_survival(wk, step):
    """The survival weight s = 1 - h trap(s * beta) of the series chain.

    beta = w + h trap(w * beta) is the scalar arrival density of the same
    trapezoid rule; both are solved one grid step at a time.
    """
    beta, surv = np.empty_like(wk), np.empty_like(wk)
    beta[0], surv[0] = wk[0], 1.0
    for k in range(1, wk.size):
        hist = wk[k - 1:0:-1] @ beta[1:k]
        beta[k] = (wk[k] + step * (0.5 * wk[k] * beta[0] + hist)) / (1.0 - 0.5 * step * wk[0])
    for k in range(1, wk.size):
        hist = beta[k - 1:0:-1] @ surv[1:k]
        surv[k] = (1.0 - step * (0.5 * beta[k] + hist)) / (1.0 + 0.5 * step * beta[0])
    return surv


def trapezoid_convolution(kern, b):
    """sum_j kern[k - j] @ b[j] over j = 0..k by the unit-step trapezoid rule, at every k.

    kern is (grid, D, D) and b (grid, D, M); the full sums are one
    np.convolve per (kernel entry, column), and the two end points are
    then halved.
    """
    full = np.zeros_like(b)
    for a, c, m in np.ndindex(kern.shape[1], kern.shape[2], b.shape[2]):
        full[:, a, m] += np.convolve(kern[:, a, c], b[:, c, m])[:len(b)]
    return full - 0.5 * (kern @ b[0] + kern[0] @ b)


def reference_neumann_chain(model, x0s, times, step):
    """The renewal series as a sum of iterated product-trapezoid convolutions.

    Orders are added until the last one falls below 1e-16, so the sum is
    the limit the one-pass forward substitution must reproduce.  Returns
    the chain applied to each operator of x0s, as (len(x0s), times, d, d).
    """
    w = model.waiting
    n_grid = int(np.ceil(times.max() / step))
    grid = step * np.arange(n_grid + 1)
    d = model.dim
    free = np.array([np.kron(free_unitary(model, t).conj(), free_unitary(model, t)) for t in grid])
    wk = w.pdf(grid)
    surv = reference_survival(wk, step)
    kern = wk[:, None, None] * (collision_superoperator(model) @ free)
    v0 = np.array([qcore.vec(x) for x in x0s]).T
    b = kern @ v0
    b_total = b.copy()
    while np.abs(b).max() >= 1e-16:
        b = step * trapezoid_convolution(kern, b)
        b_total += b
    survival = surv[:, None, None] * free
    out = survival @ v0 + step * trapezoid_convolution(survival, b_total)
    at_times = np.empty((len(times),) + out.shape[1:], dtype=complex)
    for c, m in np.ndindex(*out.shape[1:]):
        at_times[:, c, m] = (np.interp(times, grid, out[:, c, m].real)
                             + 1j * np.interp(times, grid, out[:, c, m].imag))
    return np.array([[qcore.unvec(v, d) for v in at_times[:, :, m]] for m in range(len(x0s))])


SERIES_WAITING = {"exponential": stochastic.WaitingTime("exponential", rate=1.0),
                  "gamma": stochastic.WaitingTime("gamma", rate=2.0, shape=2.0)}


@pytest.mark.parametrize("collision", ["unital", "damping"])
@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_series_chain_matches_neumann_reference(waiting, collision):
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x,
        [unitary(0.8, qcore.sigma_x)] if collision == "unital" else amplitude_damping(0.4),
        SERIES_WAITING[waiting],
    )
    step = model.waiting.mean() / 100.0
    x0s = [np.eye(2, dtype=complex), qcore.random_state(2, np.random.default_rng(1)).matrix]
    # the grid up to t = 3 is a prefix of the one up to t = 6, and the
    # first 13 of these times are linspace(0, 3, 13)
    times = np.linspace(0.0, 6.0, 25)
    ref = reference_neumann_chain(model, x0s, times, step)
    for x0, r in zip(x0s, ref):
        for n in (13, 25):
            got = stochastic._series_chain(model, x0, times[:n], step=step)
            assert np.abs(np.array(got) - r[:n]).max() < 1e-11


def reference_series_chain(model, x0, times, step):
    """The series chain with the output convolution evaluated at every grid node.

    The forward substitution sums its history with one einsum per step,
    and the output is interpolated from the full grid.
    """
    n_grid = max(2, int(np.ceil(times.max() / step)))
    grid = step * np.arange(n_grid + 1)
    d = model.dim
    u = free_unitary(model, grid)
    free = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, d * d, d * d)
    wk = model.waiting.pdf(grid)
    surv = reference_survival(wk, step)
    kern = wk[:, None, None] * np.einsum("ab,kbc->kac", collision_superoperator(model), free)
    v0 = qcore.vec(x0)
    b = np.einsum("kab,b->ka", kern, v0)
    implicit = np.linalg.inv(np.eye(d * d) - 0.5 * step * kern[0])
    for k in range(1, n_grid + 1):
        conv = 0.5 * kern[k] @ b[0] + np.einsum("jab,jb->a", kern[k - 1:0:-1], b[1:k])
        b[k] = implicit @ (b[k] + step * conv)
    out = np.empty((n_grid + 1, d * d), dtype=complex)
    out[0] = surv[0] * (free[0] @ v0)
    for k in range(1, n_grid + 1):
        sk = surv[k::-1, None, None] * free[k::-1]
        conv = np.einsum("jab,jb->a", sk, b[:k + 1]) - 0.5 * (sk[0] @ b[0] + sk[k] @ b[k])
        out[k] = surv[k] * (free[k] @ v0) + step * conv
    at_times = [np.interp(times, grid, c.real) + 1j * np.interp(times, grid, c.imag)
                for c in out.T]
    return [qcore.unvec(v, d) for v in np.array(at_times).T]


SERIES_STEP = 2.0 ** -6  # binary, so k * step is exactly grid node k and 3.0 is node 192


@pytest.mark.parametrize("times", [
    SERIES_STEP * np.array([0.0, 7.0, 50.0, 123.0, 192.0]),
    np.array([0.003, 0.71, 1.2345, 2.9]),
    np.array([0.0]),
    np.array([1.7]),
    np.linspace(0.0, 3.0, 13),
], ids=["on-nodes", "between-nodes", "zero", "single", "last-node"])
@pytest.mark.parametrize("collision", ["unital", "damping"])
@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_series_chain_matches_full_grid_output(waiting, collision, times, monkeypatch):
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x,
        [unitary(0.8, qcore.sigma_x)] if collision == "unital" else amplitude_damping(0.4),
        SERIES_WAITING[waiting],
    )
    assert np.ceil(3.0 / SERIES_STEP) * SERIES_STEP == 3.0
    rho0 = qcore.random_state(2, np.random.default_rng(1))
    for x0 in (np.eye(2, dtype=complex), rho0.matrix):
        got = stochastic._series_chain(model, x0, times, step=SERIES_STEP)
        ref = reference_series_chain(model, x0, times, SERIES_STEP)
        assert np.abs(np.array(got) - np.array(ref)).max() < 1e-13
    states = stochastic.collisional_states(model, rho0, times, step=SERIES_STEP)
    q = stochastic.collisional_q(model, rho0, times, step=SERIES_STEP).values
    monkeypatch.setattr(stochastic, "_series_chain", reference_series_chain)
    ref_states = stochastic.collisional_states(model, rho0, times, step=SERIES_STEP)
    assert max(np.abs(a.matrix - b.matrix).max() for a, b in zip(states, ref_states)) < 1e-13
    ref_q = stochastic.collisional_q(model, rho0, times, step=SERIES_STEP).values
    assert np.abs(q - ref_q).max() < 1e-13


_ROTATION = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3))
                         + 1j * np.random.default_rng(8).normal(size=(3, 3)))[0]


def qutrit_model(h, waiting):
    """Three levels; two Kraus operators cut from a random 6 x 3 isometry."""
    rng = np.random.default_rng(9)
    iso = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    return stochastic.CollisionalModel(
        h, [iso[:3], iso[3:]],
        SERIES_WAITING[waiting],
    )


@pytest.mark.parametrize("h", [
    _ROTATION @ np.diag([0.7, 0.7, -0.4]) @ _ROTATION.conj().T,
    np.zeros((3, 3)),
], ids=["degenerate", "zero"])
@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_series_chain_qutrit_matches_full_grid_output(waiting, h):
    # the eigenbasis of a degenerate (or zero) H is not unique; any one serves
    model = qutrit_model(0.5 * (h + h.conj().T), waiting)
    times = np.array([0.0, 0.37, 1.2345, 2.0])
    for x0 in (np.eye(3, dtype=complex), qcore.random_state(3, np.random.default_rng(3)).matrix):
        got = stochastic._series_chain(model, x0, times, step=SERIES_STEP)
        ref = reference_series_chain(model, x0, times, SERIES_STEP)
        assert np.abs(np.array(got) - np.array(ref)).max() < 1e-13


@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_monte_carlo_chain_qutrit_matches_path_loop(waiting, monkeypatch):
    # a degenerate H and a four-Kraus channel cut from a random 12 x 3 isometry
    monkeypatch.setattr(stochastic, "PATH_BLOCK", 3)
    rng = np.random.default_rng(10)
    iso = np.linalg.qr(rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3)))[0]
    h = _ROTATION @ np.diag([0.7, 0.7, -0.4]) @ _ROTATION.conj().T
    model = stochastic.CollisionalModel(0.5 * (h + h.conj().T), list(iso.reshape(4, 3, 3)),
                                        SERIES_WAITING[waiting])
    rho0 = qcore.random_state(3, np.random.default_rng(11)).matrix
    times = np.array([0.0, 0.37, 1.2345, 2.0])
    n_paths, seed = 7, 21
    ref_mean, ref_stderr = reference_monte_carlo_chain(model, rho0, times, n_paths, seed)
    means, stderr = stochastic._monte_carlo_chain(model, rho0, times, n_paths, seed)
    assert np.abs(np.array(means) - ref_mean).max() < 1e-12
    assert np.abs(stderr ** 2 - ref_stderr ** 2).max() < 1e-12


@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_monte_carlo_time_does_not_depend_on_other_times(waiting):
    model = stochastic.CollisionalModel(0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x,
                                        amplitude_damping(0.3), SERIES_WAITING[waiting])
    times = np.linspace(0.0, 3.0, 13)
    rng = np.random.default_rng(16)
    for x0 in [np.eye(2, dtype=complex)] + [qcore.random_state(2, rng).matrix for _ in range(3)]:
        means, stderr = stochastic._monte_carlo_chain(model, x0, times, 5, 3)
        for k, t in enumerate(times):
            alone, alone_stderr = stochastic._monte_carlo_chain(model, x0, [t], 5, 3)
            assert np.array_equal(alone[0], means[k]) and alone_stderr[0] == stderr[k]


def test_cached_collision_superoperator_is_shared_and_read_only():
    make = lambda: qutrit_model(_ROTATION @ np.diag([0.7, 0.7, -0.4]) @ _ROTATION.conj().T,
                                "gamma")
    model = make()
    e_eig = model._collision_eig
    assert e_eig is model._collision_eig and not e_eig.flags.writeable
    with pytest.raises(ValueError):
        e_eig[0, 0] = 0.0
    vecs = model._eig[1]
    p = np.kron(vecs.conj(), vecs)
    assert np.abs(e_eig - p.conj().T @ collision_superoperator(model) @ p).max() < 1e-14
    # a Monte Carlo run fills the cache the series then reads: same bits as a fresh model
    x0 = qcore.random_state(3, np.random.default_rng(3)).matrix
    times = np.array([0.0, 0.37, 1.2345, 2.0])
    stochastic._monte_carlo_chain(model, x0, times, 5, seed=1)
    after = stochastic._series_chain(model, x0, times, step=SERIES_STEP)
    fresh = stochastic._series_chain(make(), x0, times, step=SERIES_STEP)
    assert all(np.array_equal(a, b) for a, b in zip(after, fresh))


CHAIN_BLOCK = qcore.VOLTERRA_BLOCK // 4  # grid steps per block of the d = 2 density solve


@pytest.mark.parametrize("n_grid", [
    CHAIN_BLOCK // 2, CHAIN_BLOCK, CHAIN_BLOCK + 1, 3 * CHAIN_BLOCK + 5,
    qcore.VOLTERRA_BLOCK + 3,
])
@pytest.mark.parametrize("waiting", ["exponential", "gamma"])
def test_series_chain_block_edges(waiting, n_grid):
    # every grid node is requested, so every step of every block is read
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x, amplitude_damping(0.4),
        SERIES_WAITING[waiting],
    )
    times = SERIES_STEP * np.arange(n_grid + 1)
    for x0 in (np.eye(2, dtype=complex), qcore.random_state(2, np.random.default_rng(5)).matrix):
        got = stochastic._series_chain(model, x0, times, step=SERIES_STEP)
        ref = reference_series_chain(model, x0, times, SERIES_STEP)
        assert np.abs(np.array(got) - np.array(ref)).max() < 1e-13


LONG_H = np.array([[1.0, 0.4], [0.4, -1.0]])
LONG_TIMES = np.linspace(0.0, 30.0, 61)


@pytest.mark.parametrize("waiting", [stochastic.WaitingTime("exponential", rate=2.0),
                                     stochastic.WaitingTime("gamma", rate=2.0, shape=2.0)],
                         ids=["exponential", "gamma"])
def test_series_conserves_trace_and_identity_at_long_horizons(waiting):
    # the survival weight solves s = 1 - h trap(s * beta) with beta the
    # arrival density of the same rule, so at the default step the chain
    # keeps the trace, and a unital chain the identity, to roundoff
    unital = stochastic.CollisionalModel(LONG_H, [unitary(0.8, qcore.sigma_x)], waiting)
    eye = stochastic._series_chain(unital, np.eye(2, dtype=complex), LONG_TIMES)
    assert max(np.abs(m - np.eye(2)).max() for m in eye) < 1e-12
    damping = stochastic.CollisionalModel(LONG_H, amplitude_damping(0.3), waiting)
    rho0 = qcore.random_state(2, np.random.default_rng(3)).matrix
    states = stochastic._series_chain(damping, rho0, LONG_TIMES)
    assert np.abs([np.trace(m) - 1.0 for m in states]).max() < 1e-12


def test_series_exponential_matches_lindblad_at_long_horizons():
    # exponential waiting at rate r is the Lindblad model r (E - I)
    rate, damping = 2.0, amplitude_damping(0.3)
    model = stochastic.CollisionalModel(
        LONG_H, damping, stochastic.WaitingTime("exponential", rate=rate)
    )
    lind = dynamics.LindbladModel(LONG_H, damping, rates=[rate, rate])
    rho0 = qcore.random_state(2, np.random.default_rng(3))
    q = stochastic.collisional_q(model, rho0, LONG_TIMES).values
    assert np.abs(q - quantumness.q_series(lind, rho0, LONG_TIMES).values).max() < 5e-4
    states = stochastic.collisional_states(model, rho0, LONG_TIMES)
    exact = dynamics.propagate_series(dynamics.liouvillian(lind), rho0.matrix, LONG_TIMES)
    assert max(qcore.trace_distance(s.matrix, e) for s, e in zip(states, exact)) < 5e-4


def test_series_value_does_not_depend_on_other_times():
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x, amplitude_damping(0.4),
        stochastic.WaitingTime("gamma", rate=2.0, shape=2.0),
    )
    x0 = qcore.random_state(2, np.random.default_rng(2)).matrix
    times = np.sort(np.concatenate([np.linspace(0.0, 3.0, 13), [0.003, 1.2345, 2.9]]))
    full = stochastic._series_chain(model, x0, times, step=0.01)
    for t, expect in zip(times, full):
        # the last time fixes the grid, so it stays in every request
        alone = stochastic._series_chain(model, x0, np.array([t, times[-1]]), step=0.01)
        assert np.array_equal(alone[0], expect)


# ---------------------------------------------------------------------------
# the phase-type clock of exponential and integer-shape gamma waiting

CLOCK_WAITING = {"exponential": stochastic.WaitingTime("exponential", rate=2.0),
                 "gamma2": stochastic.WaitingTime("gamma", rate=4.0, shape=2.0),
                 "gamma5": stochastic.WaitingTime("gamma", rate=3.0, shape=5.0)}
# max |trapezoid - clock| / (h / mean)^2 over h = mean/50..mean/400 for the
# model of test_trapezoid_converges_to_the_clock, measured at 0.262
# (exponential), 1.033 (gamma 2) and 0.536 (gamma 5, largest at mean/50;
# 0.149 from mean/100 on), each held with about 15 % to spare
TRAPEZOID_GAP = {"exponential": 0.3, "gamma2": 1.2, "gamma5": 0.62}


@pytest.mark.parametrize("waiting", sorted(CLOCK_WAITING))
def test_trapezoid_converges_to_the_clock(waiting):
    w = CLOCK_WAITING[waiting]
    model = stochastic.CollisionalModel(LONG_H, amplitude_damping(0.3), w)
    times = np.linspace(0.0, 6.0, 25)
    rho0 = qcore.random_state(2, np.random.default_rng(3)).matrix
    for x0 in (np.eye(2, dtype=complex), rho0):
        clock = np.array(stochastic._chain(model, x0, times, "series", None, None, None))
        for per_mean in (50, 100, 200, 400):
            series = np.array(stochastic._series_chain(model, x0, times, step=w.mean() / per_mean))
            assert np.abs(series - clock).max() <= TRAPEZOID_GAP[waiting] / per_mean ** 2


def random_channel(rng, d, unital):
    """Three Kraus operators: a random unitary mixture, or cut from a random 3d x d isometry."""
    if unital:
        weights = rng.dirichlet(np.ones(3))
        return [np.sqrt(p) * np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                for p in weights]
    iso = np.linalg.qr(rng.normal(size=(3 * d, d)) + 1j * rng.normal(size=(3 * d, d)))[0]
    return list(iso.reshape(3, d, d))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 3), shape=st.integers(1, 5), unital=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_clock_keeps_the_trace_and_a_unital_chain_keeps_q_at_one(d, shape, unital, seed):
    rng = np.random.default_rng(seed)
    rate = rng.uniform(0.5, 4.0)
    waiting = (stochastic.WaitingTime("exponential", rate=rate) if shape == 1
               else stochastic.WaitingTime("gamma", rate=rate, shape=float(shape)))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    model = stochastic.CollisionalModel(h + h.conj().T, random_channel(rng, d, unital), waiting)
    rho0 = qcore.random_state(d, rng)
    times = np.linspace(0.0, 4.0, 9)
    states = stochastic.collisional_states(model, rho0, times)
    assert max(abs(np.trace(s.matrix) - 1.0) for s in states) < 1e-12
    if unital:
        q = stochastic.collisional_q(model, rho0, times).values
        assert np.abs(q - 1.0).max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.integers(2, 3), law=st.sampled_from(["exponential", "gamma-integer", "gamma-real"]),
       unital=st.booleans(), n_paths=st.integers(1, 2 * stochastic.PATH_BLOCK + 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=2, law="exponential", unital=True, n_paths=stochastic.PATH_BLOCK, seed=0)
@example(d=2, law="gamma-real", unital=True, n_paths=stochastic.PATH_BLOCK + 1, seed=1)
@example(d=3, law="gamma-integer", unital=False, n_paths=stochastic.PATH_BLOCK + 1, seed=2)
def test_monte_carlo_keeps_a_unital_chain_at_one_and_q_in_bounds(d, law, unital, n_paths, seed):
    rng = np.random.default_rng(seed)
    rate = rng.uniform(0.5, 4.0)
    waiting = {"exponential": lambda: stochastic.WaitingTime("exponential", rate=rate),
               "gamma-integer": lambda: stochastic.WaitingTime("gamma", rate=rate,
                                                               shape=float(rng.integers(2, 4))),
               "gamma-real": lambda: stochastic.WaitingTime("gamma", rate=rate,
                                                            shape=rng.uniform(1.0, 4.0))}[law]()
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    model = stochastic.CollisionalModel(h + h.conj().T, random_channel(rng, d, unital), waiting)
    rho0 = qcore.random_state(d, rng)
    times = np.linspace(0.0, rng.uniform(0.5, 4.0), 7)
    q = stochastic.collisional_q(model, rho0, times, mode="monte-carlo", n_paths=n_paths,
                                 seed=seed).values
    assert q.min() >= 0.0 and q.max() <= d
    if unital:
        assert np.abs(q - 1.0).max() < 1e-12
        # every path's chain keeps C_t[I] = I, so the paths agree
        _, stderr = stochastic._monte_carlo_chain(model, np.eye(d, dtype=complex), times,
                                                  n_paths, seed)
        assert stderr.max() <= 1e-12


def test_clock_model_needs_a_phase_type_wait():
    h, kraus = 0.45 * qcore.sigma_z, amplitude_damping(0.4)
    for waiting, message in (
        (stochastic.WaitingTime("gamma", rate=2.0, shape=2.5), "gamma waiting of shape 2.5"),
        (stochastic.WaitingTime("deterministic", period=0.6), "deterministic waiting"),
    ):
        model = stochastic.CollisionalModel(h, kraus, waiting)
        with pytest.raises(ValueError, match=f"{message} has no phase-type clock"):
            model.clock
    model = stochastic.CollisionalModel(h, kraus, CLOCK_WAITING["gamma5"])
    assert model.clock is model.clock and model.clock.dim == 10


def test_non_integer_shape_keeps_the_trapezoid_bits():
    model = stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x, amplitude_damping(0.4),
        stochastic.WaitingTime("gamma", rate=2.0, shape=2.5),
    )
    rho0 = qcore.random_state(2, np.random.default_rng(2))
    times = np.linspace(0.0, 3.0, 13)
    for step in (None, 0.01):
        chain = stochastic._chain(model, rho0.matrix, times, "series", None, None, step)
        ref = stochastic._series_chain(model, rho0.matrix, times, step=step)
        assert all(np.array_equal(c, r) for c, r in zip(chain, ref))
        q = stochastic.collisional_q(model, rho0, times, step=step).values
        eye = stochastic._series_chain(model, np.eye(2, dtype=complex), times, step=step)
        assert np.array_equal(q, quantumness.trace_pairing(rho0.matrix, np.array(eye)))


@pytest.mark.parametrize("waiting", sorted(CLOCK_WAITING))
def test_clock_series_reads_step_nowhere(waiting):
    w = CLOCK_WAITING[waiting]
    model = stochastic.CollisionalModel(LONG_H, amplitude_damping(0.3), w)
    rho0 = qcore.random_state(2, np.random.default_rng(4))
    times = np.linspace(0.0, 3.0, 13)
    q = stochastic.collisional_q(model, rho0, times).values
    assert np.array_equal(stochastic.collisional_q(model, rho0, times, step=w.mean() / 37).values, q)
    states = stochastic.collisional_states(model, rho0, times)
    other = stochastic.collisional_states(model, rho0, times, step=w.mean() / 37)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(states, other))


@pytest.mark.parametrize("waiting", sorted(CLOCK_WAITING))
def test_clock_time_alone_matches_the_same_time_in_a_grid(waiting):
    # the clock steps from one requested time to the next, so the other
    # times move a value at roundoff only
    model = stochastic.CollisionalModel(LONG_H, amplitude_damping(0.3), CLOCK_WAITING[waiting])
    times = np.linspace(0.0, 3.0, 13)
    rng = np.random.default_rng(17)
    for x0 in (np.eye(2, dtype=complex), qcore.random_state(2, rng).matrix):
        full = stochastic._chain(model, x0, times, "series", None, None, None)
        for t, expect in zip(times, full):
            alone = stochastic._chain(model, x0, [t], "series", None, None, None)[0]
            assert np.abs(alone - expect).max() < 1e-14


def poisson_stage_moment(shape, rate, s, times):
    """E[s^N_t] for gamma (shape, rate) renewals: N_t = floor(M_t / shape) collisions
    for M_t ~ Poisson(rate t) completed exponential stages."""
    m = np.arange(400)
    out = []
    for t in times:
        log_pmf = (scipy.special.xlogy(m, rate * t) - rate * t - scipy.special.gammaln(m + 1))
        out.append(np.exp(log_pmf) @ s ** (m // shape))
    return np.array(out)


@pytest.mark.parametrize("shape", [1, 2, 3, 5])
def test_clock_damping_matches_the_poisson_stage_count(shape):
    # with a diagonal H the chain maps I to diag(2 - s^N, s^N), s = 1 - damping, so
    # Q_t = 1 + (p0 - p1)(1 - E[s^N]) exactly, as on the renewal-series damping tasks
    rate = 2.0 * shape
    waiting = (stochastic.WaitingTime("exponential", rate=rate) if shape == 1
               else stochastic.WaitingTime("gamma", rate=rate, shape=float(shape)))
    rng = np.random.default_rng(shape)
    for t_max in (3.0, 6.0):
        damping = rng.uniform(0.2, 0.6)
        model = stochastic.CollisionalModel(0.5 * rng.uniform(0.5, 1.5) * qcore.sigma_z,
                                            amplitude_damping(damping), waiting)
        rho0 = qcore.random_state(2, rng)
        p0, p1 = rho0.matrix[0, 0].real, rho0.matrix[1, 1].real
        times = np.linspace(0.0, t_max, 13)
        exact = 1.0 + (p0 - p1) * (1.0 - poisson_stage_moment(shape, rate, 1.0 - damping, times))
        q = stochastic.collisional_q(model, rho0, times).values
        assert np.abs(q - exact).max() < 1e-12


def test_exponential_clock_is_the_lindblad_model():
    # one clock stage: the jumps are the Kraus operators at the waiting rate
    rate, damping = 2.0, amplitude_damping(0.3)
    model = stochastic.CollisionalModel(
        LONG_H, damping, stochastic.WaitingTime("exponential", rate=rate)
    )
    lind = dynamics.LindbladModel(LONG_H, damping, rates=[rate] * len(damping))
    rho0 = qcore.random_state(2, np.random.default_rng(3))
    q = stochastic.collisional_q(model, rho0, LONG_TIMES).values
    assert np.abs(q - quantumness.q_series(lind, rho0, LONG_TIMES).values).max() < 1e-12
    states = stochastic.collisional_states(model, rho0, LONG_TIMES)
    exact = dynamics.propagate_series(dynamics.liouvillian(lind), rho0.matrix, LONG_TIMES)
    assert max(np.abs(s.matrix - e).max() for s, e in zip(states, exact)) < 1e-12


def restarted_loop(model, x0, t):
    """The deterministic chain at t, restarted from x0: one collision per whole
    period, a hit 1e-12 period late included, then free evolution."""
    period = model.waiting.period
    n = int(np.floor((t + 1e-12 * period) / period))
    u = free_unitary(model, period)
    x = np.asarray(x0, dtype=complex)
    for _ in range(n):
        x = apply_collision(model, u @ x @ u.conj().T)
    v = free_unitary(model, t - n * period)
    return v @ x @ v.conj().T


def deterministic_model(period):
    return stochastic.CollisionalModel(
        0.45 * qcore.sigma_z + 0.2 * qcore.sigma_x, amplitude_damping(0.3),
        stochastic.WaitingTime("deterministic", period=period),
    )


def test_deterministic_chain_matches_restarted_loop():
    period = 0.6
    model = deterministic_model(period)
    x0 = qcore.random_state(2, np.random.default_rng(4)).matrix
    times = np.array([0.0, 0.3, period, 2 * period, 2 * period + 0.1, 3.0, 3.0])
    for mode in ("series", "monte-carlo"):
        got = stochastic._chain(model, x0, times, mode, 5, 1, None)
        for t, m in zip(times, got):
            assert np.abs(m - restarted_loop(model, x0, t)).max() < 1e-13
            # a time's bits do not depend on the other times requested
            alone = stochastic._chain(model, x0, np.array([t]), mode, 5, 1, None)
            assert np.array_equal(alone[0], m)


@pytest.mark.parametrize("period", [0.1, 0.3, 1.0 / 3.0, 0.6], ids=["0.1", "0.3", "1/3", "0.6"])
def test_deterministic_modes_count_collisions_on_grid_times(period):
    # linspace grids whose points land on whole periods, where k * period
    # built by repeated addition falls on either side of the grid time
    model = deterministic_model(period)
    rho0 = qcore.random_state(2, np.random.default_rng(6))
    eye = np.eye(2, dtype=complex)
    grids = [np.linspace(0.0, 3.0, n) for n in (7, 10, 11, 13, 16, 31, 61)]
    grids += [np.linspace(0.0, 7 * period, 15), np.linspace(0.0, 20 * period, 41)]
    for times in grids:
        ref_q = [np.trace(rho0.matrix @ restarted_loop(model, eye, t)).real for t in times]
        ref_states = [restarted_loop(model, rho0.matrix, t) for t in times]
        for kw in ({"mode": "series"}, {"mode": "monte-carlo", "n_paths": 3, "seed": 2}):
            q = stochastic.collisional_q(model, rho0, times, **kw).values
            assert np.abs(q - ref_q).max() < 1e-13
            states = stochastic.collisional_states(model, rho0, times, **kw)
            assert max(np.abs(s.matrix - r).max() for s, r in zip(states, ref_states)) < 1e-13


def test_dual_trace_check():
    ok, _ = quantumness.unitality_check([unitary(0.4, qcore.sigma_z)])
    assert ok
    mix = [np.sqrt(0.4) * unitary(0.3, qcore.sigma_x), np.sqrt(0.6) * unitary(1.1, qcore.sigma_y)]
    ok, _ = quantumness.unitality_check(mix)
    assert ok
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(0.5)]]),
               np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]])]
    ok, resid = quantumness.unitality_check(damping)
    assert not ok and resid > 0.1
