"""Machine-speed probe that scales measured times to a reference speed.

On a shared 2-core VM the speed of every process changes by up to 20 %
within seconds, and by more between runs.  A fixed
probe (an interpreter loop, small complex matrix products and one BLAS
product) runs between tasks at least every PROBE_EVERY_S seconds, and
every time the harness reports is multiplied by PROBE_REF_S / probe,
where probe is the mean of the two probes around the measurement.  The
probe never calls envq, so a change to envq moves the scaled times as it
moves the raw ones; the raw times are kept in the result record.
"""

import time

import numpy as np

PROBE_REF_S = 0.010   # probe time that defines the reference speed
PROBE_EVERY_S = 0.5

_ROTATION = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_MATRIX = np.random.default_rng(0).random((100, 100))


def probe():
    """Seconds the fixed calibration work takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i
    state = np.eye(2, dtype=complex)
    for _ in range(1500):
        state = _ROTATION @ state
    for _ in range(15):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


def scale(seconds, probe_s):
    """Seconds at the reference speed."""
    return seconds * PROBE_REF_S / probe_s
