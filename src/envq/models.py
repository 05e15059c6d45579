"""Built-in dissipative models: closed forms and Lindblad builders.

Closed-form degree reports are ``quantumness.QuantumnessReport``s, the
type every numeric route returns; the coupled pair's other closed
forms (optimal vector, concurrence, series) are module functions.  A
series at an array of times is an array; at a scalar time it is the
numpy scalar that numpy's ufuncs return (``np.float64``, or
``np.complex128`` for ``memory_c``), a subclass of float or complex.

Each closed form is cross-validated against numerical propagation of
its defining generator in the test suite.  The fluorescence form
printed with +sz0 in its population term is this module's series at
-sz0; the acceptance suite checks that propagation rules it out.  The
single-mode memory kernel never relaxes: it has a series, no degree.

A tabulated memory kernel runs through ``volterra_solve``, one call of
``qcore.blocked_volterra``, the solver of the renewal series too.  Its
arithmetic follows the kernel's samples: float64 for a real kernel,
complex128 for a complex one, with the running sum taken in
``longdouble`` or ``clongdouble`` to match.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, qcore, quantumness
from .qcore import QuantumState


def _sinch(x):
    """sinh(x)/x, stable near zero, complex-safe."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


# ---------------------------------------------------------------------------
# thermal two-level system

class _ThermalRates:
    """Thermal occupation and the down and up rates of a mode of decay rate
    ``gamma`` at inverse temperature ``beta_hw0``."""

    @property
    def n_th(self):
        if np.isinf(self.beta_hw0):
            return 0.0
        if self.beta_hw0 == 0:
            raise ValueError("beta_hw0 = 0 gives infinite thermal occupation")
        return 1.0 / np.expm1(self.beta_hw0)

    @property
    def kappa(self):
        return self.gamma * (self.n_th + 1.0)

    @property
    def zeta(self):
        return self.gamma * self.n_th


@dataclass(frozen=True)
class ThermalTlsParams(_ThermalRates):
    """Two-level emitter in a thermal bath: decay rate and beta*hw0."""

    gamma: float
    beta_hw0: float
    dim = 2

    def __post_init__(self):
        # beta_hw0 = inf is the zero-temperature limit
        qcore.require_finite_parameters(self, "gamma")
        if not (self.gamma > 0 and self.beta_hw0 >= 0):
            raise ValueError("gamma must be positive and beta_hw0 nonnegative")

    def lindblad_model(self):
        return dynamics.LindbladModel(
            0.5 * qcore.sigma_z,
            [qcore.sigma_minus, qcore.sigma_plus],
            rates=[self.kappa, self.zeta],
        )


def thermal_q(p, sz0, t):
    """Closed quantumness series 1 + <sz>_inf sz0 (1 - e^{-t(kappa+zeta)})."""
    if abs(sz0) > 1.0 + 1e-12:
        raise ValueError("sz0 must lie in [-1, 1]")
    t = np.asarray(t, dtype=float)
    sz_inf = (p.zeta - p.kappa) / (p.zeta + p.kappa)
    q = 1.0 + sz_inf * sz0 * (1.0 - np.exp(-t * (p.kappa + p.zeta)))
    return q


def thermal_dq(p):
    """Degree of environment quantumness tanh(beta hw0 / 2)."""
    return float(np.tanh(0.5 * p.beta_hw0))


# ---------------------------------------------------------------------------
# non-Markovian decay at zero temperature

@dataclass(frozen=True)
class NonMarkovParams:
    """Zero-temperature decay with a memory kernel.

    Families: "lorentzian" (exponential bath correlation with width
    1/tau_c and weight gamma), "single-mode" (constant kernel
    coupling^2, giving c_t = cos(coupling t)), "tabulated" (caller
    supplies ``kernel_func``; solved numerically).
    """

    gamma: float
    tau_c: float = 1.0
    kernel: str = "lorentzian"
    coupling: float = None
    kernel_func: object = None
    dim = 2

    def __post_init__(self):
        if self.kernel not in ("lorentzian", "single-mode", "tabulated"):
            raise ValueError(f"unknown kernel family {self.kernel!r}")
        qcore.require_finite_parameters(self, "gamma", "tau_c", "coupling")
        if self.kernel == "lorentzian" and (self.gamma <= 0 or self.tau_c <= 0):
            raise ValueError("lorentzian kernel needs gamma, tau_c > 0")
        if self.kernel == "single-mode" and not self.coupling:
            raise ValueError("single-mode kernel needs a coupling")
        if self.kernel == "tabulated" and not callable(self.kernel_func):
            raise ValueError("tabulated kernel needs a callable kernel_func")
        # a field the kernel does not read would be silently ignored
        if self.coupling is not None and self.kernel != "single-mode":
            raise ValueError(f"coupling applies to the single-mode kernel only, not {self.kernel}")
        if self.kernel_func is not None and self.kernel != "tabulated":
            raise ValueError(f"kernel_func applies to the tabulated kernel only, not {self.kernel}")

    def kernel_function(self):
        if self.kernel == "lorentzian":
            g, tc = self.gamma, self.tau_c
            return lambda t: (g / (2.0 * tc)) * np.exp(-np.abs(t) / tc)
        if self.kernel == "single-mode":
            g = self.coupling
            return lambda t: g * g * np.ones_like(np.asarray(t, dtype=float))
        return self.kernel_func


def memory_c(p, t):
    """Decay amplitude c_t solving dc/dt = -int_0^t f(t-s) c(s) ds, c_0 = 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if p.kernel == "lorentzian":
        chi = np.sqrt(complex(1.0 - 2.0 * p.gamma * p.tau_c))
        x = t * chi / (2.0 * p.tau_c)
        return np.exp(-t / (2.0 * p.tau_c)) * (np.cosh(x) + (t / (2.0 * p.tau_c)) * _sinch(x))
    if p.kernel == "single-mode":
        return np.cos(p.coupling * t) + 0.0j
    t_max = float(t.max()) if t.size else 0.0
    step = p.tau_c / 100.0
    grid, c = volterra_solve(p.kernel_function(), max(t_max, step), step)
    import scipy.interpolate  # only this branch needs it; it is slow to import
    # [()] unwraps a 0-d result to a scalar, as the ufuncs of the other kernels do;
    # a real kernel gives a real c, handed on as complex128 like the closed forms
    return scipy.interpolate.CubicSpline(grid, c)(t).astype(np.complex128)[()]


def volterra_solve(kernel, t_max, step):
    """Product-trapezoidal solution of the memory-kernel equation.

    Returns (grid, c) on a uniform grid of spacing ``step``, from the
    product-trapezoid rule at step and step/2, Richardson-extrapolated,
    which upgrades the trapezoidal order by two.  Summed over the steps,
    the rule for c and dc/dt = -int f c is c_k = r_k/lead - (h^2/lead)
    sum_{j=1}^{k-1} g_{k-j} c_j, with lead = 1 + h^2 f_0/4, g_l = f_0/2 +
    S_l + f_l/2, r_k = 1 - h^2 (S_k/2 + f_k/4) and S_l = sum_{m=1}^{l-1}
    f_m: one ``qcore.blocked_volterra`` call.

    The arithmetic follows the kernel's samples f(ts), checked once here
    to be finite and of the grid's shape: a real kernel (or a complex one
    whose imaginary parts are all zero) runs in float64 and gives a real
    c, a complex kernel in complex128.  S is summed in extended precision,
    ``longdouble`` for real samples and ``clongdouble`` for complex ones;
    in float64 it carried up to 8e-14 of roundoff into c.
    """
    def run(h, n):
        ts = h * np.arange(n + 1)
        f = np.asarray(kernel(ts))
        if f.shape != ts.shape:
            raise ValueError(f"kernel samples have shape {f.shape}, not the grid's {ts.shape}")
        real = not (np.iscomplexobj(f) and f.imag.any())
        f = (f.real if real else f).astype(float if real else complex, copy=False)
        if not np.isfinite(f).all():
            raise ValueError(f"kernel sample at t = {ts[~np.isfinite(f)][0]:g} is not finite")
        wide = f.astype(np.result_type(f, np.longdouble))
        below = np.concatenate([[0, 0], np.cumsum(wide[1:-1])])  # S_l at l = 0..n
        lead = 1.0 + h * h * f[0] / 4.0
        g = (wide[0] / 2 + below + wide / 2).astype(f.dtype)
        r = ((1 - h * h * (below / 2 + wide / 4)) / lead).astype(f.dtype)
        r[0] = 1.0
        return ts, qcore.blocked_volterra(r[None], g[None], np.array([[-h * h / lead]]))[0]

    n = max(1, int(round(t_max / step)))
    ts, coarse = run(step, n)
    _, fine = run(step / 2.0, 2 * n)
    return ts, (4.0 * fine[::2] - coarse) / 3.0


def nonmarkov_q(p, sz0, t):
    """Quantumness series 1 - sz0 (1 - |c_t|^2)."""
    if abs(sz0) > 1.0 + 1e-12:
        raise ValueError("sz0 must lie in [-1, 1]")
    c = memory_c(p, t)
    q = 1.0 - sz0 * (1.0 - np.abs(c) ** 2)
    return q


def _require_relaxing(p):
    if p.kernel == "single-mode":
        raise ValueError("the single-mode kernel never relaxes (c_t = cos(coupling t)), "
                         "so it has no stationary state and no degree of quantumness")


def nonmarkov_dq(p):
    """The degree of quantumness is maximal for this family, once the decay relaxes."""
    _require_relaxing(p)
    return 1.0


def nonmarkov_report(p):
    """Closed-form QuantumnessReport: zero-temperature decay relaxes every
    state to the ground state |1><1|."""
    _require_relaxing(p)
    return quantumness.stationary_degree(QuantumState(np.diag([0.0, 1.0])))


# ---------------------------------------------------------------------------
# driven two-level system with radiative decay ("fluorescence")

@dataclass(frozen=True)
class FluorescenceParams:
    """Resonantly driven two-level emitter: decay gamma, drive omega."""

    gamma: float
    omega: float
    dim = 2

    def __post_init__(self):
        qcore.require_finite_parameters(self, "gamma", "omega")
        if self.gamma <= 0 or self.omega < 0:
            raise ValueError("gamma must be positive and omega nonnegative")

    @property
    def big_gamma(self):
        """sqrt(gamma^2 - 16 omega^2); imaginary above omega = gamma/4."""
        return np.sqrt(complex(self.gamma ** 2 - 16.0 * self.omega ** 2))

    def lindblad_model(self):
        return dynamics.LindbladModel(
            0.5 * self.omega * qcore.sigma_x, [qcore.sigma_minus], rates=[self.gamma]
        )


def fluorescence_stationary_means(p):
    """Stationary (<sz>, <sy>) of the driven-decay Bloch equations."""
    denom = p.gamma ** 2 + 2.0 * p.omega ** 2
    return -p.gamma ** 2 / denom, 2.0 * p.gamma * p.omega / denom


def fluorescence_q_infinity(p, sz0, sy0):
    """Stationary series value 1 + <sz>_inf sz0 + <sy>_inf sy0."""
    sz_inf, sy_inf = fluorescence_stationary_means(p)
    return 1.0 + sz_inf * sz0 + sy_inf * sy0


def _fluor_auxiliary_integrals(p, t):
    """Integrals of gamma e^{-3 gamma s/4} z(s) and ... y(s) over [0, t].

    z(s) = cosh(s G/4) - (gamma/G) sinh(s G/4) and y(s) =
    (4 omega / G) sinh(s G/4) with G = sqrt(gamma^2 - 16 omega^2);
    evaluated in closed form through the decay exponents
    (-3 gamma +- G)/4, with the degenerate G -> 0 limit special-cased.
    """
    t = np.asarray(t, dtype=float)
    ga, om = p.gamma, p.omega
    big = p.big_gamma
    a = -0.75 * ga
    if abs(big) < 1e-6 * ga:
        # G -> 0: z -> 1 - gamma s / 4, y -> omega s
        i0 = (np.exp(a * t) - 1.0) / a
        i1 = (np.exp(a * t) * (a * t - 1.0) + 1.0) / (a * a)
        return ga * (i0 - 0.25 * ga * i1), ga * om * i1
    lp = (-3.0 * ga + big) / 4.0
    lm = (-3.0 * ga - big) / 4.0
    ip = (np.exp(lp * t) - 1.0) / lp
    im = (np.exp(lm * t) - 1.0) / lm
    int_cosh = 0.5 * (ip + im)
    int_sinh = 0.5 * (ip - im)
    int_z = int_cosh - (ga / big) * int_sinh
    int_y = (4.0 * om / big) * int_sinh
    return ga * int_z, ga * int_y


def fluorescence_q(p, sz0, sy0, t):
    """Quantumness series of the driven-decay model.

    The population term enters as -sz0, the sign of the Laplace-domain
    solution and of numerical propagation.
    """
    if sz0 ** 2 + sy0 ** 2 > 1.0 + 1e-9:
        raise ValueError("(sz0, sy0) must lie inside the Bloch disk")
    int_z, int_y = _fluor_auxiliary_integrals(p, t)
    q = 1.0 + (-sz0 * int_z + sy0 * int_y).real
    return q


def fluorescence_dq(p):
    """Degree of quantumness and the optimal Bloch angles.

    Returns (dq, angles) with dq = gamma sqrt(gamma^2 + 4 omega^2) /
    (gamma^2 + 2 omega^2); angles maps the direction diagonalizing the
    stationary state (theta, phi) and its time-reversed partner
    (theta_tilde, phi_tilde).
    """
    dq = p.gamma * np.sqrt(p.gamma ** 2 + 4.0 * p.omega ** 2) / (p.gamma ** 2 + 2.0 * p.omega ** 2)
    angles = {
        "theta": np.pi - np.arctan(2.0 * p.omega / p.gamma),
        "phi": 0.5 * np.pi,
        "theta_tilde": np.arctan(2.0 * p.omega / p.gamma),
        "phi_tilde": 1.5 * np.pi,
    }
    return float(dq), angles


def fluorescence_dephasing_limit(p):
    """Strong-drive effective model: drive plus pure dephasing at 3 gamma/4.

    The dephasing jump operator is Hermitian, so the dynamics is unital
    and its quantumness series is identically 1.
    """
    return dynamics.LindbladModel(
        0.5 * p.omega * qcore.sigma_x, [qcore.sigma_z], rates=[0.75 * p.gamma]
    )


# ---------------------------------------------------------------------------
# two dissipative qubits with an exchange drive

@dataclass(frozen=True)
class TwoQubitParams:
    """Pair of decaying qubits coupled by an x-x interaction."""

    gamma: float
    omega: float
    dim = 4

    def __post_init__(self):
        qcore.require_finite_parameters(self, "gamma", "omega")
        if self.gamma <= 0 or self.omega < 0:
            raise ValueError("gamma must be positive and omega nonnegative")

    @property
    def big_gamma2(self):
        """sqrt(gamma^2 + omega^2); distinct from the driven-decay G."""
        return float(np.sqrt(self.gamma ** 2 + self.omega ** 2))

    def lindblad_model(self):
        sm = qcore.sigma_minus
        eye = qcore.identity(2)
        return dynamics.LindbladModel(
            0.5 * self.omega * qcore.tensor_product(qcore.sigma_x, qcore.sigma_x),
            [qcore.tensor_product(sm, eye), qcore.tensor_product(eye, sm)],
            rates=[self.gamma, self.gamma],
        )


def twoqubit_stationary_matrix(p):
    """Closed-form stationary state in the (++, +-, -+, --) basis."""
    ga, om, big = p.gamma, p.omega, p.big_gamma2
    m = np.diag([om ** 2, om ** 2, om ** 2, 4.0 * ga ** 2 + om ** 2]).astype(complex)
    m[0, 3] = -2j * ga * om
    m[3, 0] = 2j * ga * om
    return m / (4.0 * big ** 2)


def twoqubit_optimal_vector(p):
    """Top eigenvector of the conjugated stationary state.

    Written in the cancellation-free form [i omega / sqrt(2 G (G +
    gamma)), 0, 0, sqrt((G + gamma) / 2 G)], which tends to the bare
    ground pair as omega -> 0 and to the balanced superposition with a
    relative i as omega -> infinity.
    """
    ga, big = p.gamma, p.big_gamma2
    v = np.zeros(4, dtype=complex)
    v[0] = 1j * p.omega / np.sqrt(2.0 * big * (big + ga))
    v[3] = np.sqrt((big + ga) / (2.0 * big))
    return v


def twoqubit_q_closed(p, t):
    """Closed quantumness series from the propagation-optimal state.

    The oscillatory term decays as e^{-gamma t}, matching the generator
    spectrum {0, -2 gamma, -gamma +- i omega} of the trace sector and
    agreeing with propagation to machine precision.
    """
    t = np.asarray(t, dtype=float)
    ga, om, big = p.gamma, p.omega, p.big_gamma2
    lam = 1.0 + ga / big
    q = (
        1.0
        + ga ** 2 * (1.0 + np.exp(-2.0 * ga * t)) / big ** 2
        + (2.0 * ga / big) * (1.0 - lam * np.exp(-ga * t) * np.cos(om * t))
    )
    return q


def twoqubit_dq(p):
    """Degree of quantumness gamma (gamma + 2 G) / G^2 of the coupled pair."""
    ga, big = p.gamma, p.big_gamma2
    return float(ga * (ga + 2.0 * big) / big ** 2)


def twoqubit_concurrence(p):
    """Concurrence omega / G of the optimal state."""
    return float(p.omega / p.big_gamma2)


def twoqubit_report(p):
    """Closed-form QuantumnessReport of the coupled pair."""
    dq = twoqubit_dq(p)
    return quantumness.QuantumnessReport(dq, QuantumState.pure(twoqubit_optimal_vector(p)),
                                         1.0 + dq, QuantumState(twoqubit_stationary_matrix(p)))


def twoqubit_reduced_q_closed(p, t):
    """Closed single-qubit series for a ground-state qubit next to an
    arbitrary partner."""
    t = np.asarray(t, dtype=float)
    ga, om, big = p.gamma, p.omega, p.big_gamma2
    q = 1.0 + ga ** 2 / big ** 2 + ga * np.exp(-ga * t) / big ** 2 * (
        om * np.sin(om * t) - ga * np.cos(om * t)
    )
    return q


def twoqubit_reduced(p):
    """Closed-form QuantumnessReport of one qubit of the pair: its traced stationary
    state is diagonal with top eigenvector |->, and D_Q = gamma^2 / G^2."""
    dq = float(p.gamma ** 2 / p.big_gamma2 ** 2)
    stationary = qcore.partial_trace(twoqubit_stationary_matrix(p), [2, 2], keep=0)
    return quantumness.QuantumnessReport(dq, QuantumState.pure(qcore.ket(2, 1)), 1.0 + dq,
                                         QuantumState(stationary))


# ---------------------------------------------------------------------------
# damped harmonic oscillator at finite temperature

@dataclass(frozen=True)
class OscillatorParams(_ThermalRates):
    """Thermal oscillator: decay gamma, beta*hw0, Fock-space cutoff."""

    gamma: float
    beta_hw0: float
    n_max: int = 60

    def __post_init__(self):
        qcore.require_finite_parameters(self, "gamma", "beta_hw0", "n_max")
        if self.n_max != int(self.n_max):
            raise ValueError(f"n_max must be a whole number, got {self.n_max}")
        # config files and sweeps give the cutoff as a float
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.gamma <= 0 or self.beta_hw0 <= 0 or self.n_max < 2:
            raise ValueError("need gamma > 0, beta_hw0 > 0 and n_max >= 2")
        tail = np.exp(-self.beta_hw0 * (self.n_max + 1))
        if tail > 1e-8:
            raise ValueError(
                f"stationary thermal weight above the cutoff is {tail:.2e} > 1e-8; raise n_max"
            )

    @classmethod
    def from_n_th(cls, gamma, n_th, n_max=60):
        return cls(gamma, float(np.log((n_th + 1.0) / n_th)), n_max)

    @property
    def dim(self):
        return self.n_max + 1

    def lindblad_model(self):
        return thermal_oscillator_model(self.kappa, self.zeta, self.n_max)


def thermal_oscillator_model(kappa, zeta, n_max):
    """Truncated damped oscillator with explicit up/down rates."""
    a = qcore.destroy(n_max + 1)
    return dynamics.LindbladModel(
        qcore.number_operator(n_max + 1), [a, a.conj().T], rates=[kappa, zeta]
    )


def truncated_thermal_state(p):
    """Normalized Boltzmann ladder on the truncated Fock space."""
    weights = np.exp(-p.beta_hw0 * np.arange(p.dim))
    return QuantumState(np.diag(weights / weights.sum()).astype(complex))


def oscillator_q(p, t):
    """Analytic series exp((kappa - zeta) t) = exp(gamma t)."""
    t = np.asarray(t, dtype=float)
    return np.exp((p.kappa - p.zeta) * t)


def oscillator_q_numeric(model_or_params, rho0, times):
    """Truncated adjoint propagation of the series, with a tail alarm.

    ``model_or_params`` may be OscillatorParams or a prebuilt truncated
    LindbladModel.  Raises when the Heisenberg image at t > 0 (at t = 0 it
    is rho0, and Q_0 exact) has more than 1e-3 of its diagonal weight on
    the top Fock level, a fraction that empirically tracks the relative
    truncation error of the growing series.  The alarm reads the image,
    so this runs the dual generator, not the trace pairing of ``q_series``.
    """
    model = (
        model_or_params.lindblad_model()
        if isinstance(model_or_params, OscillatorParams)
        else model_or_params
    )
    gd = dynamics.dual_liouvillian(model)
    rho0 = qcore.state_matrix(rho0)
    values = []
    for t, a_t in zip(times, dynamics.propagate_series(gd, rho0, times)):
        diag = np.abs(np.diag(a_t))
        if t > 0.0 and not diag[-1] <= 1e-3 * max(diag.max(), 1e-300):
            raise RuntimeError(
                f"truncation breach: top-level weight fraction {diag[-1] / diag.max():.2e}"
            )
        values.append(np.trace(a_t).real)
    return np.asarray(values)


def oscillator_q_extrapolated(p, times, cutoffs=None):
    """Cutoff-accelerated truncated series from the ground state.

    The truncation deficit of the growing series decays geometrically
    in the cutoff, so an Aitken step over three sub-cutoffs of n_max
    removes it.  Raises a truncation breach when the last cutoff
    increment moves the value by more than 2 % relatively, since the
    geometric regime can no longer be trusted there.
    """
    if cutoffs is None:
        cutoffs = (p.n_max - 20, p.n_max - 10, p.n_max)
    if len(cutoffs) != 3 or not all(c >= 2 for c in cutoffs):
        raise ValueError("need three cutoffs >= 2")
    runs = []
    for n in sorted(cutoffs):
        model = thermal_oscillator_model(p.kappa, p.zeta, n)
        ground = QuantumState.pure(qcore.ket(n + 1, 0))
        runs.append(quantumness.q_series(model, ground, times).values)
    q0, q1, q2 = runs
    d1, d2 = q1 - q0, q2 - q1
    if not np.all(np.abs(d2) <= 0.02 * np.abs(q2)):
        worst = (np.abs(d2) / np.abs(q2)).max()
        raise RuntimeError(f"truncation breach: cutoff increment still moves Q by {worst:.2e}")
    denom = d1 - d2
    safe = np.abs(denom) > 1e-14 * np.abs(q2)
    correction = np.where(safe, d2 * d2 / np.where(safe, denom, 1.0), 0.0)
    return q2 + correction


def oscillator_dqr(p):
    """Renormalized degree 1 - e^{-beta hw0} of the thermal oscillator."""
    return float(-np.expm1(-p.beta_hw0))
