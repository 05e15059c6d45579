"""Environment non-classicality measures for open quantum dynamics.

The package computes the time-dependent quantumness series Q_t and the
degree of environment quantumness D_Q for dissipative models, certifies
Q_t = 1 for every classical-noise-representable dynamics (stochastic
Hamiltonians, Hamiltonian ensembles, unital collisional models), and
cross-validates closed forms against exact joint-space and superoperator
propagation.
"""

from . import dynamics, microscopic, models, qcore, quantumness, stochastic
from .dynamics import (
    LindbladModel,
    Superoperator,
    dual_liouvillian,
    liouvillian,
    propagate,
    stationary_state,
    time_reversed_state,
)
from .microscopic import (
    JointModel,
    dual_map_apply,
    hamiltonian_ensemble_reduction,
    q_derivative,
    quantumness_direct,
    quantumness_via_dual,
    reduced_state,
    split_contributions,
)
from .qcore import (
    BoundViolationError,
    DegenerateSteadyStateError,
    QuantumState,
    concurrence,
    hermitian_eigensystem,
    matrix_exponential,
    partial_trace,
    tensor_product,
)
from .quantumness import (
    QuantumnessReport,
    QuantumnessSeries,
    degree_of_quantumness,
    q_series,
    renormalized_degree,
    unitality_check,
)
from .stochastic import (
    CollisionalModel,
    NoiseProcess,
    WaitingTime,
    collisional_q,
    sample_noise_path,
    stochastic_q,
)

__version__ = "0.1.0"
