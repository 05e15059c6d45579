"""Property tests of the paper's invariants, driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envq import dynamics, models, qcore, quantumness

MODELS = {
    "thermal-tls": models.ThermalTlsParams(1.0, 1.3).lindblad_model(),
    "fluorescence": models.FluorescenceParams(1.0, 1.5).lindblad_model(),
    "two-qubit": models.TwoQubitParams(1.0, 1.2).lindblad_model(),
}
TIMES = np.linspace(0.0, 6.0, 13)


def rescaled(model, s):
    """The same model on a clock running s times faster: H -> s H, V -> sqrt(s) V."""
    return dynamics.LindbladModel(s * model.h_bar, [np.sqrt(s) * v for v in model.jump_ops],
                                  rates=model.rates)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), log_s=st.floats(-12.0, 12.0))
@example(name="thermal-tls", log_s=-12.0)
@example(name="fluorescence", log_s=-12.0)
@example(name="two-qubit", log_s=-12.0)
@example(name="thermal-tls", log_s=12.0)
@example(name="fluorescence", log_s=12.0)
@example(name="two-qubit", log_s=12.0)
def test_degree_is_invariant_under_time_rescaling(name, log_s):
    model, s = MODELS[name], 10.0 ** log_s
    fast = rescaled(model, s)
    dq = quantumness.degree_of_quantumness(model).dq
    assert quantumness.degree_of_quantumness(fast).dq == pytest.approx(dq, rel=1e-12)
    rho0 = qcore.random_state(model.dim, np.random.default_rng(model.dim))
    # QuantumnessSeries raises BoundViolationError outside [0, dim]
    series = quantumness.q_series(fast, rho0, TIMES / s).values
    assert series.min() >= 0.0 and series.max() <= model.dim
    reference = quantumness.q_series(model, rho0, TIMES).values
    assert np.abs(series - reference).max() < 1e-10
