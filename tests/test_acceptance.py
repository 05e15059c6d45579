"""Acceptance gate: every criterion at its stated tolerance.

Each test drives the corresponding criterion from envq.acceptance at
full scale and prints its one-line verdict; the suite is what
``envq verify`` runs.
"""

import pytest

from envq import acceptance

CRITERIA = [
    pytest.param(acceptance.criterion_oracle_identity, id="1-oracle-identity"),
    pytest.param(acceptance.criterion_thermal, id="2-thermal-tls"),
    pytest.param(acceptance.criterion_fluorescence, id="3-fluorescence"),
    pytest.param(acceptance.criterion_sign_arbitration, id="4-sign-arbitration"),
    pytest.param(acceptance.criterion_two_qubit, id="5-two-qubit"),
    pytest.param(acceptance.criterion_nonmarkov, id="6-nonmarkov-decay"),
    pytest.param(acceptance.criterion_classicality, id="7-classicality-suite"),
    pytest.param(acceptance.criterion_poisson_limit, id="8-poisson-limit"),
    pytest.param(acceptance.criterion_oscillator, id="9-oscillator"),
    pytest.param(acceptance.criterion_derivatives, id="10-derivative-identities"),
    pytest.param(acceptance.criterion_determinism, id="11-determinism"),
]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_acceptance_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print()
        print(acceptance.format_result(result))
    assert result.passed, acceptance.format_result(result)
