"""Exact mode against the oracle at n = 5-6, for every spec kind.

Exact mode takes every one of the D(D+1) design states once with its exact
expectation, so its diagonal and off-diagonal estimates equal chi entries up
to rounding.  Tier-1 checks this at small n; here each of the seven factory
kinds is checked at n = 5 and 6, one diagonal label and one pair each,
against ``exact_chi_entries``.  A plain test, kept out of tier-1 for its
few seconds:

    python -m pytest bench/test_exact_sweep.py
"""

import numpy as np
import pytest

from chitomo.channels import channel_factory, matrix_to_json
from chitomo.estimator import EstimatorConfig, estimate_chi_diag, estimate_chi_offdiag
from chitomo.oracle import exact_chi_entries
from chitomo.pauli import PauliLabel, pauli_matrix

ENUMERATE = EstimatorConfig(mode="exact")


def _case(kind, n):
    """A spec of the kind on n qubits, and the labels (m, n_label) whose chi_mm
    and chi_mn are checked, chosen where the channel's chi is nonzero."""
    rest = "I" * (n - 2)
    ident, xy = "I" * n, "XY" + rest
    rotation = {"n": n, "kind": "unitary", "generator": xy, "theta": 0.9}
    if kind == "identity":
        return {"n": n, "kind": "identity"}, ident, "XZ" + rest
    if kind == "depolarizing":
        return {"n": n, "kind": "depolarizing", "p": 0.3}, ident, "YZ" + rest
    if kind == "pauli_mixture":
        weights = {ident: 0.6, xy: 0.25, "ZIZ" + rest[1:]: 0.15}
        return {"n": n, "kind": "pauli_mixture", "weights": weights}, xy, ident
    if kind == "unitary":
        return rotation, ident, xy
    if kind == "amplitude_damping":
        return {"n": n, "kind": "amplitude_damping", "gamma": 0.3}, "Z" + "I" * (n - 1), ident
    if kind == "kraus":  # an identity part and a rotation part: chi_{I, XY} is complex
        rot = np.cos(0.45) * np.eye(2**n) - 1j * np.sin(0.45) * pauli_matrix(
            PauliLabel.from_string(xy))
        ops = [np.sqrt(0.8) * np.eye(2**n), np.sqrt(0.2) * rot]
        return {"n": n, "kind": "kraus", "operators": [matrix_to_json(a) for a in ops]}, xy, ident
    # compose: small-K children (64 operators at n = 6), amplitude damping first
    return {"n": n, "kind": "compose", "children": [
        {"n": n, "kind": "amplitude_damping", "gamma": 0.3}, rotation]}, xy, ident


KINDS = ("identity", "depolarizing", "pauli_mixture", "unitary", "amplitude_damping",
         "kraus", "compose")


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("kind", KINDS)
def test_exact_mode_equals_oracle(kind, n):
    spec, m, n_label = _case(kind, n)
    channel = channel_factory(spec)
    m, n_label = PauliLabel.from_string(m), PauliLabel.from_string(n_label)
    diag, offdiag = exact_chi_entries(channel, [(m, m), (m, n_label)])
    assert abs(diag) > 1e-3 or abs(offdiag) > 1e-3  # not a trivial zero
    assert abs(estimate_chi_diag(channel, m, ENUMERATE).value - diag) <= 1e-9
    assert abs(estimate_chi_offdiag(channel, m, n_label, ENUMERATE).value - offdiag) <= 1e-9
