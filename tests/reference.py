"""Reference constructions that the tests compare the package against.

None of these is on a command's path: the GF(2**n) arithmetic is the direct
definition that the MUB trace masks are checked against, the ancilla-extended
channel is the (n+1)-qubit circuit behind the oracle's one-register ancilla
identity, the Kronecker-product Pauli basis is the textbook form of the
package's scattered Pauli matrices, and random_channel, random_pauli_channel
and seven_kinds give the test channels.
"""

import numpy as np

from chitomo.channels import Channel, KrausSet, PauliChannel, matrix_to_json
from chitomo.pauli import (
    _IRREDUCIBLE_POLY,
    DENSE_QUBIT_CAP,
    DenseCapError,
    PauliLabel,
    all_labels,
    pauli_matrix,
)


# ---------------------------------------------------------------------------
# GF(2**n) arithmetic (polynomial basis, elements as bit masks)

def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _polymod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf_mul(a: int, b: int, n: int) -> int:
    """Multiply two GF(2**n) elements in the canonical polynomial basis."""
    return _polymod(_clmul(a, b), _IRREDUCIBLE_POLY[n])


def gf_trace(a: int, n: int) -> int:
    """Field trace GF(2**n) -> GF(2)."""
    t = 0
    p = a
    for _ in range(n):
        t ^= p
        p = gf_mul(p, p, n)
    return t & 1


# ---------------------------------------------------------------------------
# Channels

def modified_channel_offdiag(
    channel: Channel, m: PauliLabel, n_label: PauliLabel
) -> KrausSet:
    """Ancilla-assisted channel on n+1 qubits (the circuit of the oracle's ancilla identity).

    The ancilla is qubit 0 (most significant factor).  The pre-channel
    unitary is: Hadamard on the ancilla, E_m^dag on the main register
    controlled on the ancilla being 1, E_n^dag anti-controlled (ancilla 0);
    the original channel then acts on the main register alone.
    """
    if m.n != channel.n or n_label.n != channel.n:
        raise ValueError("labels must match the channel qubit count")
    if channel.n + 1 > DENSE_QUBIT_CAP:
        raise DenseCapError(
            f"ancilla-extended channel needs n+1 <= {DENSE_QUBIT_CAP}"
        )
    d = 2**channel.n
    h = 1 / np.sqrt(2)
    # (I (x) A_k) V = [[A_k E_n^dag, A_k E_n^dag], [A_k E_m^dag, -A_k E_m^dag]] / sqrt(2)
    top = channel.operators @ (h * pauli_matrix(n_label).conj().T)
    bottom = channel.operators @ (h * pauli_matrix(m).conj().T)
    out = np.empty((len(channel.operators), 2 * d, 2 * d), dtype=complex)
    out[:, :d, :d] = out[:, :d, d:] = top
    out[:, d:, :d] = bottom
    out[:, d:, d:] = -bottom
    return KrausSet(channel.n + 1, out)


def random_channel(n: int, rng: np.random.Generator) -> KrausSet:
    """Half a Haar-ish unitary, half a random diagonal Pauli mixture."""
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    w = rng.random(4**n)
    w /= w.sum()
    ops = [np.sqrt(0.5) * u]
    for a, wa in zip(all_labels(n), w):
        if wa > 0:
            ops.append(np.sqrt(0.5 * wa) * pauli_matrix(a))
    return KrausSet(n, ops)


def random_pauli_channel(n: int, rng: np.random.Generator, ops: int = 4) -> PauliChannel:
    """A Pauli channel on ``ops`` distinct random packed labels, with random
    positive weights that sum to 1."""
    labels = rng.choice(4**n, size=min(ops, 4**n), replace=False).astype(np.int64)
    w = rng.random(len(labels)) + 0.1
    return PauliChannel(n, labels, w / w.sum())


def kron_pauli_basis(n: int) -> np.ndarray:
    """All 4**n Pauli matrices in canonical index order, shape (4**n, D, D):
    Kronecker products of the one-qubit I, X, Y, Z, qubit 0's factor leftmost."""
    single = [pauli_matrix(a) for a in all_labels(1)]
    out = [np.ones((1, 1), dtype=complex)]
    for _ in range(n):
        out = [np.kron(a, b) for a in out for b in single]
    return np.stack(out)


def pauli_channel_labels(channel: PauliChannel) -> list[PauliLabel]:
    """The channel's packed labels as PauliLabel objects, in order."""
    return [PauliLabel.from_packed(channel.n, a) for a in channel.labels]


def seven_kinds(n):
    """One spec of each channel-spec kind at n qubits."""
    d = 2**n
    flip = pauli_matrix(PauliLabel(n, 1, 0))
    return {
        "identity": {"n": n, "kind": "identity"},
        "depolarizing": {"n": n, "kind": "depolarizing", "p": 0.3},
        "pauli_mixture": {"n": n, "kind": "pauli_mixture",
                          "weights": {"I" * n: 0.6, "X" * n: 0.25, "Y" + "Z" * (n - 1): 0.15}},
        "unitary": {"n": n, "kind": "unitary", "generator": "Y" + "X" * (n - 1), "theta": 0.7},
        "amplitude_damping": {"n": n, "kind": "amplitude_damping", "gamma": 0.25},
        "kraus": {"n": n, "kind": "kraus", "operators": [
            matrix_to_json(np.sqrt(0.9) * np.eye(d)), matrix_to_json(np.sqrt(0.1) * flip)]},
        "compose": {"n": n, "kind": "compose", "children": [
            {"n": n, "kind": "depolarizing", "p": 0.2},
            {"n": n, "kind": "unitary", "generator": "Z" * n, "theta": 0.4}]},
    }
