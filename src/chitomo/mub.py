"""Mutually unbiased bases as explicit state vectors.

The D+1 bases produced by :func:`chitomo.pauli.mub_classes` are realized here
as concrete unit vectors.  State k of base J is the simultaneous eigenvector
of the class-J generators with eigenvalue (-1)^{k_i} for generator i.  Each
base is written down in closed form: base 0 is a permutation of the
computational basis, and every other base is one stabilizer vector times a
D x D sign matrix, O(D^2) work per base.  The full set of D(D+1) states is an
exact state 2-design, which is what makes design averages interchangeable
with Haar averages.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .pauli import DENSE_QUBIT_CAP, DenseCapError, index_bit_tables, mub_class, pauli_action

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=None)
def design_basis(n: int, J: int) -> np.ndarray:
    """D x D unitary whose column k is state k of base J.

    Row x of the result is qubit-order basis state q = rev(x) (bit i =
    qubit i), the bit reversal, because qubit 0 is the most significant
    tensor factor.  Base 0 is the permutation with column k = |rev(k)>.  For
    J >= 1 generator i has X only on qubit i, so Z on qubit i flips the sign
    of generator i alone: state 0 is the n projectors (I + g_i)/2 applied to
    |0> and normalized (each g_i applied as the signed permutation of
    :func:`chitomo.pauli.pauli_action`), and column k is Z^k applied to it,
    a sign (-1)^{|rev(x) AND k|} per row.  State 0 has full support, so every
    column's first amplitude is the positive real one at x = 0.  O(D^2) per
    base; the cache holds every base up to the dense cap (about 4.4 MB).
    """
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"dense states limited to n <= {DENSE_QUBIT_CAP}")
    d = 2**n
    if not 0 <= J <= d:
        raise ValueError(f"base index J={J} out of range for n={n}")
    generators = mub_class(n, J).generators  # also rejects n < 1
    rev, parity = index_bit_tables(n)
    if J == 0:
        return np.eye(d, dtype=complex)[rev]
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    for g in generators:
        src, w = pauli_action(g)
        v = (v + w * v[src]) / 2
    v /= np.linalg.norm(v)
    return v[:, None] * (1 - 2 * parity[rev[:, None] & np.arange(d)])


@functools.lru_cache(maxsize=None)
def design_states(n: int) -> np.ndarray:
    """All D(D+1) design states as rows, base J's state k at row J*D + k.

    Read-only; the cache holds every n up to the dense cap (about 4.4 MB).
    """
    v = np.concatenate([design_basis(n, J).T for J in range(2**n + 1)])
    v.setflags(write=False)
    return v


def design_average_survival(op1: np.ndarray, op2: np.ndarray) -> complex:
    """Average of <psi|op1|psi><psi|op2|psi> over the full design.

    Equals the Haar second-moment average (Tr op1 Tr op2 + Tr op1 op2)
    / (D(D+1)) because the design is an exact 2-design.
    """
    op1 = np.asarray(op1, dtype=complex)
    op2 = np.asarray(op2, dtype=complex)
    d = op1.shape[0]
    n = d.bit_length() - 1
    if op1.shape != (d, d) or op2.shape != (d, d) or 2**n != d:
        raise ValueError("operators must be square with power-of-two dimension")
    v = design_states(n)
    e1 = np.sum((v.conj() @ op1) * v, axis=1)
    e2 = np.sum((v.conj() @ op2) * v, axis=1)
    return complex(e1 @ e2) / len(v)


def as_distribution(probs: np.ndarray, J: int) -> np.ndarray:
    """Check and tidy base-J outcome probabilities (one row per last axis).

    Clamps tiny negative probabilities to zero and renormalizes each row;
    deviations beyond 1e-6 raise, smaller ones are logged.
    """
    worst = float(np.max(np.abs(np.sum(probs, axis=-1) - 1)))
    if worst > 1e-6 or float(np.min(probs)) < -1e-6:
        raise ValueError(f"base-{J} probabilities are not a distribution (mass off by {worst:.3e})")
    if worst > 1e-9:
        logger.debug("base-%d probability mass deviates by %.3e", J, worst)
    clamped = np.clip(probs, 0.0, None)
    clip_mag = float(np.sum(clamped - probs))
    if clip_mag > 0:
        logger.debug("clamped negative probability mass %.3e in base %d", clip_mag, J)
    return clamped / np.sum(clamped, axis=-1, keepdims=True)
