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

from .pauli import DENSE_QUBIT_CAP, DenseCapError, mub_class

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=None)
def design_basis(n: int, J: int) -> np.ndarray:
    """D x D unitary whose column k is state k of base J.

    Work is in qubit order q (bit i = qubit i); row x of the result is
    q = rev(x), the bit reversal, because qubit 0 is the most significant
    tensor factor.  Base 0 is the permutation with column k = |rev(k)>.  For
    J >= 1 generator i has X only on qubit i, so Z on qubit i flips the sign
    of generator i alone: state 0 is the n projectors (I + g_i)/2 applied to
    |0> and normalized, and column k is Z^k applied to it, a sign
    (-1)^{|q AND k|} per row.  State 0 has full support, so every column's
    first amplitude is the positive real one at x = 0.  O(D^2) per base;
    the cache holds every base up to the dense cap (about 4.4 MB).
    """
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"dense states limited to n <= {DENSE_QUBIT_CAP}")
    d = 2**n
    if not 0 <= J <= d:
        raise ValueError(f"base index J={J} out of range for n={n}")
    generators = mub_class(n, J).generators  # also rejects n < 1
    q = np.arange(d)
    rev = np.zeros(d, dtype=np.int64)
    parity = np.zeros(d, dtype=np.int64)
    for b in range(n):
        rev |= ((q >> b) & 1) << (n - 1 - b)
        parity ^= (q >> b) & 1
    if J == 0:
        return np.eye(d, dtype=complex)[rev]
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    for g in generators:
        # g|q> = i^{|x AND z|} (-1)^{|z AND q|} |q XOR x>, read at row q XOR x
        src = q ^ g.x_bits
        phase = 1j ** (g.x_bits & g.z_bits).bit_count()
        v = (v + phase * (1 - 2 * parity[g.z_bits & src]) * v[src]) / 2
    v /= np.linalg.norm(v)
    return v[rev, None] * (1 - 2 * parity[rev[:, None] & q])


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
    total = 0.0 + 0.0j
    for J in range(d + 1):
        b = design_basis(n, J)
        e1 = np.einsum("ik,ij,jk->k", b.conj(), op1, b, optimize=True)
        e2 = np.einsum("ik,ij,jk->k", b.conj(), op2, b, optimize=True)
        total += np.sum(e1 * e2)
    return complex(total / (d * (d + 1)))


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
