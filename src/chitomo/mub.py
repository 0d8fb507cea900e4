"""Mutually unbiased bases as explicit state vectors.

The D+1 bases produced by :func:`chitomo.pauli.mub_classes` are realized here
as concrete unit vectors.  State k of base J is the simultaneous eigenvector
of the class-J generators with eigenvalue (-1)^{k_i} for generator i, built
by applying the n sign projectors to a computational fiducial vector.  The
full set of D(D+1) states is an exact state 2-design, which is what makes
design averages interchangeable with Haar averages.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .pauli import DENSE_QUBIT_CAP, DenseCapError, mub_class, pauli_matrix

logger = logging.getLogger(__name__)

# A design-state amplitude is either ~0 or at least 1/sqrt(D), so anything
# above this threshold is a genuine nonzero entry.
_AMPLITUDE_EPS = 1e-8


@functools.lru_cache(maxsize=64)
def design_basis(n: int, J: int) -> np.ndarray:
    """D x D unitary whose column k is state k of base J."""
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"dense states limited to n <= {DENSE_QUBIT_CAP}")
    d = 2**n
    if not 0 <= J <= d:
        raise ValueError(f"base index J={J} out of range for n={n}")
    gens = [pauli_matrix(g) for g in mub_class(n, J).generators]
    basis = np.empty((d, d), dtype=complex)
    for k in range(d):
        basis[:, k] = _build_state(gens, k, d)
    return basis


def _build_state(gens: list[np.ndarray], k: int, d: int) -> np.ndarray:
    for fiducial in range(d):
        v = np.zeros(d, dtype=complex)
        v[fiducial] = 1.0
        for i, g in enumerate(gens):
            sign = -1.0 if (k >> i) & 1 else 1.0
            v = (v + sign * (g @ v)) / 2
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            v /= norm
            first = int(np.argmax(np.abs(v) > _AMPLITUDE_EPS))
            v *= np.abs(v[first]) / v[first]
            return v
    raise RuntimeError(f"no fiducial survives the projectors for k={k}")


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
