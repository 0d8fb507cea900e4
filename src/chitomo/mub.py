"""Mutually unbiased bases as explicit state vectors.

The D+1 classes of :func:`chitomo.pauli.class_generators` are realized here
as concrete unit vectors.  State k of base J is the simultaneous eigenvector
of the class-J generators with eigenvalue (-1)^{k_i} for generator i.  Each
base is written down in closed form: base 0 is a permutation of the
computational basis, and every other base is one stabilizer vector times a
D x D sign matrix, O(D^2) work per base; all D+1 bases of n are built in one
batch.  The full set of D(D+1) states is an
exact state 2-design, which is what makes design averages interchangeable
with Haar averages.  The module builds states only: the triplet sampler of
:mod:`chitomo.estimator` checks and renormalizes its own outcome rows.
"""

from __future__ import annotations

import functools

import numpy as np

from .pauli import DENSE_QUBIT_CAP, DenseCapError, class_generators, index_bit_tables


@functools.lru_cache(maxsize=None)
def design_bases(n: int) -> np.ndarray:
    """All D+1 bases as one read-only (D+1, D, D) array: column k of
    ``design_bases(n)[J]`` is state k of base J.

    Row x of a base is qubit-order basis state q = rev(x) (bit i = qubit i),
    the bit reversal, because qubit 0 is the most significant tensor factor.
    Base 0 is the permutation with column k = |rev(k)>.  For J >= 1 generator
    i has X only on qubit i and Z on the qubits a of row i of the symmetric
    bit matrix B_J (its Z mask), so state 0, the n projectors (I + g_i)/2
    applied to |0>, is psi_J(q) = i^(q^T B_J q mod 4) / D before it is
    normalized: full support, a positive real first amplitude at x = 0.
    Column k is Z^k applied to it, a sign (-1)^{|rev(x) AND k|} per row.  All
    D classes J >= 1 are built at once from :func:`chitomo.pauli.class_generators`.
    O(D^3) in all; the cache holds every n up to the dense cap (4.3 MB at n = 6).
    """
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"dense states limited to n <= {DENSE_QUBIT_CAP}")
    if n < 1:
        raise ValueError(f"design states need n >= 1, got n={n}")
    d = 2**n
    rev, parity, _ = index_bit_tables(n)
    q = rev[:, None] >> np.arange(n) & 1  # [x, i]: bit i of q = rev(x)
    b = class_generators(n)[1:, :, None] >> (n + np.arange(n)) & 1  # [J - 1, i, a]
    # i^e with every zero part +0 (-1j would have a -0 real part)
    v = np.array([1, 1j, -1, 0 - 1j])[np.sum((q @ b) * q, axis=-1) & 3] / d
    # Every amplitude is a power of i over D, so each norm is exact in any
    # summation order: the batch matches one base built at a time, bit for bit.
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d, dtype=complex)[rev]
    np.multiply(v[:, :, None], 1 - 2 * parity[rev[:, None] & np.arange(d)], out=bases[1:])
    bases.setflags(write=False)
    return bases


def design_basis(n: int, J: int) -> np.ndarray:
    """D x D unitary whose column k is state k of base J: a read-only view
    of base J of :func:`design_bases`."""
    bases = design_bases(n)
    if not 0 <= J <= 2**n:
        raise ValueError(f"base index J={J} out of range for n={n}")
    return bases[J]


def design_states(n: int) -> np.ndarray:
    """All D(D+1) design states as rows, base J's state k at row J*D + k: the
    columns of :func:`design_bases`, base after base.  Column-major, the
    layout the oracle's design sums have always read: their rounding depends
    on it.

    Read-only, like the cached :func:`design_bases` it is copied from.
    """
    v = design_bases(n).transpose(1, 0, 2).reshape(2**n, -1).T
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

