"""Symplectic bit-vector algebra for the n-qubit Pauli group.

A Pauli operator is identified, up to phase, by two n-bit masks: bit ``i`` of
``x_bits`` / ``z_bits`` records an X / Z factor on qubit ``i``.  Qubit 0 is
the leftmost character of the string form ("XIZ" puts X on qubit 0) and the
most significant tensor factor of the matrix form.  X and Y set the X bit, Z
and Y the Z bit, so a qubit's letter is "IXZY"[x + 2z]; the canonical index
digits (:func:`label_index`) are I=0, X=1, Y=2, Z=3.  The representative matrix
of a label is the Hermitian tensor-product Pauli: a qubit with both bits set
contributes the standard Y.  Products of two representatives close up to a
power of i, which :func:`pauli_mul` tracks as an exponent mod 4.  Arrays of
labels hold each one packed into one int64, x_bits low and z_bits above them
(:attr:`PauliLabel.packed`); this module alone packs and unpacks them.

The module also builds the partition of the 4**n labels into D+1 maximal
commuting classes (D = 2**n), one per mutually unbiased basis, using the
GF(2**n) symmetric-matrix construction with a fixed irreducible polynomial
per qubit count.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

# Dense-matrix operations (pauli_matrix and everything downstream) are capped
# here; symbolic bit-vector operations work far beyond.
DENSE_QUBIT_CAP = 6

# MUB classes need GF(2**n); the irreducible-polynomial table below limits n.
MUB_QUBIT_CAP = 12

# A label's letters in either ASCII case; str.upper would also read U+0131 as I.
_UPPER = str.maketrans("ixyz", "IXYZ")
# Each letter's X bit and Z bit.
_X_BIT = str.maketrans("IXYZ", "0110")
_Z_BIT = str.maketrans("IXYZ", "0011")

# Lexicographically smallest irreducible polynomial of each degree over GF(2)
# (bit i = coefficient of x**i, constant term forced to 1).
_IRREDUCIBLE_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
}


class DenseCapError(ValueError):
    """Raised when an operation would require dense matrices beyond the cap."""


@dataclass(frozen=True)
class PauliLabel:
    """Phase-free n-qubit Pauli operator in symplectic form."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x_bits <= mask or not 0 <= self.z_bits <= mask:
            raise ValueError(f"bit masks out of range for n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "PauliLabel":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, s: str) -> "PauliLabel":
        """Parse a Pauli string such as " xIz"; ValueError names a non-string,
        an empty string or the first letter outside IXYZ in either ASCII case."""
        if not isinstance(s, str):
            raise ValueError(f"expected a Pauli string, got {s!r}")
        s = s.strip().translate(_UPPER)
        if not s:
            raise ValueError("empty Pauli string")
        if bad := s.lstrip("IXYZ"):
            raise ValueError(f"invalid Pauli character {bad[0]!r} in {s!r}")
        rev = s[::-1]  # qubit 0, the leftmost letter, is bit 0
        return cls(len(s), int(rev.translate(_X_BIT), 2), int(rev.translate(_Z_BIT), 2))

    @classmethod
    def from_packed(cls, n: int, v) -> "PauliLabel":
        """Inverse of :attr:`packed`: v any integer, numpy's included."""
        v = operator.index(v)
        return cls(n, v & ((1 << n) - 1), v >> n)

    def to_string(self) -> str:
        """The one-label case of :func:`label_strings`."""
        return label_strings(self.n, [self.packed])[0]

    def __str__(self) -> str:
        return self.to_string()

    @property
    def packed(self) -> int:
        """The label as one 2n-bit int, x_bits low and z_bits above them."""
        return self.x_bits | self.z_bits << self.n


def label_index(a: PauliLabel) -> int:
    """Position of a label in the canonical operator-basis ordering.

    Per-qubit digits I=0, X=1, Y=2, Z=3; qubit 0 is the most significant
    digit.  The identity always sits at index 0.
    """
    x, z = a.x_bits, a.z_bits  # a qubit's digit is (x XOR z) + 2 z
    return sum(((x ^ z) >> i & 1 | (z >> i & 1) << 1) << 2 * (a.n - 1 - i) for i in range(a.n))


def _index_packed(n: int, idx):
    """Packed label of the canonical index idx, an int or an int array."""
    v = 0
    for i in range(n):
        digit = (idx >> 2 * (n - 1 - i)) & 3  # I=0, X=1, Y=2, Z=3
        v = v | ((digit + 1) >> 1 & 1) << i | (digit >> 1) << (n + i)
    return v


def label_from_index(n: int, idx: int) -> PauliLabel:
    """Inverse of :func:`label_index`."""
    if not 0 <= idx < 4**n:
        raise ValueError(f"index {idx} out of range for n={n}")
    return PauliLabel.from_packed(n, _index_packed(n, idx))


def all_labels(n: int) -> list[PauliLabel]:
    """All 4**n labels in canonical index order."""
    return [PauliLabel.from_packed(n, v) for v in all_packed_labels(n).tolist()]


def all_packed_labels(n: int) -> np.ndarray:
    """All 4**n packed labels in canonical index order, as one int64 array."""
    return _index_packed(n, np.arange(4**n))


def packed_from_strings(n: int, letters: str) -> np.ndarray:
    """Packed labels of the n-letter Pauli strings joined in ``letters``,
    which holds only the upper-case letters IXYZ."""
    place = 1 << np.arange(n, dtype=np.int64)  # qubit 0, the leftmost letter, is bit 0
    x, z = (np.frombuffer(letters.translate(bit).encode(), np.uint8).reshape(-1, n) - 48
            for bit in (_X_BIT, _Z_BIT))
    return x @ place | (z @ place) << n


def label_strings(n: int, labels) -> list[str]:
    """The n-letter strings of many packed labels (Python ints past 63 bits,
    n > 31), qubit 0 leftmost: a qubit's letter is "IXZY"[x + 2z]."""
    labels = np.asarray(labels, dtype=np.int64 if n < 32 else object)
    qubits, out = np.arange(n), []
    for lo in range(0, len(labels), 1 << 16):  # (labels, n) arrays of 2**16 labels at most
        part = labels[lo:lo + (1 << 16), None]
        codes = ((part >> qubits & 1) | (part >> (qubits + n) & 1) << 1).astype(np.uint8)
        letters = np.frombuffer(b"IXZY", np.uint8)[codes].view(f"S{n}")
        out += letters.astype(f"U{n}").ravel().tolist()
    return out


def _check_same_n(a: PauliLabel, b: PauliLabel) -> None:
    if a.n != b.n:
        raise ValueError(f"mismatched qubit counts: {a.n} vs {b.n}")


def pauli_mul(a: PauliLabel, b: PauliLabel) -> tuple[PauliLabel, int]:
    """Multiply two labels: returns (c, theta) with M(a) @ M(b) = i**theta * M(c).

    The phase exponent is relative to the Hermitian representative matrices
    of :func:`pauli_matrix`.
    """
    _check_same_n(a, b)
    c = PauliLabel(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)
    # i**(ya + yb - yc) from the per-factor Y phases, times (-1) for every
    # Z-past-X swap when concatenating the two operators.
    ya = (a.x_bits & a.z_bits).bit_count()
    yb = (b.x_bits & b.z_bits).bit_count()
    yc = (c.x_bits & c.z_bits).bit_count()
    swaps = (a.z_bits & b.x_bits).bit_count()
    theta = (ya + yb - yc + 2 * swaps) % 4
    return c, theta


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """0 if the operators commute, 1 if they anticommute."""
    _check_same_n(a, b)
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) & 1


@functools.lru_cache(maxsize=None)
def index_bit_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rev, parity, popcount) over the 2**n indices: rev[c] is c with its n
    bits reversed, popcount[c] its bit count and parity[c] that count's
    parity.  Read-only."""
    bits = np.arange(1 << n) >> np.arange(n)[:, None] & 1  # bits[b, c]: bit b of c
    rev = (1 << np.arange(n - 1, -1, -1)) @ bits
    popcount = bits.sum(axis=0)
    parity = popcount & 1
    for table in (rev, parity, popcount):
        table.setflags(write=False)
    return rev, parity, popcount


# i**k for k up to the dense cap, as Python computes 1j**(k mod 4) (signed
# zeros included), and the sign (-1)**b of a parity bit b.
_PHASES = np.array([1j**(k % 4) for k in range(DENSE_QUBIT_CAP + 1)])
_SIGNS = np.array([1, -1])


def pauli_actions(n: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutations of many packed labels at once: (P_l v)[r] =
    w[l, r] * v[src[l, r]] for the label labels[l], as (L, D) arrays.

    P|q> = i^{|x AND z|} (-1)^{|z AND q|} |q XOR x> in qubit order q (bit i
    = qubit i).  Matrix index c is q = rev(c), because qubit 0 is the most
    significant tensor factor, so row r reads src = r XOR rev(x) with weight
    i^{|x AND z|} (-1)^{|rev(z) AND src|}.
    """
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(f"dense matrices limited to n <= {DENSE_QUBIT_CAP}, got n={n}")
    rev, parity, popcount = index_bit_tables(n)
    labels = np.asarray(labels, dtype=np.int64)
    xs, zs = labels & ((1 << n) - 1), labels >> n
    src = np.arange(1 << n) ^ rev[xs][:, None]
    return src, _PHASES[popcount[xs & zs]][:, None] * _SIGNS[parity[rev[zs][:, None] & src]]


def pauli_matrices(n: int, labels, scale=None) -> np.ndarray:
    """Dense Hermitian representative matrices of many packed labels, shape
    (L, D, D), scattered from the signed permutations of :func:`pauli_actions`;
    each times scale[l], if given, applied to the (L, D) weights before the scatter."""
    src, w = pauli_actions(n, labels)
    if scale is not None:
        w = np.asarray(scale)[:, None] * w
    d = src.shape[1]
    m = np.zeros((src.size, d), dtype=complex)
    m[np.arange(src.size), src.ravel()] = w.ravel()
    return m.reshape(len(src), d, d)


def pauli_matrix(a: PauliLabel) -> np.ndarray:
    """Dense Hermitian representative matrix of a label (2**n x 2**n): the
    one-label case of :func:`pauli_matrices`."""
    return pauli_matrices(a.n, [a.packed])[0]


# ---------------------------------------------------------------------------
# MUB commuting classes

@dataclass(frozen=True)
class MubClass:
    """One of the D+1 maximal commuting classes: base index and n generators."""

    J: int
    generators: tuple[PauliLabel, ...]

    @property
    def n(self) -> int:
        return self.generators[0].n


def _trace_masks(n: int) -> tuple[int, ...]:
    """mask_e for e = 0 .. 2n-2, bit i = tr(x^(i+e)): the trace is GF(2)-linear,
    so tr(c x^e) = parity(c & mask_e) for every field element c.  tr(x^m) is
    a power sum of the field polynomial's roots, so by Newton's identities mod 2
    s_m = sum_{0<j<m} e_j s_{m-j} + m e_m, e_j the coefficient of x^(n-j)
    (0 for j > n: past n, the polynomial's own recurrence), from s_0 = n."""
    poly = _IRREDUCIBLE_POLY[n]
    coef = [poly >> (n - j) & 1 if j <= n else 0 for j in range(3 * n - 2)]  # e_j
    traces = [n & 1]
    for m in range(1, 3 * n - 2):
        traces.append((sum(coef[j] & traces[m - j] for j in range(1, min(m, n + 1)))
                       + m * coef[m]) & 1)
    return tuple(sum(traces[i + e] << i for i in range(n)) for e in range(2 * n - 1))


@functools.lru_cache(maxsize=None)
def class_generators(n: int) -> np.ndarray:
    """The generators of all D+1 classes as one read-only (D+1, n) int64
    array of packed labels, x_bits low and z_bits above them.

    Row 0 is {Z_1, ..., Z_n}.  Generator i of class J >= 1 has X on qubit i
    and the Z mask of column i of the symmetric matrix M[s][t] = tr(c x^(s+t))
    of field element c = J-1: bits i .. i+n-1 of h(c), bit e of h(c) being
    tr(c x^e) = parity(c & mask_e).  So J=1 is the pure-X class.
    """
    if not 1 <= n <= MUB_QUBIT_CAP:
        raise ValueError(f"MUB classes supported for 1 <= n <= {MUB_QUBIT_CAP}")
    d, bits, parity = 1 << n, np.arange(n), index_bit_tables(n)[1]
    h = np.sum(parity[np.arange(d)[:, None] & _trace_masks(n)] << np.arange(2 * n - 1), axis=1)
    gens = np.vstack([1 << (bits + n), 1 << bits | (h[:, None] >> bits & (d - 1)) << n])
    gens.setflags(write=False)
    return gens


@functools.lru_cache(maxsize=None)
def mub_class(n: int, J: int) -> MubClass:
    """The J-th maximal commuting class: row J of :func:`class_generators`."""
    if not 0 <= J <= (1 << n):
        raise ValueError(f"base index J={J} out of range for n={n}")
    gens = class_generators(n)[J].tolist()
    return MubClass(J, tuple(PauliLabel.from_packed(n, g) for g in gens))


def mub_classes(n: int) -> list[MubClass]:
    """All D+1 commuting classes for n qubits."""
    return [mub_class(n, J) for J in range((1 << n) + 1)]


def commutation_vector(a: PauliLabel, cls: MubClass) -> int:
    """Bit mask p with bit i set iff ``a`` anticommutes with generator i."""
    if a.n != cls.n:
        raise ValueError(f"mismatched qubit counts: {a.n} vs {cls.n}")
    p = 0
    for i, g in enumerate(cls.generators):
        p |= symplectic_product(a, g) << i
    return p


def gf2_apply(cols: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Images of bit vectors under GF(2)-linear maps given by the images of
    the unit vectors: XOR of cols[..., b] over the set bits b of each vector.
    cols (..., w) and vectors (...) broadcast against each other."""
    out = np.zeros(np.broadcast_shapes(cols.shape[:-1], np.shape(vectors)), dtype=np.int64)
    for b in range(cols.shape[-1]):
        out ^= ((vectors >> b) & 1) * cols[..., b]
    return out


def commutation_columns(n: int, bases=slice(None)) -> np.ndarray:
    """cols[c, b]: commutation vector w.r.t. class bases[c] (every class by
    default) of the b-th unit packed label.

    A packed label holds x_bits in its low n bits and z_bits above them; it
    anticommutes with generator g iff parity(label & swap(g)) is 1, swap
    exchanging g's halves, and ``gf2_apply(cols[c], label)`` is its
    commutation vector.
    """
    gens = class_generators(n)[bases]
    rows = gens >> n | (gens & ((1 << n) - 1)) << n
    return np.sum((rows[..., None, :] >> np.arange(2 * n)[:, None] & 1) << np.arange(n), axis=-1)


def solve_label_from_constraints(
    class_a: MubClass, p_a: int, class_b: MubClass, p_b: int
) -> PauliLabel:
    """Unique label with commutation vector p_a w.r.t. class_a and p_b w.r.t. class_b.

    The 2n generators of two distinct classes span the symplectic space, so
    the 2n commutation constraints have one solution, found by one
    Gauss-Jordan elimination over GF(2).  A singular system indicates
    corrupted classes and raises RuntimeError.
    """
    n, w = class_a.n, 2 * class_a.n
    if class_a.J == class_b.J:
        raise ValueError("constraint classes must be distinct")
    # Row i: generator i of class_a, then of class_b, as a mask whose parity
    # against a packed label is their symplectic product, with the required
    # product, bit i of p_a | p_b << n, at bit w.
    target = p_a | (p_b << n)
    rows = [g.z_bits | (g.x_bits << n) | ((target >> i & 1) << w)
            for i, g in enumerate(class_a.generators + class_b.generators)]
    for col in range(w):
        pivot = next((i for i in range(col, w) if rows[i] >> col & 1), None)
        if pivot is None:
            raise RuntimeError("singular commutation-constraint system; MUB class "
                               "generators failed to span the symplectic space")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows = [r ^ rows[col] if r >> col & 1 and i != col else r for i, r in enumerate(rows)]
    v = sum((r >> w) << col for col, r in enumerate(rows))  # row col is now bit col
    return PauliLabel.from_packed(n, v)
