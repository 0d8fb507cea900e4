"""Completely positive trace-preserving maps on n qubits.

A channel has one of two forms: a Kraus operator-sum set, or for a Pauli
channel its label weights, whose ``operators`` expand them on first use.
The chi matrix is not a channel form: it and the Pauli-coefficient
expansion that builds it belong to :mod:`chitomo.oracle`.  Each form checks
its own fields, so the factory builds them directly; :func:`apply_channel`
acts linearly on any input matrix, or stack of them.  :func:`superoperator`
builds the same action as one D**2 x D**2 matrix from every Kraus operator.
``apply_channel`` maps a large stack, such as the oracle's D(D+1) design
states, through it with one matrix product, and a single matrix or a small
stack one operator at a time.

The JSON channel-spec format accepted by :func:`channel_factory`:

    {"n": 1, "kind": "depolarizing", "p": 0.2}

with kinds identity | depolarizing | pauli_mixture | unitary |
amplitude_damping | kraus | compose.  Complex matrices serialize row-major
with each entry a [re, im] pair; ``compose`` children are full specs applied
first-listed-first, nested at most ``COMPOSE_DEPTH_CAP`` deep.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .pauli import (
    DENSE_QUBIT_CAP,
    DenseCapError,
    _X_BIT,
    _Z_BIT,
    PauliLabel,
    _parse_pauli,
    all_label_masks,
    pauli_matrices,
    pauli_matrix,
)

_FLOAT_MAX = float(np.finfo(float).max)
# Building a compose spec recurses into its children, so their nesting is
# capped well inside the interpreter's recursion limit.
COMPOSE_DEPTH_CAP = 100

# apply_channel maps a stack through the superoperator only while S takes at
# most this many bytes (D <= 32, so up to the oracle's n = 5 hard cap at 16 MB).
_SUPEROPERATOR_BYTES = 2**25


class ChannelSpecError(ValueError):
    """Malformed channel-spec document."""


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator-sum form: K operators A_i with sum A^dag A = I, held as one
    (K, D, D) complex array; any sequence of D x D matrices is accepted."""

    n: int
    operators: np.ndarray

    def __post_init__(self):
        d = 2**self.n
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:  # ragged input, which fails the shape test below
            ops = np.empty(0)
        if ops.ndim != 3 or ops.shape[1:] != (d, d) or not len(ops):
            raise ValueError(f"KrausSet for n={self.n} needs one or more {d}x{d} operators")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True, eq=False)
class PauliChannel:
    """Pauli channel E(rho) = sum_a w_a P_a rho P_a held as a weight map: the
    packed labels a (x bits low, z bits above, as
    :func:`chitomo.pauli.commutation_columns` reads them) as int64 and their
    positive weights: labels of weight 0 are dropped, and anything but 1-D
    integer labels in [0, 4**n) with finite weights >= 0, some positive,
    raises ValueError.  Dense consumers read its ``operators``."""

    n: int
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        labels, weights = np.asarray(self.labels), np.asarray(self.weights, dtype=float)
        if labels.ndim != 1 or weights.shape != labels.shape:
            raise ValueError("PauliChannel labels and weights must be 1-D and of equal length")
        if not (weights.size and weights.min() >= 0 and 0 < weights.max() < np.inf):
            raise ValueError("PauliChannel weights must be finite and >= 0, some of them > 0")
        if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= 4**self.n:
            raise ValueError(f"PauliChannel labels for n={self.n} must be integers in [0, 4**n)")
        kept = weights > 0
        object.__setattr__(self, "labels", labels.astype(np.int64)[kept])
        object.__setattr__(self, "weights", weights[kept])

    @functools.cached_property
    def operators(self) -> np.ndarray:
        """sqrt(w_a) P_a per label as one (K, D, D) array, all written from
        one table of signed permutations, built on first use and kept."""
        n = self.n
        return pauli_matrices(n, self.labels & (2**n - 1), self.labels >> n, np.sqrt(self.weights))


Channel = KrausSet | PauliChannel


def _tensor_powers(single: np.ndarray, n: int) -> np.ndarray:
    """All n-fold tensor products of a stack of 2 x 2 factors, shape
    (len(single)**n, D, D), ordered by the factor indices with qubit 0's, the
    most significant tensor factor, varying slowest."""
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):  # one batched kron per qubit, the new qubit least significant
        d = 2 * out.shape[1]
        out = (out[:, None, :, None, :, None] * single[:, None, :, None, :]).reshape(-1, d, d)
    return out


def apply_channel(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to a matrix or a stack of matrices, shape (..., D, D).

    The action is linear, so rho need not be a state.  For s matrices and K
    Kraus operators, accumulating the terms A_k rho A_k^dag one operator at a
    time costs 2 K s D**3 multiply-adds; building the superoperator and
    mapping the stack with one matrix product costs (K + s) D**4.  The
    cheaper of the two runs, the superoperator only while it takes at most
    ``_SUPEROPERATOR_BYTES``.
    """
    d = 2**channel.n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match channel D={d}")
    ops = channel.operators
    k, s = len(ops), rho.size // (d * d)
    if 16 * d**4 <= _SUPEROPERATOR_BYTES and (k + s) * d < 2 * k * s:
        return (rho.reshape(-1, d * d) @ superoperator(channel).T).reshape(rho.shape)
    out = np.zeros(rho.shape, dtype=complex)
    for a in ops:
        out += a @ rho @ a.conj().T
    return out


def superoperator(channel: Channel) -> np.ndarray:
    """Liouville matrix S of the channel, shape (D**2, D**2).

    S[(i, j), (a, b)] = sum_k A_k[i, a] conj(A_k[j, b]) over every Kraus
    operator, so for row-major flattening E(rho).reshape(-1) =
    S @ rho.reshape(-1), and a stack maps as rho.reshape(-1, D**2) @ S.T.
    One batched matrix product over the Kraus index writes S in this layout
    directly, with no transposed D**4 copy; S takes D**4 * 16 bytes.
    """
    ops, d = channel.operators, 2**channel.n
    lt = np.ascontiguousarray(np.transpose(ops, (1, 2, 0)))  # [i, a, k]
    rt = np.ascontiguousarray(np.transpose(np.conj(ops), (1, 0, 2)))  # [j, k, b]
    return (lt[:, None] @ rt[None]).reshape(d * d, d * d)


def kraus_completeness_deviation(k: KrausSet) -> float:
    """Spectral-norm deviation of sum A^dag A from the identity, which bounds
    how far any state's outcome probabilities can sum from 1."""
    m = k.operators.reshape(-1, 2**k.n)  # sum_i A_i^dag A_i is one (K D, D) GEMM
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
        s = m.conj().T @ m
    return float(np.max(np.abs(np.linalg.eigvalsh(s - np.eye(2**k.n)))))


def modified_channel_diag(channel: Channel, m: PauliLabel) -> KrausSet:
    """The channel rho -> E_m^dag E(rho) E_m used for diagonal estimation."""
    if m.n != channel.n:
        raise ValueError(f"label n={m.n} does not match channel n={channel.n}")
    em_dag = pauli_matrix(m).conj().T
    return KrausSet(channel.n, em_dag @ channel.operators)


# ---------------------------------------------------------------------------
# Channel-spec documents

def matrix_to_json(mat: np.ndarray) -> list:
    """Row-major nested lists with [re, im] entries."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in obj:
            rows.append([complex(re, im) for re, im in row])
        mat = np.array(rows, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer past float
        raise ChannelSpecError(f"{what} is not a nested [re, im] array") from exc
    if not all(_is_number(x) for row in obj for entry in row for x in entry):
        raise ChannelSpecError(f"{what} has an entry that is not a finite number")
    if mat.ndim != 2:
        raise ChannelSpecError(f"{what} must be two-dimensional")
    return mat


def canonical_spec_bytes(spec: dict) -> bytes:
    """Canonical serialization used for hashing and log headers."""
    try:
        return json.dumps(spec, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    except (TypeError, ValueError, RecursionError) as exc:
        raise ChannelSpecError(f"spec is not JSON-serializable: {exc}") from exc


def channel_spec_sha256(spec: dict) -> str:
    return hashlib.sha256(canonical_spec_bytes(spec)).hexdigest()


def read_channel_spec(path) -> tuple[dict, str]:
    """A channel-spec file's document and its :func:`channel_spec_sha256` digest."""
    try:  # decoded as UTF-8 whatever the locale; json.loads of bytes would take UTF-16
        with open(path, "rb") as fh:
            spec = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ChannelSpecError(f"cannot read channel spec: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ChannelSpecError(f"channel spec is not UTF-8: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # bad JSON, too deep, or too long an integer
        raise ChannelSpecError(f"channel spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ChannelSpecError("channel spec must be a JSON object")
    # refuses NaN, Infinity and numbers that overflow to them
    return spec, channel_spec_sha256(spec)


def load_channel_spec(path) -> dict:
    return read_channel_spec(path)[0]


def _is_number(x) -> bool:
    """A JSON number that a float holds; true and false, though bools are ints, are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def _require_n(spec: dict) -> int:
    n = spec.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ChannelSpecError("spec field 'n' must be a positive integer")
    return n


def _mixture_labels(n: int, raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """Packed labels and weights of a weight map in map order, each key read as
    PauliLabel.from_string reads it; the first faulty key fails its first check.

    The map is checked in one pass: its keys normalized as one list and
    their letters turned into bits as one array.  A map that pass refuses
    goes through the per-key checks, whose only job is to name its fault."""
    names = [key.strip() if isinstance(key, str) else "" for key in raw]
    names = [s.upper() if s.isascii() else "" for s in names]  # upper maps U+0131 to I
    joined = "".join(names)
    weights = list(raw.values())
    if not (all(len(s) == n for s in names) and not joined.lstrip("IXYZ")
            and len(set(names)) == len(names) and all(_is_number(w) and w >= 0 for w in weights)):
        keys = {}  # packed label -> the key that names it
        for key, w in raw.items():
            try:
                size, x, z = _parse_pauli(key)
            except ValueError as exc:
                raise ChannelSpecError(f"bad Pauli string {key!r}: {exc}") from exc
            if size != n:
                raise ChannelSpecError(f"weight key {key!r} has wrong qubit count")
            label = x | z << n
            if label in keys:
                raise ChannelSpecError(f"weight keys {keys[label]!r} and {key!r} name one "
                                       f"label {PauliLabel(n, x, z)}")
            keys[label] = key
            if not (_is_number(w) and w >= 0):
                raise ChannelSpecError(f"weight for {key!r} must be >= 0")
    place = 1 << np.arange(n, dtype=np.int64)  # qubit 0, the leftmost letter, is bit 0
    x, z = (np.frombuffer(joined.translate(bit).encode(), np.uint8).reshape(-1, n) - 48
            for bit in (_X_BIT, _Z_BIT))
    return x @ place | (z @ place) << n, np.array(weights, dtype=float)


def _has_kraus(spec: dict) -> bool:
    """Whether a spec that built is, or composes, a ``kraus`` spec."""
    return spec["kind"] == "kraus" or (
        spec["kind"] == "compose" and any(map(_has_kraus, spec["children"])))


def _check_complete(k: KrausSet, what: str) -> None:
    dev = kraus_completeness_deviation(k)
    if not dev <= 1e-6:
        raise ChannelSpecError(f"{what} not complete (deviation {dev:.3e})")


def channel_factory(spec: dict, _depth: int = 0) -> Channel:
    """Build a channel from a spec document: the identity, depolarizing and
    pauli_mixture kinds as a :class:`PauliChannel`, the rest as a
    :class:`KrausSet`; _depth counts the compose specs around this one.
    Raises ChannelSpecError."""
    if not isinstance(spec, dict):
        raise ChannelSpecError("channel spec must be a JSON object")
    n = _require_n(spec)
    if n > DENSE_QUBIT_CAP:
        raise DenseCapError(
            f"channel construction limited to n <= {DENSE_QUBIT_CAP}, got {n}"
        )
    kind = spec.get("kind")
    d = 2**n

    if kind == "identity":
        return PauliChannel(n, [0], [1.0])

    if kind == "depolarizing":
        p = spec.get("p")
        if not _is_number(p) or not 0 <= p <= 1:
            raise ChannelSpecError("depolarizing needs 'p' in [0, 1]")
        weights = np.full(d**2, p / d**2)
        weights[0] = 1 - p + p / d**2
        xs, zs = all_label_masks(n)
        return PauliChannel(n, xs | zs << n, weights)

    if kind == "pauli_mixture":
        raw = spec.get("weights")
        if not isinstance(raw, dict) or not raw:
            raise ChannelSpecError("pauli_mixture needs a non-empty 'weights' map")
        labels, weights = _mixture_labels(n, raw)
        total = sum(weights.tolist())
        if not abs(total - 1) <= 1e-9:
            raise ChannelSpecError(f"mixture weights sum to {total!r}, expected 1")
        return PauliChannel(n, labels, weights)

    if kind == "unitary":
        if "matrix" in spec:
            u = matrix_from_json(spec["matrix"], "unitary matrix")
            if u.shape != (d, d):
                raise ChannelSpecError(f"unitary matrix must be {d}x{d}")
        elif "generator" in spec:
            try:
                g = PauliLabel.from_string(spec["generator"])
            except ValueError as exc:
                raise ChannelSpecError(str(exc)) from exc
            if g.n != n:
                raise ChannelSpecError("generator has wrong qubit count")
            theta = spec.get("theta")
            if not _is_number(theta):
                raise ChannelSpecError("unitary generator needs a finite numeric 'theta'")
            # exp(-i theta P / 2) for an involutory generator P
            u = np.cos(theta / 2) * np.eye(d) - 1j * np.sin(theta / 2) * pauli_matrix(g)
        else:
            raise ChannelSpecError("unitary needs 'matrix' or 'generator'")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
            dev = float(np.max(np.abs(u @ u.conj().T - np.eye(d))))
        if not dev <= 1e-9:
            raise ChannelSpecError(f"matrix is not unitary (deviation {dev:.3e})")
        return KrausSet(n, (u,))

    if kind == "amplitude_damping":
        gamma = spec.get("gamma")
        if not _is_number(gamma) or not 0 <= gamma <= 1:
            raise ChannelSpecError("amplitude_damping needs 'gamma' in [0, 1]")
        single = np.array([[[1, 0], [0, np.sqrt(1 - gamma)]],
                           [[0, np.sqrt(gamma)], [0, 0]]], dtype=complex)
        ops = _tensor_powers(single, n)
        return KrausSet(n, ops[np.any(ops, axis=(1, 2))])

    if kind == "kraus":
        raw_ops = spec.get("operators")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise ChannelSpecError("kraus needs a non-empty 'operators' list")
        ops = [matrix_from_json(o, f"Kraus operator {i}") for i, o in enumerate(raw_ops)]
        try:
            k = KrausSet(n, ops)
        except ValueError as exc:
            raise ChannelSpecError(str(exc)) from exc
        _check_complete(k, "Kraus set")
        return k

    if kind == "compose":
        children = spec.get("children")
        if not isinstance(children, list) or not children:
            raise ChannelSpecError("compose needs a non-empty 'children' list")
        if _depth == COMPOSE_DEPTH_CAP:
            raise ChannelSpecError(f"compose specs nest at most {COMPOSE_DEPTH_CAP} deep")
        built = [channel_factory(c, _depth + 1) for c in children]
        if any(c.n != n for c in built):
            raise ChannelSpecError("compose children must share the parent 'n'")
        # first listed acts first: B_j A_i at index j * len(A) + i
        ops = built[0].operators
        for nxt in built[1:]:
            ops = (nxt.operators[:, None] @ ops).reshape(-1, d, d)
        k = KrausSet(n, ops)
        # Complete children compose to a complete set, but a kraus child is
        # complete only to 1e-6, and their deviations add up.
        if _has_kraus(spec):
            _check_complete(k, "composed Kraus set")
        return k

    raise ChannelSpecError(f"unknown channel kind {kind!r}")
