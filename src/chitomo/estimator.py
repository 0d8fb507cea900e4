"""Monte Carlo estimation of chi-matrix coefficients over the MUB design.

Four protocols:

* per-coefficient diagonal (survival frequency of the E_m-modified channel),
* per-coefficient off-diagonal (ancilla polarization, two campaigns:
  sigma_x for the real part, sigma_y for the imaginary part),
* batched diagonal from a shared triplet log (no per-coefficient hardware),
* the sieve, which recovers every heavy diagonal of a sparse channel by
  spreading each count-table cell over the labels consistent with it.

Randomness is counter-based: each campaign owns a Philox stream keyed by
(seed, campaign tag), the signed 64-bit seed taken as its two's complement,
and draws a fixed layout per experiment index, so runs are reproducible and
order-independent regardless of evaluation order.  The two log protocols
draw nothing: they are deterministic readouts of the log.

Estimates are never clipped or projected; a slightly negative chi-hat is
honest shot noise and callers decide what to do with it.  Nor are outcome
rows, none of them negative: the triplet sampler only renormalizes them.
This module returns estimates only: :mod:`chitomo.cli` builds the reports.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .channels import Channel, PauliChannel
from .mub import design_bases
from .pauli import (
    MUB_QUBIT_CAP,
    PauliLabel,
    class_generators,
    commutation_columns,
    gf2_apply,
    index_bit_tables,
    pauli_actions,
    pauli_mul,
)

logger = logging.getLogger(__name__)

# Campaign tags keying the per-protocol Philox streams.
_TAG_DIAG = 1
_TAG_OFFDIAG_X = 2
_TAG_OFFDIAG_Y = 3
_TAG_TRIPLETS = 4

TRIPLET_LOG_VERSION = "seqpt-triplets v1"

class TripletLogError(ValueError):
    """Malformed triplet log file."""


class SingleBaseError(ValueError):
    """The sieve was given triplets from fewer than two distinct bases."""


def required_sample_size(epsilon: float, kind: str) -> int:
    """Experiments needed for additive precision epsilon on the averaged
    observable (the (D chi + delta)/(D+1)-scale quantity, not chi itself)."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
    if kind not in ("fidelity", "offdiagonal"):
        raise ValueError(f"unknown sample-size kind {kind!r}")
    try:
        return math.ceil(epsilon**-2 / (4 if kind == "fidelity" else 1))
    except OverflowError:
        raise ValueError(f"epsilon={epsilon!r} needs more than 2**63 experiments") from None


def seed_key(seed: int) -> int:
    """A seed in [-2**63, 2**63) as the unsigned 64-bit two's complement that
    keys its streams; seeds outside the range raise ValueError."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must be in [-2**63, 2**63), got {seed}")
    return seed % 2**64


@dataclass(frozen=True)
class EstimatorConfig:
    """How to run a campaign: sample count (or target precision), seed, mode.

    mode "sampled" draws M states of the design and an honest discrete
    outcome for each; it needs exactly one of M or epsilon.  mode "exact"
    takes every design state once with its exact expectation value, which
    makes the estimates deterministic equalities; it takes no M or epsilon.
    The seed must lie in [-2**63, 2**63) (see :func:`seed_key`).
    """

    M: int | None = None
    epsilon: float | None = None
    seed: int = 0
    mode: str = "sampled"

    def __post_init__(self):
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"mode must be 'sampled' or 'exact', got {self.mode!r}")
        sizes = (self.M is not None) + (self.epsilon is not None)
        if sizes != (self.mode == "sampled"):
            raise ValueError("sampled mode takes exactly one of M or epsilon, exact mode neither")
        if self.M is not None and self.M < 1:
            raise ValueError("M must be >= 1")
        seed_key(self.seed)
        if sizes:
            m_count = self.sample_size("offdiagonal")  # checks epsilon; the larger kind
            if m_count >= 2**63:  # the limit of int64 record columns
                raise ValueError(f"sample size must be below 2**63, got {m_count}")

    def sample_size(self, kind: str) -> int:
        if self.M is not None:
            return self.M
        return required_sample_size(self.epsilon, kind)


@dataclass(frozen=True, eq=False)
class TripletRecord:
    """M experiment records as int64 columns: base J, prepared bits k and
    measured bits k' of n-qubit design states."""

    n: int
    J: np.ndarray
    k: np.ndarray
    k_prime: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MUB_QUBIT_CAP:
            raise ValueError(f"triplet records need 1 <= n <= {MUB_QUBIT_CAP}, got n={self.n}")
        for name, top in (("J", 2**self.n), ("k", 2**self.n - 1), ("k_prime", 2**self.n - 1)):
            col = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, col)
            if col.ndim != 1 or col.shape != self.J.shape or not col.size:
                raise ValueError("triplet columns must be non-empty, 1-D and of equal length")
            if col.min() < 0 or col.max() > top:
                bad = np.flatnonzero((col < 0) | (col > top))[0]
                raise ValueError(f"record {bad + 1}: {name}={col[bad]} out of range")

    def __len__(self) -> int:
        return len(self.J)

    def __eq__(self, other) -> bool:
        cols = ("n", "J", "k", "k_prime")
        return isinstance(other, TripletRecord) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in cols
        )


@dataclass(frozen=True)
class Estimate:
    """A chi-unit point estimate with its standard error and sample count."""

    value: float | complex
    std_error: float
    M: int


def _campaign_rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed_key(seed), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_states(
    rng: np.random.Generator, n: int, m_count: int
) -> tuple[np.ndarray, np.ndarray]:
    d = 2**n
    js = rng.integers(0, d + 1, size=m_count)
    ks = rng.integers(0, d, size=m_count)
    return js, ks


def _campaign(
    n: int, cfg: EstimatorConfig, tag: int, kind: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each experiment's state key J*D + k, its row among the D(D+1) rows
    (4,160 at n=6) of the protocols' state table, and its outcome draw u;
    in exact mode, every design state once and no draws."""
    d = 2**n
    if cfg.mode == "exact":
        return np.arange(d * (d + 1)), None
    m_count, rng = cfg.sample_size(kind), _campaign_rng(cfg.seed, tag)
    js, ks = _sample_states(rng, n, m_count)
    return js * d + ks, rng.random(m_count)


# Entries the sieve, the state table and the label lookup hold at once:
# larger work is done in slices, which bounds its memory.
_SPREAD_ENTRIES = 1 << 17


def _state_table(n: int, key_arrays: list[np.ndarray], readout, width: int,
                 entries: int) -> np.ndarray:
    """Read every state drawn by any campaign once: readout(js, ks) maps the
    drawn states, by ascending key J*D + k, to one row of width results per
    state, stored in row J*D + k of the table.  A slice holds at most
    _SPREAD_ENTRIES // entries states, entries being the values the readout
    holds per state."""
    d = 2**n
    drawn = np.flatnonzero(np.bincount(np.concatenate(key_arrays), minlength=d * (d + 1)))
    table, step = np.zeros((d * (d + 1), width)), max(1, _SPREAD_ENTRIES // entries)
    for lo in range(0, len(drawn), step):
        keys = drawn[lo:lo + step]
        table[keys] = readout(keys >> n, keys & (d - 1))
    return table


def _draw(thresholds: np.ndarray, rows: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Each experiment's outcome index: how many of the ascending cumulative
    thresholds in its state's row, thresholds[row], are <= its draw u, counted
    column by column, so no (M, width) array is built."""
    counts = np.zeros(len(rows), dtype=np.int64)
    for col in thresholds.T:
        counts += col[rows] <= us
    return counts


def _base_weights(channel: PauliChannel, cols: np.ndarray) -> np.ndarray:
    """q[J, x], shape (D+1, D): the total weight of the labels a whose
    commutation vector p_a(J) in base J (cols, of every base) is x.  A state
    of base J moves from k to k XOR x with probability q[J, x]."""
    d = 2**channel.n
    cells = gf2_apply(cols[:, None, :], channel.labels) + d * np.arange(d + 1)[:, None]
    weights = np.broadcast_to(channel.weights, cells.shape)
    return np.bincount(cells.ravel(), weights.ravel(), d * (d + 1)).reshape(d + 1, d)


def _pauli_table(channel: PauliChannel, m: PauliLabel, n_label: PauliLabel) -> np.ndarray:
    """Rows J*D + k of (Re, Im of the polarization, survival) in closed form.
    With E_n E_m = i^theta P_c the polarization is q[J, p] i^theta <v_k|P_c|v_k>
    if p = p_m(J) = p_n(J), else 0.  P_c is then i^e times the ascending product
    of the class-J generators in S (x_c for J >= 1; z_c, e = 0 for J = 0), so
    <v_k|P_c|v_k> = i^e (-1)^{|S AND k|}, and reordering commuting factors gives
    i^e = (-1)^{sum_b floor(r_b / 2)}, r_b = sum_{a in S} (Z mask of a)_b."""
    n, d = channel.n, 2**channel.n
    cols, bases, parity = commutation_columns(n), np.arange(d + 1), index_bit_tables(n)[1]
    p_m, p_n = (gf2_apply(cols, a.packed) for a in (m, n_label))
    q, (c, theta) = _base_weights(channel, cols), pauli_mul(n_label, m)
    in_s = np.flatnonzero(c.x_bits >> np.arange(n) & 1)
    r = np.sum(class_generators(n)[:, in_s, None] >> (in_s + n) & 1, axis=1)
    sign = np.where(p_m == p_n, 1 - 2 * (np.sum(r // 2, axis=1) & 1), 0) * 1j**theta
    s = np.where(bases > 0, c.x_bits, c.z_bits)[:, None] & np.arange(d)
    polarization = (q[bases, p_m] * sign)[:, None] * (1 - 2 * parity[s])
    survival = np.repeat((q[bases, p_m] + q[bases, p_n]) / 2, d)
    return np.column_stack([polarization.real.ravel(), polarization.imag.ravel(), survival])


def _distribution(rows: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Outcome rows, row s of base js[s], each a sum of squared amplitudes or
    of checked weights, scaled to sum to 1.  A mass off by more than 1e-6
    raises and one off by more than 1e-9 is logged, each naming the base of
    the first row at fault."""
    mass = np.sum(rows, axis=1, keepdims=True)
    off = np.abs(mass[:, 0] - 1)
    if (bad := np.flatnonzero(~(off <= 1e-6))).size:
        raise ValueError(f"base-{js[bad[0]]} probabilities are not a distribution "
                         f"(mass off by {off[bad[0]]:.3e})")
    if off.max() > 1e-9:
        logger.debug("base-%d probability mass deviates by %.3e", js[off > 1e-9][0], off.max())
    return rows / mass


def _amplitudes(ops: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """x[s, i] = <left_s|A_i|right_s>, one K D^2 product per state."""
    return np.einsum("as,ias->si", left.conj(), ops @ right)


def _finish(cfg: EstimatorConfig, stats: np.ndarray, spread: float) -> Estimate:
    """Estimate from per-experiment statistics: one row for a real value, or
    (Re, Im) rows for a complex one, whose errors add in quadrature.  A
    sampled row of deviation 0, its values all equal (as one value is),
    takes spread, the largest deviation its outcomes allow, as its own: no
    sampled estimate has a zero error.  Every value is a dyadic rational, so
    equal values sum exactly and deviate by exactly 0."""
    rows, m_count = np.atleast_2d(stats), stats.shape[-1]
    means = rows.mean(axis=1)
    value = float(means[0]) if stats.ndim == 1 else complex(*means)
    if cfg.mode == "exact":
        return Estimate(value, 0.0, m_count)
    deviations = rows.std(axis=1, ddof=1) if m_count > 1 else np.zeros(len(rows))
    deviations[deviations == 0] = spread
    return Estimate(value, math.hypot(*deviations) / math.sqrt(m_count), m_count)


def estimate_chi_diag(channel: Channel, m: PauliLabel, cfg: EstimatorConfig) -> Estimate:
    """Estimate chi_mm from survivals of the E_m-modified channel.

    Per experiment: prepare design state k of base J, apply the channel followed
    by E_m^dag, test survival, i.e. the transition k -> k XOR p_m(J).  The
    survival frequency F-hat inverts to chi-hat = ((D+1) F-hat - 1)/D.  The
    label is read only through p_m(J): a Pauli channel's state of base J
    survives with q[J, p_m(J)] of its base weight table (:func:`_base_weights`),
    read by J alone, and a dense channel's state k with
    sum_i |<v_{k XOR p_m(J)}|A_i|v_k>|^2.  The Pauli diagonal thus holds the
    whole (D+1, D) table to read D+1 entries of it.
    """
    if m.n != channel.n:
        raise ValueError("label and channel qubit counts differ")
    n, d = channel.n, 2**channel.n
    cols = commutation_columns(n)
    p_m = gf2_apply(cols, m.packed)
    keys, us = _campaign(n, cfg, _TAG_DIAG, "fidelity")
    if isinstance(channel, PauliChannel):  # one row per base J
        rows, survival = keys >> n, _base_weights(channel, cols)[np.arange(d + 1), p_m, None]
    else:
        ops = channel.operators

        def readout(js, ks):  # E_m v_k is v_{k XOR p_m(J)} up to a phase that |.|^2 drops
            v, moved = (design_bases(n)[js, :, k].T for k in (ks, ks ^ p_m[js]))
            return np.sum(np.abs(_amplitudes(ops, moved, v)) ** 2, axis=1, keepdims=True)

        rows, survival = keys, _state_table(n, [keys], readout, 1, ops.size // d)
    # the outcome is 1 (survival) below the survival probability, else 0
    outcome = survival[rows, 0] if us is None else np.array([1.0, 0.0])[_draw(survival, rows, us)]
    return _finish(cfg, ((d + 1) * outcome - 1) / d, (d + 1) / (2 * d))


def estimate_chi_offdiag(
    channel: Channel, m: PauliLabel, n_label: PauliLabel, cfg: EstimatorConfig
) -> Estimate:
    """Estimate complex chi_mn from ancilla polarizations.

    Two campaigns of M experiments feed (|0> E_n^dag|psi> + |1> E_m^dag|psi>)/sqrt 2
    to the channel; each has three outcomes (0 on survival failure, otherwise the
    +/-1 ancilla polarization along sigma_x or sigma_y, whose mean is Re / Im of
    sum_i conj(x_n) x_m with x_m = <psi|A_i E_m^dag|psi>).  The campaign means
    invert to Re chi = ((D+1) mean_x - delta_mn)/D and Im chi = (D+1) mean_y / D.
    """
    if m.n != channel.n or n_label.n != channel.n:
        raise ValueError("labels and channel qubit counts differ")
    n, d = channel.n, 2**channel.n
    delta = 1.0 if m == n_label else 0.0
    campaigns = [_campaign(n, cfg, tag, "offdiagonal") for tag in (_TAG_OFFDIAG_X, _TAG_OFFDIAG_Y)]
    if isinstance(channel, PauliChannel):
        table = _pauli_table(channel, m, n_label)
    else:
        ops = channel.operators
        srcs, ws = pauli_actions(n, [m.packed, n_label.packed])

        def readout(js, ks):  # [state, (Re and Im of the polarization, survival)]; E^dag is E
            v = design_bases(n)[js, :, ks].T
            x_m, x_n = (_amplitudes(ops, v, w[:, None] * v[src]) for src, w in zip(srcs, ws))
            polarization = np.sum(x_n.conj() * x_m, axis=1)
            survival = np.sum(np.abs(x_m) ** 2 + np.abs(x_n) ** 2, axis=1) / 2
            return np.array([polarization.real, polarization.imag, survival]).T

        table = _state_table(n, [keys for keys, _ in campaigns], readout, 3, ops.size // d)
    survival, stats = table[:, 2], []
    # The x campaign reads Re and the y campaign Im of the polarization `out`:
    # the outcome is +1 below p_plus, else -1 below p_plus + p_minus, else 0.
    for (keys, us), out, shift in zip(campaigns, table.T, (delta, 0.0)):
        p_plus = (survival + out) / 2
        thresholds = np.array([p_plus, p_plus + (survival - out) / 2]).T
        outcome = (out[keys] if us is None
                   else np.array([1.0, -1.0, 0.0])[_draw(thresholds, keys, us)])
        stats.append(((d + 1) * outcome - shift) / d)
    return _finish(cfg, np.array(stats), (d + 1) / d)


def run_triplet_experiments(channel: Channel, cfg: EstimatorConfig) -> TripletRecord:
    """Sample M (J, k, k') records: prepare, apply the channel, measure in J.

    Only sampled mode makes sense here — a triplet is a discrete event.  A
    Pauli channel's rows are T[k, k'] = q[J, k XOR k'] (:func:`_base_weights`).
    """
    if cfg.mode != "sampled":
        raise ValueError("triplet experiments require mode='sampled'")
    n, d = channel.n, 2**channel.n
    if isinstance(channel, PauliChannel):
        q, entries = _base_weights(channel, commutation_columns(n)), d

        def rows(js, ks):
            return q[js[:, None], ks[:, None] ^ np.arange(d)]
    else:
        ops = channel.operators
        entries = ops.size // d

        def rows(js, ks):  # the full rows T[s, k'] = sum_i |<v_k'|A_i|v_s>|^2, one
            out = np.empty((len(js), d))  # product per base of the slice
            for s in np.split(np.arange(len(js)), np.flatnonzero(np.diff(js)) + 1):
                v = design_bases(n)[js[s[0]]]
                amps = v.conj().T @ (ops @ v[:, ks[s]])  # [i, k', s]
                out[s] = np.sum(np.abs(amps) ** 2, axis=0).T
            return out

    keys, us = _campaign(n, cfg, _TAG_TRIPLETS, "fidelity")
    cum = _state_table(
        n, [keys], lambda js, ks: np.cumsum(_distribution(rows(js, ks), js), axis=1), d,
        entries)
    # k' is the first outcome whose cumulative probability exceeds u, or the
    # last one: the count of the first D-1 cumulative entries <= u
    return TripletRecord(n, keys >> n, keys & (d - 1), _draw(cum[:, :-1], keys, us))


def _count_table(record: TripletRecord) -> tuple[np.ndarray, np.ndarray]:
    """Keys J*D + x, ascending, of the nonzero cells of N[J, x] = #records
    with k XOR k' = x, and N."""
    return np.unique(record.J << record.n | (record.k ^ record.k_prime), return_counts=True)


def _chi_from_hits(d: int, hits: np.ndarray, m_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the statistics ((D+1) [k XOR k' = p_m(J)] - 1)/D
    of m_count records, of which hits = sum_J N[J, p_m(J)] are 1.  When all
    are equal (hits 0 or m_count) the 0/1 indicator takes its largest
    variance, 1/4, so no error is zero."""
    variance = hits * (m_count - hits) / (m_count * max(m_count - 1, 1))
    variance[variance == 0] = 0.25
    return ((d + 1) * hits / m_count - 1) / d, (d + 1) / d * np.sqrt(variance / m_count)


def estimate_diags_from_triplets(
    record: TripletRecord, labels: list[PauliLabel]
) -> list[Estimate]:
    """chi_mm for each label from a shared triplet log: frequency of k XOR k' = p_m(J).

    One readout of the record's (J, k XOR k') count table: O(M log M) to
    build the table, then one search of its sorted keys for every label's
    cells (J, p_m(J)) over the bases present, at most _SPREAD_ENTRIES at once.
    """
    if any(m.n != record.n for m in labels):
        raise ValueError("label and triplet qubit counts differ")
    n, d = record.n, 2**record.n
    packed = np.array([m.packed for m in labels], dtype=np.int64)
    keys, counts = _count_table(record)
    bases = np.flatnonzero(np.bincount(keys >> n))
    cols = commutation_columns(n, bases)
    hits = np.zeros(len(labels), dtype=np.int64)
    step = max(1, _SPREAD_ENTRIES // len(bases))
    for l0 in range(0, len(labels), step):
        cells = gf2_apply(cols, packed[l0:l0 + step, None]) | bases << n  # [label, base]
        at = np.minimum(np.searchsorted(keys, cells), len(keys) - 1)
        hits[l0:l0 + step] = np.sum(np.where(keys[at] == cells, counts[at], 0), axis=1)
    values, errors = _chi_from_hits(d, hits, len(record))
    return [Estimate(float(v), float(e), len(record)) for v, e in zip(values, errors)]


def sieve_large_diagonals(
    record: TripletRecord,
    threshold: float,
    stats: dict | None = None,
) -> list[tuple[PauliLabel, Estimate]]:
    """Find every Pauli label whose chi_mm estimate exceeds the threshold.

    The records of cell (J, x) of the count table are consistent with the D
    labels of commutation vector x in base J: the coset s + C_J of the group
    C_J spanned by the class-J generators, s = X^x for J = 0 and Z^x for
    J >= 1 (generator i of class J >= 1 has its only X on qubit i).  Spreading
    every cell's count over its coset gives each label its hits h_J =
    N[J, p_m(J)], one cell per base: their sum is the readout of
    :func:`estimate_diags_from_triplets`, and (hits^2 - sum_J h_J^2)/2 are its
    votes, the record pairs from distinct bases consistent with it.  Every
    such pair votes for one label; none is sampled.  Candidates are the labels
    hit in two bases or more, ordered by value, votes and then first vote,
    their earliest pair of cells in table order.  ``stats``, if given, is
    filled with the pair counters.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    n, d, m_count = record.n, 2**record.n, len(record)
    cell_keys, counts = _count_table(record)
    js, xs = cell_keys >> n, cell_keys & (d - 1)
    bases, starts, base_of = np.unique(js, return_index=True, return_inverse=True)
    if len(bases) < 2:
        raise SingleBaseError("sieve needs triplets from at least two distinct bases")
    total_pairs = (m_count**2 - int(np.sum(np.add.reduceat(counts, starts) ** 2))) // 2

    n_cells, rest = len(js), np.flatnonzero(js > 0)
    gens = class_generators(n)[bases]
    width = max(1, _SPREAD_ENTRIES // n_cells)
    found, candidates, pairs = [], 0, 0
    for a0 in range(0, d, width):
        # The coset members whose X part is in [a0, a0 + width), so that all
        # cells of a label meet in one slice: member a of C_J has X part a for
        # J >= 1, and all members of a J = 0 cell's coset have X part x.
        a = np.arange(a0, min(a0 + width, d))
        cells0 = np.flatnonzero((js == 0) & (xs >= a0) & (xs < a0 + width))
        keys0 = (xs[cells0, None] | (np.arange(d) << n)) * n_cells + cells0[:, None]
        cosets = gf2_apply(gens[:, None, :], a)[base_of[rest]] ^ (xs[rest, None] << n)
        # (label, cell) keys, sorted: grouped by label, each group's cells in table order
        keys = np.sort(np.append(keys0, cosets * n_cells + rest[:, None]))
        labels, cells = np.divmod(keys, n_cells)
        groups = np.flatnonzero(np.diff(labels, prepend=-1))
        hit = counts[cells]
        hits = np.add.reduceat(hit, groups)
        votes = (hits**2 - np.add.reduceat(hit**2, groups)) // 2
        values, errors = _chi_from_hits(d, hits, m_count)
        heavy = np.flatnonzero((votes > 0) & (values > threshold))
        first = groups[heavy]
        found.append((labels[first], values[heavy], errors[heavy], votes[heavy],
                      cells[first] * n_cells + cells[first + 1]))
        candidates += int(np.count_nonzero(votes))
        pairs += int(np.sum(votes))

    labels, values, errors, votes, first = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((first, -votes, -values))  # by value, votes, first vote
    if stats is not None:
        stats.update(pairs_processed=pairs, total_pairs=total_pairs, candidates=candidates)
    return [(PauliLabel.from_packed(n, v), Estimate(float(x), float(e), m_count))
            for v, x, e in zip(labels[order], values[order], errors[order])]


# ---------------------------------------------------------------------------
# Triplet logs

# A record line is J<TAB>k<TAB>k'<LF or CRLF>: J as 1 to len(str(D)) ASCII
# digits, k and k' as n ASCII bits, bit 0 first.  Both functions work on the
# log's bytes in slices of at most _SLICE lines, as numpy columns: each field
# of a line sits at a fixed offset back from the line's end.
_TAB, _LF, _CR, _ZERO = b"\t\n\r0"
_SLICE = 1 << 16


def write_triplet_log(path, record: TripletRecord, seed: int, channel_hash: str) -> None:
    n = record.n
    header = f"# {TRIPLET_LOG_VERSION} n={n} seed={seed} M={len(record)} channel={channel_hash}\n"
    d, w = 2**n, len(str(2**n))
    # Lookup tables gathered by value, each row one void item: J's digits,
    # right-aligned, for J = 0..D; TAB and the bits of k for k = 0..D-1; and
    # which bytes of a line J keeps (none of J's leading zeros).
    values = np.arange(d + 1)
    powers = 10 ** np.arange(w - 1, -1, -1)
    digits = (_ZERO + values[:, None] // powers % 10).astype(np.uint8)
    bits = np.full((d, n + 1), _TAB, dtype=np.uint8)
    bits[:, 1:] = _ZERO + (values[:d, None] >> np.arange(n) & 1)
    keep = np.ones((d + 1, w + 2 * n + 3), dtype=bool)
    keep[:, :w - 1] = values[:, None] >= powers[:-1]
    digits, bits, keep = (t.view(f"V{t.shape[1]}")[:, 0] for t in (digits, bits, keep))
    line = np.dtype([("J", digits.dtype), ("k", bits.dtype), ("k_prime", bits.dtype),
                     ("end", np.uint8)])
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, len(record), _SLICE):
            J = record.J[lo:lo + _SLICE]
            rows = np.empty(len(J), dtype=line)
            rows["J"] = digits[J]
            rows["k"] = bits[record.k[lo:lo + _SLICE]]
            rows["k_prime"] = bits[record.k_prime[lo:lo + _SLICE]]
            rows["end"] = _LF
            fh.write(rows.view(np.uint8)[keep[J].view(bool)])


_HEADER_RE = re.compile(
    rf"# {re.escape(TRIPLET_LOG_VERSION)} n=(\d+) seed=(-?\d+) M=(\d+) channel=([0-9a-f]{{64}})$"
)


def read_triplet_log(path) -> tuple[TripletRecord, dict]:
    """Parse a triplet log; returns (record, header metadata)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise TripletLogError(f"cannot read triplet log: {exc}") from exc
    if not data:
        raise TripletLogError("empty triplet log")
    body = data.find(b"\n") + 1 or len(data)  # where the record lines start
    try:
        head = data[:body].removesuffix(b"\n").removesuffix(b"\r").decode()
    except UnicodeDecodeError as exc:
        raise TripletLogError(f"bad triplet log header: {exc}") from exc
    match = _HEADER_RE.match(head)
    if not match:
        raise TripletLogError(f"bad triplet log header: {head!r}")
    try:  # int() refuses more than sys.get_int_max_str_digits() digits
        n, seed, m_count = (int(g) for g in match.groups()[:3])
    except ValueError as exc:
        raise TripletLogError(f"bad triplet log header: {exc}") from exc
    meta = {"n": n, "seed": seed, "M": m_count, "channel": match.group(4)}
    if body < len(data) and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    lines = np.count_nonzero(buf[body:] == _LF)
    if lines != m_count:
        raise TripletLogError(f"log claims M={m_count} but has {lines} triplets")
    if not 1 <= n <= MUB_QUBIT_CAP:  # the line shape below grows with n
        raise TripletLogError(
            f"bad triplet log: triplet records need 1 <= n <= {MUB_QUBIT_CAP}, got n={n}")
    columns = np.empty((3, lines), dtype=np.int64)
    step, row = _SLICE * (2 * n + 4), 0  # a slice's bytes hold at most _SLICE good lines
    while body < len(data):
        end = data.rfind(b"\n", body, body + step) + 1 or data.find(b"\n", body) + 1
        row += _record_columns(buf, body, end, n, columns[:, row:], row + 2)
        body = end
    try:
        return TripletRecord(n, *columns), meta
    except (ValueError, OverflowError) as exc:
        raise TripletLogError(f"bad triplet log: {exc}") from exc


def _record_columns(buf: np.ndarray, lo: int, hi: int, n: int, out: np.ndarray,
                    line_no: int) -> int:
    """Parse the record lines in the log bytes buf[lo:hi], which end in a
    newline, into the first columns of out (J, k, k' rows); returns the
    line count.

    Each field is read as one byte column at a fixed offset back from the
    line ends.  A malformed line raises TripletLogError naming the first
    one, line_no being the number of the slice's first line in the file.
    """
    w = len(str(2**n))
    width = w + 2 * n + 2  # bytes back from a line's end to its longest J's first digit
    ends = np.flatnonzero(buf[lo:hi] == _LF) + lo
    starts = np.append(lo, ends[:-1] + 1)
    ends -= buf[ends - 1] == _CR
    j_len = ends - starts - 2 * n - 2
    # The header line, longer than width, precedes every record line, so
    # each byte column below can read its offset back from any line's end.
    at = ends - width

    def back(offset: int) -> np.ndarray:
        return buf[width - offset:][at]

    bad = (j_len < 1) | (j_len > w) | (back(n + 1) != _TAB) | (back(2 * n + 2) != _TAB)
    above = np.zeros(len(ends), dtype=np.uint8)  # OR of bit bytes XOR '0': above 1 if not 0/1
    for field, last_bit in ((2, 1), (1, n + 2)):  # k' and k, read from bit n-1 down
        value = np.zeros(len(ends), dtype=np.uint16)
        for offset in range(last_bit, last_bit + n):
            bit = back(offset)
            bit ^= _ZERO
            above |= bit
            value <<= 1
            value |= bit
        out[field, :len(ends)] = value
    bad |= above > 1
    value = np.zeros(len(ends), dtype=np.uint16)
    for place in range(w):  # J's digit of 10**place, zero before J's first digit
        digit = back(2 * n + 3 + place) - np.uint8(_ZERO)  # bytes below '0' wrap past 9
        digit *= j_len > place
        bad |= digit > 9
        value += digit * np.uint16(10**place)
    out[0, :len(ends)] = value
    if bad.any():
        i = int(np.argmax(bad))
        line = buf[starts[i]:ends[i]].tobytes()
        raise TripletLogError(
            f"line {line_no + i}: expected J<TAB>k<TAB>k' ({_line_fault(line, n, w)})")
    return len(ends)


def _line_fault(line: bytes, n: int, w: int) -> str:
    """Why a malformed record line, without its line end, is not J<TAB>k<TAB>k'."""
    fields, j = line.count(b"\t") + 1, len(line) - 2 * n - 2
    if fields != 3:
        return f"field count {fields}, not 3"
    if j < 0 or line[j] != _TAB or line[j + n + 1] != _TAB:
        return f"k and k' must have {n} bits each"
    if j == 0:
        return "empty J"
    if j > w:
        return f"J has {j} characters, D={2**n} has {w}"
    if not line[:j].isdigit():
        return "J must be ASCII digits"
    return "k and k' must be 0s and 1s"
