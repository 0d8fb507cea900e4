"""Monte Carlo estimation of chi-matrix coefficients over the MUB design.

Four protocols:

* per-coefficient diagonal (survival frequency of the E_m-modified channel),
* per-coefficient off-diagonal (ancilla polarization, two campaigns:
  sigma_x for the real part, sigma_y for the imaginary part),
* batched diagonal from a shared triplet log (no per-coefficient hardware),
* the sieve, which recovers every heavy diagonal of a sparse channel from
  pairwise commutation constraints.

Randomness is counter-based: each campaign owns a Philox stream keyed by
(seed, campaign tag) and draws a fixed layout per experiment index, so runs
are reproducible and order-independent regardless of evaluation order.

Estimates are never clipped or projected; a slightly negative chi-hat is
honest shot noise and callers decide what to do with it.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import Channel, as_kraus
from .mub import as_distribution, design_basis
from .pauli import (
    PauliLabel,
    commutation_vector,
    mub_class,
    pauli_matrix,
    solve_label_from_constraints,
)

logger = logging.getLogger(__name__)

# Campaign tags keying the per-protocol Philox streams.
_TAG_DIAG = 1
_TAG_OFFDIAG_X = 2
_TAG_OFFDIAG_Y = 3
_TAG_TRIPLETS = 4
_TAG_SIEVE_SUBSAMPLE = 5

# Above this many triplets the sieve's pair stage subsamples down to
# PAIR_SUBSAMPLE_TARGET pairs instead of processing every pair.
SIEVE_FULL_PAIR_LIMIT = 5000
PAIR_SUBSAMPLE_TARGET = 12_500_000

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
    if kind == "fidelity":
        return math.ceil(epsilon**-2 / 4)
    if kind == "offdiagonal":
        return math.ceil(epsilon**-2)
    raise ValueError(f"unknown sample-size kind {kind!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """How to run a campaign: sample count (or target precision), seed, mode.

    mode "sampled" draws honest discrete outcomes; "exact" replaces each
    outcome with its exact expectation value.  enumerate_design additionally
    replaces state sampling with one pass over the full design, which makes
    exact-mode estimates deterministic equalities (and requires mode="exact").
    """

    M: int | None = None
    epsilon: float | None = None
    seed: int = 0
    mode: str = "sampled"
    enumerate_design: bool = False

    def __post_init__(self):
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"mode must be 'sampled' or 'exact', got {self.mode!r}")
        if self.M is not None and self.M < 1:
            raise ValueError("M must be >= 1")
        if self.M is not None and self.epsilon is not None:
            raise ValueError("supply exactly one of M or epsilon")
        if self.enumerate_design and self.mode != "exact":
            raise ValueError("enumerate_design requires mode='exact'")

    def sample_size(self, kind: str) -> int:
        if self.M is not None:
            return self.M
        if self.epsilon is not None:
            return required_sample_size(self.epsilon, kind)
        raise ValueError("supply exactly one of M or epsilon")

    def echo(self) -> dict:
        return {
            "M": self.M,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "mode": self.mode,
            "enumerate_design": self.enumerate_design,
        }


@dataclass(frozen=True)
class Triplet:
    """One experiment record: base J, prepared bits k, measured bits k'."""

    n: int
    J: int
    k: int
    k_prime: int


@dataclass(frozen=True)
class Estimate:
    """A chi-unit point estimate with its standard error and sample count."""

    value: float | complex
    std_error: float
    M: int


def _campaign_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, tag]))


def _sample_states(
    rng: np.random.Generator, n: int, m_count: int
) -> tuple[np.ndarray, np.ndarray]:
    d = 2**n
    js = rng.integers(0, d + 1, size=m_count)
    ks = rng.integers(0, d, size=m_count)
    return js, ks


def _campaign(
    n: int, cfg: EstimatorConfig, tag: int, kind: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(J, k) per experiment and the outcome draws, None unless sampled;
    under enumerate_design, every design state once."""
    d = 2**n
    if cfg.enumerate_design:
        return np.repeat(np.arange(d + 1), d), np.tile(np.arange(d), d + 1), None
    m_count = cfg.sample_size(kind)
    rng = _campaign_rng(cfg.seed, tag)
    js, ks = _sample_states(rng, n, m_count)
    us = rng.random(m_count)
    return js, ks, us if cfg.mode == "sampled" else None


def _distinct_states(
    js: np.ndarray, ks: np.ndarray, d: int
) -> tuple[list[tuple[int, slice]], np.ndarray, np.ndarray]:
    """Distinct (J, k) states sorted by base: the slice of each base J among
    them, their k's, and the distinct-state index of every experiment."""
    uniq, inverse = np.unique(js * d + ks, return_inverse=True)
    bases, starts = np.unique(uniq // d, return_index=True)
    stops = np.append(starts[1:], len(uniq))
    return [(int(j), slice(*ab)) for j, *ab in zip(bases, starts, stops)], uniq % d, inverse


def _amplitudes(
    ops: np.ndarray, n: int, J: int, ks: np.ndarray, pre: np.ndarray | None = None
) -> np.ndarray:
    """a[s, i, k'] = <v_k'| A_i P |v_ks[s]> in base J, P = pre or the identity.

    Every protocol is a readout of these blocks; E_m |v_k> is, up to a
    phase, v_{k XOR p_m(J)} in the same base.  Cost K D^2 per state.
    """
    b = design_basis(n, J)
    cols = b[:, ks] if pre is None else pre @ b[:, ks]
    return np.moveaxis(b.conj().T @ (ops @ cols), 2, 0)


def _transition_rows(ops: np.ndarray, n: int, J: int, ks: np.ndarray) -> np.ndarray:
    """T[s, k'] = sum_i |<v_k'|A_i|v_ks[s]>|^2: state ks[s] of base J read as k'."""
    return np.sum(np.abs(_amplitudes(ops, n, J, ks)) ** 2, axis=1)


def _finish(stats: np.ndarray, m_count: int) -> Estimate:
    value = float(np.mean(stats))
    se = float(np.std(stats, ddof=1) / math.sqrt(m_count)) if m_count > 1 else 0.0
    return Estimate(value, se, m_count)


def estimate_chi_diag(channel: Channel, m: PauliLabel, cfg: EstimatorConfig) -> Estimate:
    """Estimate chi_mm from survivals of the E_m-modified channel.

    Per experiment: prepare design state k of base J, apply the channel followed
    by E_m^dag, test survival, i.e. the transition k -> k XOR p_m(J).  The
    survival frequency F-hat inverts to chi-hat = ((D+1) F-hat - 1)/D.
    """
    if m.n != channel.n:
        raise ValueError("label and channel qubit counts differ")
    n, d = channel.n, 2**channel.n
    js, ks, us = _campaign(n, cfg, _TAG_DIAG, "fidelity")
    bases, uk, inverse = _distinct_states(js, ks, d)
    ops = np.stack(as_kraus(channel).operators)
    survival = np.empty(len(uk))
    for j, sl in bases:
        rows = _transition_rows(ops, n, j, uk[sl])
        survival[sl] = rows[np.arange(len(rows)), uk[sl] ^ commutation_vector(m, mub_class(n, j))]
    probs = survival[inverse]
    outcomes = probs if us is None else (us < probs).astype(float)
    est = _finish(((d + 1) * outcomes - 1) / d, len(probs))
    return Estimate(est.value, 0.0, est.M) if cfg.enumerate_design else est


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
    jx, kx, ux = _campaign(n, cfg, _TAG_OFFDIAG_X, "offdiagonal")
    jy, ky, uy = _campaign(n, cfg, _TAG_OFFDIAG_Y, "offdiagonal")
    bases, uk, inverse = _distinct_states(np.append(jx, jy), np.append(kx, ky), d)
    ops = np.stack(as_kraus(channel).operators)
    em_dag, en_dag = pauli_matrix(m).conj().T, pauli_matrix(n_label).conj().T
    survival = np.empty(len(uk))
    pol = np.empty(len(uk), dtype=complex)
    for j, sl in bases:
        own = (np.arange(sl.stop - sl.start), slice(None), uk[sl])
        x_m = _amplitudes(ops, n, j, uk[sl], em_dag)[own]
        x_n = _amplitudes(ops, n, j, uk[sl], en_dag)[own]
        pol[sl] = np.sum(x_n.conj() * x_m, axis=1)
        survival[sl] = np.sum(np.abs(x_m) ** 2 + np.abs(x_n) ** 2, axis=1) / 2
    # the x campaign reads Re, the y campaign Im of the polarization
    m_count = len(jx)
    survival = survival[inverse]
    out = np.append(pol[inverse[:m_count]].real, pol[inverse[m_count:]].imag)
    if ux is not None:
        us, p_plus, p_minus = np.append(ux, uy), (survival + out) / 2, (survival - out) / 2
        out = np.where(us < p_plus, 1.0, np.where(us < p_plus + p_minus, -1.0, 0.0))
    re_stats = ((d + 1) * out[:m_count] - delta) / d
    im_stats = (d + 1) * out[m_count:] / d
    value = complex(np.mean(re_stats), np.mean(im_stats))
    if cfg.enumerate_design or m_count < 2:
        return Estimate(value, 0.0, m_count)
    se = math.hypot(
        float(np.std(re_stats, ddof=1)), float(np.std(im_stats, ddof=1))
    ) / math.sqrt(m_count)
    return Estimate(value, se, m_count)


def run_triplet_experiments(channel: Channel, cfg: EstimatorConfig) -> list[Triplet]:
    """Sample M (J, k, k') records: prepare, apply the channel, measure in J.

    Only sampled mode makes sense here — a triplet is a discrete event.
    """
    if cfg.mode != "sampled" or cfg.enumerate_design:
        raise ValueError("triplet experiments require mode='sampled'")
    n, d = channel.n, 2**channel.n
    js, ks, us = _campaign(n, cfg, _TAG_TRIPLETS, "fidelity")
    bases, uk, inverse = _distinct_states(js, ks, d)
    experiments = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    ops = np.stack(as_kraus(channel).operators)
    k_primes = np.empty(len(js), dtype=np.int64)
    for j, sl in bases:
        cum = np.cumsum(as_distribution(_transition_rows(ops, n, j, uk[sl]), j), axis=1)
        for row, idx in zip(cum, experiments[sl]):
            k_primes[idx] = np.minimum(np.searchsorted(row, us[idx], side="right"), d - 1)
    return [Triplet(n, int(j), int(k), int(kp)) for j, k, kp in zip(js, ks, k_primes)]


def _triplet_arrays(triplets: list[Triplet]) -> tuple[int, np.ndarray, np.ndarray]:
    if not triplets:
        raise ValueError("empty triplet list")
    n = triplets[0].n
    if any(t.n != n for t in triplets):
        raise ValueError("triplets mix qubit counts")
    js = np.fromiter((t.J for t in triplets), dtype=np.int64, count=len(triplets))
    xors = np.fromiter(
        (t.k ^ t.k_prime for t in triplets), dtype=np.int64, count=len(triplets)
    )
    return n, js, xors


def _diag_from_arrays(
    n: int, js: np.ndarray, xors: np.ndarray, m: PauliLabel
) -> Estimate:
    d = 2**n
    p_by_base = np.empty(d + 2, dtype=np.int64)
    for j in np.unique(js):
        p_by_base[j] = commutation_vector(m, mub_class(n, int(j)))
    matches = (xors == p_by_base[js]).astype(float)
    return _finish(((d + 1) * matches - 1) / d, len(matches))


def estimate_diag_from_triplets(triplets: list[Triplet], m: PauliLabel) -> Estimate:
    """chi_mm from a shared triplet log: frequency of k XOR k' = p_m(J).

    Cost is O(n^2 M): one commutation vector per base plus a linear scan.
    """
    n, js, xors = _triplet_arrays(triplets)
    if m.n != n:
        raise ValueError("label and triplet qubit counts differ")
    return _diag_from_arrays(n, js, xors, m)


def sieve_large_diagonals(
    triplets: list[Triplet],
    threshold: float,
    stats: dict | None = None,
) -> list[tuple[PauliLabel, Estimate]]:
    """Find every Pauli label whose chi_mm estimate exceeds the threshold.

    Each pair of triplets from distinct bases pins down the unique label
    consistent with both transition patterns; tallying those candidates and
    re-estimating each one from the full log recovers the heavy support of a
    sparse channel.  All pairs are processed up to SIEVE_FULL_PAIR_LIMIT
    triplets; beyond that pairs are uniformly subsampled (deterministically)
    down to PAIR_SUBSAMPLE_TARGET.  ``stats``, if given, is filled with
    pair-stage counters.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n, js, xors = _triplet_arrays(triplets)
    if len(set(js.tolist())) < 2:
        raise SingleBaseError("sieve needs triplets from at least two distinct bases")

    groups = Counter(zip(js.tolist(), xors.tolist()))
    items = sorted(groups.items())

    total_pairs = 0
    for i, ((ja, _), ca) in enumerate(items):
        for (jb, _), cb in items[i + 1 :]:
            if ja != jb:
                total_pairs += ca * cb

    keep_fraction = 1.0
    if len(triplets) > SIEVE_FULL_PAIR_LIMIT and total_pairs > PAIR_SUBSAMPLE_TARGET:
        keep_fraction = PAIR_SUBSAMPLE_TARGET / total_pairs
        logger.info(
            "sieve subsampling %.3g%% of %d pairs", 100 * keep_fraction, total_pairs
        )
    sub_rng = _campaign_rng(0, _TAG_SIEVE_SUBSAMPLE)

    votes: Counter[PauliLabel] = Counter()
    pairs_processed = 0
    for i, ((ja, pa), ca) in enumerate(items):
        cls_a = mub_class(n, ja)
        for (jb, pb), cb in items[i + 1 :]:
            if ja == jb:
                continue
            weight = ca * cb
            if keep_fraction < 1.0:
                weight = int(sub_rng.binomial(weight, keep_fraction))
                if weight == 0:
                    continue
            label = solve_label_from_constraints(cls_a, pa, mub_class(n, jb), pb)
            votes[label] += weight
            pairs_processed += weight

    results = []
    for label, _ in votes.most_common():
        est = _diag_from_arrays(n, js, xors, label)
        if est.value > threshold:
            results.append((label, est))
    results.sort(key=lambda pair: pair[1].value, reverse=True)

    if stats is not None:
        stats.update(
            pairs_processed=pairs_processed,
            total_pairs=total_pairs,
            candidates=len(votes),
            subsampled=keep_fraction < 1.0,
        )
    return results


# ---------------------------------------------------------------------------
# Reports

def _z_score(diff: float, std_error: float) -> float | None:
    """diff in standard errors; None (JSON null) when an exact estimate
    (std_error 0) misses its oracle, where no finite score exists."""
    if std_error > 0:
        return diff / std_error
    return 0.0 if abs(diff) <= 1e-9 else None


def estimation_report(
    config_echo: dict,
    entries: Iterable[tuple[str, PauliLabel, PauliLabel | None, Estimate]],
    oracle_values: Iterable[complex | None] | None = None,
) -> dict:
    """Assemble the JSON-ready report: config echo plus one row per estimate.

    Each entry is (protocol, m, n_label-or-None, Estimate); oracle_values,
    when given, pairs up with entries and populates the comparison columns.
    The z-score is signed for real estimates and a magnitude for complex
    ones; an exact estimate (std_error 0) scores 0 when it matches its
    oracle and None when it does not.
    """
    entries = list(entries)
    oracles = list(oracle_values) if oracle_values is not None else [None] * len(entries)
    if len(oracles) != len(entries):
        raise ValueError("oracle_values length does not match entries")
    rows = []
    for (protocol, m, n_label, est), oracle in zip(entries, oracles):
        value = complex(est.value)
        row = {
            "protocol": protocol,
            "m": str(m),
            "n_label": None if n_label is None else str(n_label),
            "value_re": value.real,
            "value_im": value.imag,
            "std_error": est.std_error,
            "M": est.M,
            "oracle_re": None,
            "oracle_im": None,
            "z_score": None,
        }
        if oracle is not None:
            oracle = complex(oracle)
            row["oracle_re"] = oracle.real
            row["oracle_im"] = oracle.imag
            if isinstance(est.value, complex):
                row["z_score"] = _z_score(abs(value - oracle), est.std_error)
            else:
                row["z_score"] = _z_score(value.real - oracle.real, est.std_error)
        rows.append(row)
    return {"config": dict(config_echo), "rows": rows}


# ---------------------------------------------------------------------------
# Triplet logs

def format_bits(value: int, n: int) -> str:
    return "".join("1" if (value >> i) & 1 else "0" for i in range(n))


def parse_bits(text: str, n: int) -> int:
    if len(text) != n or set(text) - {"0", "1"}:
        raise TripletLogError(f"bad bit string {text!r} for n={n}")
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def triplet_log_header(n: int, seed: int, m_count: int, channel_hash: str) -> str:
    return (
        f"# {TRIPLET_LOG_VERSION} n={n} seed={seed} M={m_count} channel={channel_hash}"
    )


def write_triplet_log(
    path, triplets: list[Triplet], seed: int, channel_hash: str
) -> None:
    n, _, _ = _triplet_arrays(triplets)
    with open(path, "w") as fh:
        fh.write(triplet_log_header(n, seed, len(triplets), channel_hash) + "\n")
        for t in triplets:
            fh.write(f"{t.J}\t{format_bits(t.k, n)}\t{format_bits(t.k_prime, n)}\n")


_HEADER_RE = re.compile(
    r"# seqpt-triplets v1 n=(\d+) seed=(-?\d+) M=(\d+) channel=([0-9a-f]{64})$"
)


def read_triplet_log(path) -> tuple[list[Triplet], dict]:
    """Parse a triplet log; returns (triplets, header metadata)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise TripletLogError(f"cannot read triplet log: {exc}") from exc
    if not lines:
        raise TripletLogError("empty triplet log")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise TripletLogError(f"bad triplet log header: {lines[0]!r}")
    n, seed, m_count = (int(g) for g in match.groups()[:3])
    meta = {"n": n, "seed": seed, "M": m_count, "channel": match.group(4)}
    d = 2**n
    triplets = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise TripletLogError(f"line {i}: expected J<TAB>k<TAB>k'")
        try:
            j = int(parts[0])
        except ValueError as exc:
            raise TripletLogError(f"line {i}: bad base index {parts[0]!r}") from exc
        if not 0 <= j <= d:
            raise TripletLogError(f"line {i}: base index {j} out of range")
        triplets.append(Triplet(n, j, parse_bits(parts[1], n), parse_bits(parts[2], n)))
    if len(triplets) != m_count:
        raise TripletLogError(
            f"log claims M={m_count} but has {len(triplets)} triplets"
        )
    return triplets, meta
