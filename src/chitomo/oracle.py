"""Brute-force ground truth for everything the estimators target.

Everything here is exact (dense linear algebra, full design enumeration) and
deliberately simple: every identity, the ancilla one included, is one design
sum on the n-qubit register, which applies a channel with every Kraus
operator to rank-1 inputs built from all D(D+1) design states in one
``apply_channel`` call.  On a stack that large ``apply_channel`` builds the
channel's superoperator from every Kraus operator and maps the stack with
one matrix product (up to D = 32; above, one operator at a time).  It
exists to pin down the Monte Carlo paths.
A channel here is either of its two forms, a Kraus set or a Pauli weight
map, read through its Kraus operators; only :func:`exact_chi_entries` reads
a Pauli channel's chi_mn = w_m delta_mn off its weight map instead, while
:func:`exact_chi` expands both forms.  Chi is this module's output and
lives here alone: :class:`ChiMatrix`, the Pauli-coefficient expansion
c_km = Tr(E_m^dag A_k) / D over the canonical Pauli basis (see
:func:`chitomo.pauli.label_index` for the ordering), and
chi_mn = sum_k c_km conj(c_kn), summed by :func:`exact_chi` for every
label pair and by :func:`exact_chi_entries` for the pairs asked.
Desk-scale only: chi matrices are 4**n x 4**n, so :func:`exact_chi` caps n
at 4, with an opt-in up to the hard cap n = 5, where the design sums stop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channels import Channel, PauliChannel, apply_channel, modified_channel_diag
from .mub import design_average_survival, design_states
from .pauli import (
    DenseCapError,
    PauliLabel,
    all_labels,
    all_packed_labels,
    label_from_index,
    label_index,
    pauli_matrices,
    pauli_matrix,
)

logger = logging.getLogger(__name__)

ORACLE_QUBIT_CAP = 4
ORACLE_QUBIT_HARD_CAP = 5

# trace_identity_residual applies the channel to this many matrix entries at a time
_STACK_ENTRIES = 2**20


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Process matrix: D**2 x D**2, indexed by canonical Pauli label pairs;
    the oracle's output, never a channel."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        d2 = 4**self.n
        if self.mat.shape != (d2, d2):
            raise ValueError(f"chi matrix for n={self.n} must be {d2}x{d2}")

    def entry(self, m: PauliLabel, n_label: PauliLabel) -> complex:
        if m.n != self.n or n_label.n != self.n:
            raise ValueError(f"labels n={m.n}, {n_label.n} do not match chi n={self.n}")
        return complex(self.mat[label_index(m), label_index(n_label)])


def pauli_coefficients(channel: Channel, labels) -> np.ndarray:
    """c[k, m] = Tr(E_m^dag A_k) / D for the packed labels m = labels[m]."""
    basis = pauli_matrices(channel.n, labels)  # conjugated in place: it is ours
    return np.einsum("mji,kji->km", np.conj(basis, out=basis), channel.operators) / 2**channel.n


def exact_chi(channel: Channel, max_n: int = ORACLE_QUBIT_CAP) -> ChiMatrix:
    """Exact process matrix, independent of the Kraus decomposition used:
    every label's Pauli expansion c, summed into chi_mn = sum_k c_km conj(c_kn)."""
    n = channel.n
    if max_n > ORACLE_QUBIT_HARD_CAP:
        raise ValueError(f"oracle cap cannot exceed {ORACLE_QUBIT_HARD_CAP}")
    if n > max_n:
        raise DenseCapError(
            f"oracle computation for n={n} exceeds cap {max_n}; "
            f"pass max_n={min(n, ORACLE_QUBIT_HARD_CAP)} to override up to "
            f"{ORACLE_QUBIT_HARD_CAP}"
        )
    if n >= ORACLE_QUBIT_HARD_CAP:
        logger.warning("oracle at n=%d builds a %d x %d chi matrix", n, 4**n, 4**n)
    c = pauli_coefficients(channel, all_packed_labels(n))
    return ChiMatrix(n, np.einsum("km,kn->mn", c, c.conj()))


def exact_chi_entries(
    channel: Channel, pairs: list[tuple[PauliLabel, PauliLabel]]
) -> list[complex]:
    """chi_mn for each (m, n) pair, without building the rest of chi.

    A Pauli channel's chi is diagonal, chi_mm the sum of its weights on label
    m (a repeated label's weights add up): it is read off the weight map, with
    no operator built, in O(K) per pair.  A Kraus set is expanded over the
    distinct labels of the pairs only: c_km = Tr(E_m^dag A_k) / D and
    chi_mn = sum_k c_km conj(c_kn), the same sums :func:`exact_chi` does for
    every label.  O(K D^2) per distinct label, so no oracle cap applies
    beyond the dense one of ``pauli_matrices``.
    """
    if isinstance(channel, PauliChannel):
        return [complex(channel.weights[channel.labels == m.packed].sum()) if m == n_label
                else 0j for m, n_label in pairs]
    if not pairs:
        return []
    labels = list(dict.fromkeys(a for pair in pairs for a in pair))
    col = {a: i for i, a in enumerate(labels)}
    c = pauli_coefficients(channel, [a.packed for a in labels])
    return [complex(c[:, col[m]] @ c[:, col[n_label]].conj()) for m, n_label in pairs]


def _design_sum(channel: Channel, left: np.ndarray | None = None,
                right: np.ndarray | None = None) -> complex:
    """Design average of <v| E(L P_v R^dag) |v>, P_v = |v><v|, over all
    D(D+1) design states v, with one ``apply_channel`` call on the whole
    stack.  Each input is rank 1, L P_v R^dag = (L v)(R v)^dag, so no
    product with P_v is formed; L and R default to the identity.  Every
    identity goes through here, so here alone n above the hard cap is refused."""
    if channel.n > ORACLE_QUBIT_HARD_CAP:
        raise DenseCapError(f"oracle design sum for n={channel.n} exceeds the hard cap "
                            f"{ORACLE_QUBIT_HARD_CAP}")
    v = design_states(channel.n)
    lv, rv = (v if op is None else v @ op.T for op in (left, right))
    out = apply_channel(channel, lv[:, :, None] * rv[:, None, :].conj())
    return complex(np.einsum("si,sij,sj->", v.conj(), out, v)) / len(v)


def exact_average_fidelity(channel: Channel) -> float:
    """Average survival probability, enumerated over the full state design."""
    return _design_sum(channel).real


def exact_offdiag_average(channel: Channel, m: PauliLabel, n_label: PauliLabel) -> complex:
    """Design average of <psi| E(E_m^dag P_psi E_n) |psi>.

    Equals (D chi_mn + delta_mn) / (D + 1) for a valid channel.
    """
    em_dag, en_dag = pauli_matrix(m).conj().T, pauli_matrix(n_label).conj().T
    return _design_sum(channel, em_dag, en_dag)


def exact_ancilla_polarization(channel: Channel, m: PauliLabel, n_label: PauliLabel,
                               axis: str) -> float:
    """Design-averaged expectation of sigma_axis (x) P_psi after the
    ancilla-assisted circuit for the (m, n_label) coefficient.

    Axis "x" recovers (D Re chi_mn + delta_mn)/(D+1); axis "y" recovers
    D Im chi_mn / (D+1).  For sigma_x (c = 1) or sigma_y (c = i), finding
    the ancilla in (|0> + c|1>)/sqrt(2) is the channel after rho -> G rho G^dag,
    G = (E_n^dag + conj(c) E_m^dag)/2; with S(c) that map's design sum,
    <sigma (x) P> = S(c) - S(-c): two design sums on the n-qubit register.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    c = 1 if axis == "x" else 1j
    en_dag, em_dag = pauli_matrix(n_label).conj().T, pauli_matrix(m).conj().T

    def design_sum(b: complex) -> float:
        g = (en_dag + np.conj(b) * em_dag) / 2
        return _design_sum(channel, g, g).real

    return design_sum(c) - design_sum(-c)


def haar_closed_form(op1: np.ndarray, op2: np.ndarray) -> complex:
    """Second-moment Haar average (Tr op1 Tr op2 + Tr op1 op2) / (D(D+1))."""
    op1 = np.asarray(op1, dtype=complex)
    op2 = np.asarray(op2, dtype=complex)
    d = op1.shape[0]
    if op1.shape != (d, d) or op2.shape != (d, d):
        raise ValueError("operands must be square matrices of equal dimension")
    return complex(
        (np.trace(op1) * np.trace(op2) + np.trace(op1 @ op2)) / (d * (d + 1))
    )


def design_haar_residual(n: int, rng: np.random.Generator, samples: int) -> float:
    """Worst |design average - Haar closed form| of <psi|o1|psi><psi|o2|psi>
    over samples pairs of complex Gaussian D x D operators drawn from rng."""
    d = 2**n
    worst = 0.0
    for _ in range(samples):
        o1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        o2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        worst = max(worst, abs(design_average_survival(o1, o2) - haar_closed_form(o1, o2)))
    return worst


def trace_identity_residual(
    channel: Channel, pairs: list[tuple[PauliLabel, PauliLabel]] | None = None
) -> float:
    """Max deviation of Tr[E(E_m^dag E_n)] from D*delta_mn over label pairs.

    This is the trace-preservation condition contracted against chi; pairs
    defaults to all label pairs (quadratic in 4**n — keep n small).  The
    channel is applied to the operators of at most 2**20 matrix entries of
    pairs at a time, so memory stays flat however many pairs there are.
    """
    d = 2**channel.n
    if pairs is None:
        labels = all_labels(channel.n)
        pairs = [(a, b) for a in labels for b in labels]
    labels = list(dict.fromkeys(a for pair in pairs for a in pair))
    mats = dict(zip(labels, pauli_matrices(channel.n, [a.packed for a in labels])))
    step = max(1, _STACK_ENTRIES // d**2)
    worst = 0.0
    for start in range(0, len(pairs), step):
        chunk = pairs[start:start + step]
        ops = np.stack([mats[m].conj().T @ mats[n_label] for m, n_label in chunk])
        vals = np.trace(apply_channel(channel, ops), axis1=-2, axis2=-1)
        want = np.array([d if m == n_label else 0.0 for m, n_label in chunk])
        worst = max(worst, float(np.max(np.abs(vals - want))))
    return worst


@dataclass(frozen=True)
class OracleReport:
    """Residuals of the channel identities the estimators rely on; the
    design identity, which no channel enters, is
    :func:`design_haar_residual`'s."""

    fidelity_residual: float
    offdiag_residual: float
    ancilla_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.fidelity_residual, self.offdiag_residual, self.ancilla_residual)


def random_label(n: int, rng: np.random.Generator) -> PauliLabel:
    return label_from_index(n, int(rng.integers(0, 4**n)))


def oracle_report(channel: Channel, samples: int = 5, seed: int = 0) -> OracleReport:
    """Worst-case residuals over sampled labels, each identity checked
    against the exact chi entries of its labels alone."""
    rng = np.random.default_rng(seed)
    d = 2**channel.n

    fid_res = 0.0
    for _ in range(samples):
        m = random_label(channel.n, rng)
        fid = exact_average_fidelity(modified_channel_diag(channel, m))
        want = (d * exact_chi_entries(channel, [(m, m)])[0].real + 1) / (d + 1)
        fid_res = max(fid_res, abs(fid - want))

    off_res = 0.0
    anc_res = 0.0
    for _ in range(samples):
        m = random_label(channel.n, rng)
        n_label = random_label(channel.n, rng)
        delta = 1.0 if m == n_label else 0.0
        want = (d * exact_chi_entries(channel, [(m, n_label)])[0] + delta) / (d + 1)
        off = exact_offdiag_average(channel, m, n_label)
        off_res = max(off_res, abs(off - want))
        px = exact_ancilla_polarization(channel, m, n_label, "x")
        py = exact_ancilla_polarization(channel, m, n_label, "y")
        anc_res = max(anc_res, abs(px - want.real), abs(py - want.imag))

    return OracleReport(fid_res, off_res, anc_res)
