"""Monte Carlo estimators against the exact oracle, plus the triplet sieve."""

import ast
import logging
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from chitomo import channels, estimator, oracle
from chitomo.channels import (
    KrausSet,
    PauliChannel,
    channel_factory,
    matrix_to_json,
    modified_channel_diag,
)
from chitomo.estimator import (
    EstimatorConfig,
    TripletLogError,
    TripletRecord,
    estimate_chi_diag,
    estimate_chi_offdiag,
    estimate_diags_from_triplets,
    read_triplet_log,
    required_sample_size,
    run_triplet_experiments,
    sieve_large_diagonals,
    write_triplet_log,
    _campaign_rng,
)
from chitomo.mub import design_bases, design_basis
from chitomo.oracle import (
    exact_ancilla_polarization,
    exact_average_fidelity,
    exact_chi,
    random_label,
)
from chitomo.pauli import (
    PauliLabel,
    all_labels,
    commutation_columns,
    commutation_vector,
    gf2_apply,
    label_from_index,
    mub_class,
    pauli_actions,
    pauli_matrix,
    solve_label_from_constraints,
)

from reference import random_channel


def L(s):
    return PauliLabel.from_string(s)


IDENT1 = channel_factory({"n": 1, "kind": "identity"})
DEPOL1 = channel_factory({"n": 1, "kind": "depolarizing", "p": 0.2})
ROT_X_HALF = channel_factory(
    {"n": 1, "kind": "unitary", "generator": "X", "theta": np.pi / 2}
)
MIX2 = channel_factory(
    {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.7, "XI": 0.2, "ZZ": 0.1}}
)

ENUMERATE = EstimatorConfig(mode="exact")


class TestRequiredSampleSize:
    def test_frozen_values(self):
        assert required_sample_size(0.1, "offdiagonal") == 100
        assert required_sample_size(0.1, "fidelity") == 25
        assert required_sample_size(1.0, "fidelity") == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            required_sample_size(0.0, "fidelity")
        with pytest.raises(ValueError):
            required_sample_size(1.5, "fidelity")
        with pytest.raises(ValueError):
            required_sample_size(0.1, "nonsense")
        with pytest.raises(ValueError):  # epsilon**-2 overflows a float
            required_sample_size(1e-160, "fidelity")


class TestEstimatorConfig:
    def test_m_and_epsilon_are_exclusive(self):
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, epsilon=0.1)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(M=1, mode="approximate")
        with pytest.raises(ValueError):
            EstimatorConfig(M=1, mode="exact")
        with pytest.raises(ValueError):
            EstimatorConfig(M=0)

    def test_sample_size_is_for_sampled_mode_alone(self):
        """Exact mode takes every design state once, so it refuses M and
        epsilon; sampled mode needs one of them."""
        for kw in ({"M": 10, "mode": "exact"}, {"epsilon": 0.1, "mode": "exact"}, {}):
            with pytest.raises(ValueError):
                EstimatorConfig(**kw)

    def test_seed_range(self):
        for seed in (-(2**63), 2**63 - 1):
            assert EstimatorConfig(M=1, seed=seed).seed == seed
        for seed in (-(2**63) - 1, 2**63, 2**64 - 1):
            with pytest.raises(ValueError):
                EstimatorConfig(M=1, seed=seed)

    def test_negative_seed_keys_its_twos_complement(self):
        """A negative seed draws the stream of its unsigned 64-bit two's
        complement, the key numpy's own cast of a signed [seed, tag] gives."""
        for seed in (-1, -3, -(2**63)):
            want = np.random.Generator(np.random.Philox(key=[seed, 4]))
            np.testing.assert_array_equal(
                _campaign_rng(seed, 4).integers(0, 2**62, size=8),
                want.integers(0, 2**62, size=8),
            )

    def test_sample_size_below_int64_limit(self):
        """M, given or derived from epsilon, must fit the int64 record columns."""
        assert EstimatorConfig(M=2**63 - 1).M == 2**63 - 1
        for kw in ({"M": 2**63}, {"M": 10**20}, {"epsilon": 1e-10}, {"epsilon": 1e-160}):
            with pytest.raises(ValueError):
                EstimatorConfig(**kw)

    def test_epsilon_derives_sample_size(self):
        cfg = EstimatorConfig(epsilon=0.1)
        assert cfg.sample_size("fidelity") == 25
        assert cfg.sample_size("offdiagonal") == 100
        with pytest.raises(ValueError):
            EstimatorConfig().sample_size("fidelity")


class TestDiagonalEstimator:
    def test_identity_channel_exact_values(self):
        est = estimate_chi_diag(IDENT1, L("I"), ENUMERATE)
        assert abs(est.value - 1) < 1e-12 and est.std_error == 0.0
        est = estimate_chi_diag(IDENT1, L("X"), ENUMERATE)
        assert abs(est.value) < 1e-12

    def test_depolarizing_sampled(self):
        est = estimate_chi_diag(DEPOL1, L("Z"), EstimatorConfig(M=100_000, seed=7))
        assert est.M == 100_000
        assert abs(est.value - 0.05) < 5 * est.std_error
        assert 0 < est.std_error < 0.01

    def test_fidelity_floor_for_orthogonal_label(self):
        """Identity channel, m != I: survival concentrates at 1/(D+1)."""
        est = estimate_chi_diag(IDENT1, L("X"), EstimatorConfig(M=100_000, seed=3))
        f_hat = (2 * est.value + 1) / 3
        f_err = 2 * est.std_error / 3
        assert abs(f_hat - 1 / 3) < 5 * f_err

    def test_deterministic_under_seed(self):
        runs = [
            estimate_chi_diag(DEPOL1, L("X"), EstimatorConfig(M=500, seed=11))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        other = estimate_chi_diag(DEPOL1, L("X"), EstimatorConfig(M=500, seed=12))
        assert other.value != runs[0].value

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_chi_diag(IDENT1, L("XX"), EstimatorConfig(M=10))


class TestOffdiagonalEstimator:
    @pytest.mark.parametrize("m, n_label", [("XX", "I"), ("I", "XX")])
    def test_label_mismatch_rejected(self, m, n_label):
        with pytest.raises(ValueError, match="^labels and channel qubit counts differ$"):
            estimate_chi_offdiag(IDENT1, L(m), L(n_label), EstimatorConfig(M=10))

    def test_identity_channel_exact_zero(self):
        est = estimate_chi_offdiag(IDENT1, L("I"), L("X"), ENUMERATE)
        assert abs(est.value) < 1e-12 and est.std_error == 0.0

    def test_rotation_sampled(self):
        est = estimate_chi_offdiag(
            ROT_X_HALF, L("I"), L("X"), EstimatorConfig(M=100_000, seed=13)
        )
        assert abs(est.value.imag - 0.5) < 5 * est.std_error
        assert abs(est.value.real) < 5 * est.std_error

    def test_hermiticity_cross_check(self):
        """Estimates of (m,n) and (n,m) are conjugate within error bars."""
        rot = channel_factory({"n": 1, "kind": "unitary", "generator": "X", "theta": np.pi / 3})
        cfg = EstimatorConfig(M=40_000, seed=17)
        ab = estimate_chi_offdiag(rot, L("I"), L("X"), cfg)
        ba = estimate_chi_offdiag(rot, L("X"), L("I"), cfg)
        combined = math.hypot(ab.std_error, ba.std_error)
        assert abs(ab.value - np.conj(ba.value)) < 5 * combined

    def test_equal_labels_match_diagonal_protocol(self):
        cfg = EstimatorConfig(M=40_000, seed=19)
        off = estimate_chi_offdiag(DEPOL1, L("Z"), L("Z"), cfg)
        diag = estimate_chi_diag(DEPOL1, L("Z"), cfg)
        combined = math.hypot(off.std_error, diag.std_error)
        assert abs(off.value.real - diag.value) < 5 * combined
        assert abs(off.value.imag) < 5 * off.std_error

    def test_deterministic_under_seed(self):
        runs = [
            estimate_chi_offdiag(ROT_X_HALF, L("I"), L("X"), EstimatorConfig(M=300, seed=2))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestNoZeroSampledError:
    """A sampled campaign whose values are all equal reports the largest
    spread its outcomes allow over sqrt(M): (D+1)/(2D) for a diagonal or log
    experiment, (D+1)/D for each off-diagonal part."""

    def test_single_experiment(self):
        assert estimate_chi_diag(DEPOL1, L("Z"), EstimatorConfig(M=1, seed=3)).std_error == 0.75
        est = estimate_chi_offdiag(DEPOL1, L("I"), L("Z"), EstimatorConfig(M=1, seed=3))
        assert est.std_error == math.hypot(1.5, 1.5)

    def test_offdiag_part_all_equal(self):
        """Under the identity, chi_II's real part reads +1 in every experiment
        and its imaginary part +-3/2 at random."""
        est = estimate_chi_offdiag(IDENT1, L("I"), L("I"), EstimatorConfig(M=200, seed=5))
        assert est.value.real == 1.0 and abs(est.value.imag) < 1.5
        imag_sd = math.sqrt(200 / 199 * (1.5**2 - est.value.imag**2))
        assert est.std_error == pytest.approx(math.hypot(1.5, imag_sd) / math.sqrt(200))

    def test_log_labels_with_no_hits_or_all_hits(self):
        """Three identity records in the X and Y bases: Z hits none of them,
        I all of them and X two."""
        record = TripletRecord(1, [1, 2, 1], [0, 0, 1], [0, 0, 1])
        none, every, some = estimate_diags_from_triplets(record, [L("Z"), L("I"), L("X")])
        assert (none.value, every.value) == (-0.5, 1.0)
        assert none.std_error == every.std_error == pytest.approx(0.75 / math.sqrt(3))
        assert some.std_error == pytest.approx(0.5)  # 1.5 sqrt(2 * 1 / (3 * 2) / 3)


class TestEnumerateModeIsUnbiased:
    """Full design enumeration with exact expectations equals the oracle."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_diagonal(self, n):
        rng = np.random.default_rng(n + 20)
        k = random_channel(n, rng)
        chi = exact_chi(k)
        for _ in range(4):
            m = random_label(n, rng)
            est = estimate_chi_diag(k, m, ENUMERATE)
            assert abs(est.value - chi.entry(m, m).real) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_offdiagonal(self, n):
        rng = np.random.default_rng(n + 30)
        k = random_channel(n, rng)
        chi = exact_chi(k)
        for _ in range(4):
            m, n_label = random_label(n, rng), random_label(n, rng)
            est = estimate_chi_offdiag(k, m, n_label, ENUMERATE)
            assert abs(est.value - chi.entry(m, n_label)) < 1e-9


def seven_kinds(n):
    """One channel spec of each factory kind on n qubits."""
    d = 2**n
    q = 0.15
    phases = np.diag(np.exp(1j * np.linspace(0.3, 2.0, d)))
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(d // 2))
    rot = {"n": n, "kind": "unitary", "generator": "Y" + "X" * (n - 1), "theta": 0.9}
    return {
        "identity": {"n": n, "kind": "identity"},
        "depolarizing": {"n": n, "kind": "depolarizing", "p": 0.3},
        "pauli_mixture": {
            "n": n,
            "kind": "pauli_mixture",
            "weights": {"I" * n: 0.6, "X" + "Z" * (n - 1): 0.25, "Y" * n: 0.15},
        },
        "unitary": rot,
        "amplitude_damping": {"n": n, "kind": "amplitude_damping", "gamma": 0.25},
        "kraus": {
            "n": n,
            "kind": "kraus",
            "operators": [
                matrix_to_json(np.sqrt(1 - q) * phases),
                matrix_to_json(np.sqrt(q) * flip),
            ],
        },
        "compose": {
            "n": n,
            "kind": "compose",
            "children": [{"n": n, "kind": "amplitude_damping", "gamma": 0.2}, rot],
        },
    }


class TestAmplitudeCoreMatchesOracle:
    """Exact-mode readouts of the amplitude core equal the oracle's
    brute-force per-state simulations of the modified channels."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(seven_kinds(1)))
    def test_diagonal_and_ancilla_polarizations(self, n, kind):
        channel = channel_factory(seven_kinds(n)[kind])
        d = 2**n
        rng = np.random.default_rng(n)
        for _ in range(2):
            m, n_label = random_label(n, rng), random_label(n, rng)
            diag = estimate_chi_diag(channel, m, ENUMERATE)
            fidelity = exact_average_fidelity(modified_channel_diag(channel, m))
            assert abs((d * diag.value + 1) / (d + 1) - fidelity) < 1e-12
            # (I, generator) carries the rotation's imaginary chi entry
            for a, b in ((m, n_label), (m, m), (L("I" * n), L("Y" + "X" * (n - 1)))):
                off = estimate_chi_offdiag(channel, a, b, ENUMERATE)
                delta = 1.0 if a == b else 0.0
                pol_x = (d * off.value.real + delta) / (d + 1)
                pol_y = d * off.value.imag / (d + 1)
                assert abs(pol_x - exact_ancilla_polarization(channel, a, b, "x")) < 1e-12
                assert abs(pol_y - exact_ancilla_polarization(channel, a, b, "y")) < 1e-12


def _full_block_offdiag(channel, m, n_label):
    """Exact-mode chi_mn read from the full block <v_k'|A_i E^dag|v_k> of
    every base, K x D x D, at each state's own k' = k."""
    n, d = channel.n, 2**channel.n
    ops = channel.operators
    em_dag, en_dag = pauli_matrix(m).conj().T, pauli_matrix(n_label).conj().T
    own = (np.arange(d), slice(None), np.arange(d))
    pol = []
    for j in range(d + 1):
        b = design_basis(n, j)
        x_m = np.moveaxis(b.conj().T @ (ops @ (em_dag @ b)), 2, 0)[own]
        x_n = np.moveaxis(b.conj().T @ (ops @ (en_dag @ b)), 2, 0)[own]
        pol.append(np.sum(x_n.conj() * x_m, axis=1))
    pol = np.concatenate(pol)
    delta = 1.0 if m == n_label else 0.0
    return complex(np.mean(((d + 1) * pol.real - delta) / d), np.mean((d + 1) * pol.imag / d))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping", "compose", "random"])
def test_offdiag_own_state_readout_matches_full_block(n, kind):
    """Reading only each state's own amplitudes changes no exact value by more than 1e-15."""
    rng = np.random.default_rng(80 + n)
    channel = random_channel(n, rng) if kind == "random" else channel_factory(seven_kinds(n)[kind])
    for _ in range(3):
        m, n_label = random_label(n, rng), random_label(n, rng)
        for a, b in ((m, n_label), (m, m)):
            got = estimate_chi_offdiag(channel, a, b, ENUMERATE).value
            want = _full_block_offdiag(channel, a, b)
            assert abs(got.real - want.real) <= 1e-15 and abs(got.imag - want.imag) <= 1e-15


def _full_row_diag(channel, m):
    """Exact-mode chi_mm read from the full transition rows T[k, k'] =
    sum_i |<v_k'|A_i|v_k>|^2 of every base, at k' = k XOR p_m(J)."""
    n, d = channel.n, 2**channel.n
    ops = channel.operators
    survival = []
    for j in range(d + 1):
        b = design_basis(n, j)
        rows = np.sum(np.abs(b.conj().T @ (ops @ b)) ** 2, axis=0).T  # [k, k']
        survival.append(rows[np.arange(d), np.arange(d) ^ commutation_vector(m, mub_class(n, j))])
    return float(np.mean(((d + 1) * np.concatenate(survival) - 1) / d))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [*seven_kinds(1), "random"])
def test_diag_survival_readout_matches_transition_row(n, kind):
    """Reading only <E_m v_k|A_i|v_k> gives the transition-row entry to 1e-15."""
    rng = np.random.default_rng(90 + n)
    channel = random_channel(n, rng) if kind == "random" else channel_factory(seven_kinds(n)[kind])
    for m in [L("I" * n)] + [random_label(n, rng) for _ in range(3)]:
        got = estimate_chi_diag(channel, m, ENUMERATE).value
        assert abs(got - _full_row_diag(channel, m)) <= 1e-15


def _pauli_spec(kind, n):
    """The identity, depolarizing p=0.3, or a mixture of I and up to 4 random labels."""
    if kind != "pauli_mixture":
        return {"n": n, "kind": kind, **({"p": 0.3} if kind == "depolarizing" else {})}
    rng = np.random.default_rng(40 + n)
    picked = rng.choice(np.arange(1, 4**n), size=min(4, 4**n - 1), replace=False)
    raw = rng.random(len(picked))
    weights = {"I" * n: 0.6, **{str(label_from_index(n, int(i))): 0.4 * float(w / raw.sum())
                                for i, w in zip(picked, raw)}}
    return {"n": n, "kind": kind, "weights": weights}


PAULI_CASES = [(kind, n) for n in (1, 2, 3, 4) for kind in ("identity", "depolarizing",
                                                             "pauli_mixture")]
PAULI_CASES += [("pauli_mixture", 5), ("pauli_mixture", 6)]


@pytest.mark.parametrize("kind, n", PAULI_CASES)
class TestPauliChannelMatchesDense:
    """The weight-map path of a Pauli channel and the dense path of its
    dense expansion, its operators as a KrausSet, give the same protocol
    results."""

    def labels(self, channel):
        rng = np.random.default_rng(channel.n)
        heavy = [PauliLabel(channel.n, int(a) & (2**channel.n - 1), int(a) >> channel.n)
                 for a in channel.labels[:2]]
        return [*heavy, random_label(channel.n, rng), random_label(channel.n, rng)]

    def test_diag_estimates(self, kind, n):
        channel = channel_factory(_pauli_spec(kind, n))
        assert isinstance(channel, PauliChannel)
        dense = KrausSet(n, channel.operators)
        for m in self.labels(channel):
            for seed in (3, 4):
                cfg = EstimatorConfig(M=400, seed=seed)
                assert estimate_chi_diag(channel, m, cfg) == estimate_chi_diag(dense, m, cfg)
            got = estimate_chi_diag(channel, m, ENUMERATE)
            want = estimate_chi_diag(dense, m, ENUMERATE)
            assert abs(got.value - want.value) <= 1e-14
            assert abs(got.std_error - want.std_error) <= 1e-14 and got.M == want.M

    def test_offdiag_estimates(self, kind, n):
        channel = channel_factory(_pauli_spec(kind, n))
        dense = KrausSet(n, channel.operators)
        labels = self.labels(channel)
        for m, n_label in [(labels[0], labels[0]), *zip(labels, labels[1:])]:
            for seed in (3, 4):
                cfg = EstimatorConfig(M=400, seed=seed)
                assert (estimate_chi_offdiag(channel, m, n_label, cfg)
                        == estimate_chi_offdiag(dense, m, n_label, cfg))
            got = estimate_chi_offdiag(channel, m, n_label, ENUMERATE)
            want = estimate_chi_offdiag(dense, m, n_label, ENUMERATE)
            assert abs(got.value - want.value) <= 1e-14
            assert abs(got.std_error - want.std_error) <= 1e-14 and got.M == want.M

    def test_triplet_records(self, kind, n):
        channel = channel_factory(_pauli_spec(kind, n))
        for seed in (3, 4):
            cfg = EstimatorConfig(M=400, seed=seed)
            assert run_triplet_experiments(channel, cfg) == run_triplet_experiments(
                KrausSet(n, channel.operators), cfg)

    def test_weight_table_is_the_transition_table(self, kind, n):
        """q[J, k XOR k'] = sum_i |<v_k'|A_i|v_k>|^2 for every J, k and k'."""
        channel = channel_factory(_pauli_spec(kind, n))
        d, ops = 2**n, channel.operators
        q = estimator._base_weights(channel, commutation_columns(n))
        assert q.shape == (d + 1, d)
        for j in range(d + 1):
            v = design_basis(n, j)
            dense = np.sum(np.abs(v.conj().T @ (ops @ v)) ** 2, axis=0).T  # [k, k']
            np.testing.assert_allclose(q[j, np.arange(d)[:, None] ^ np.arange(d)], dense,
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["identity", "depolarizing", "pauli_mixture"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_offdiag_rows_match_dense_amplitudes(kind, n):
    """The closed-form off-diagonal rows, (Re, Im) of sum_i conj(x_n) x_m and
    the survival, equal the dense amplitude kernel's rows: for every (m, n)
    pair at n <= 2, and sampled pairs and m = n above; on every design state,
    and 128 sampled ones at n = 5."""
    channel, d = channel_factory(_pauli_spec(kind, n)), 2**n
    rng = np.random.default_rng(70 + n)
    states = np.arange(d * (d + 1)) if n < 5 else rng.choice(d * (d + 1), 128, replace=False)
    ops = channel.operators
    v = design_bases(n).transpose(1, 0, 2).reshape(d, -1)[:, states]
    pairs = ([(a, b) for a in range(4**n) for b in range(4**n)] if n <= 2
             else [*rng.integers(0, 4**n, size=(6, 2)), (5, 5), (0, 0)])
    for a, b in pairs:
        m, n_label = label_from_index(n, int(a)), label_from_index(n, int(b))
        src, w = pauli_actions(n, [m.packed, n_label.packed])
        x_m, x_n = (estimator._amplitudes(ops, v, w[i][:, None] * v[src[i]]) for i in (0, 1))
        polarization = np.sum(x_n.conj() * x_m, axis=1)
        survival = np.sum(np.abs(x_m) ** 2 + np.abs(x_n) ** 2, axis=1) / 2
        got = estimator._pauli_table(channel, m, n_label)[states]
        np.testing.assert_allclose(got, np.array([polarization.real, polarization.imag,
                                                  survival]).T, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["identity", "depolarizing", "pauli_mixture"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pauli_survival_column_is_the_base_weight(kind, n):
    """The exact diagonal of a Pauli channel inverts the survival column
    q[J, p_m(J)] of the base weight table, D states per base, bit for bit,
    and that inversion is the channel's weight of m: every label at n <= 3,
    40 sampled ones above."""
    channel, d = channel_factory(_pauli_spec(kind, n)), 2**n
    cols = commutation_columns(n)
    q = estimator._base_weights(channel, cols)
    rng = np.random.default_rng(n)
    labels = all_labels(n) if n <= 3 else [random_label(n, rng) for _ in range(40)]
    for m in labels:
        packed = m.packed
        survival = np.repeat(q[np.arange(d + 1), gf2_apply(cols, packed)], d)
        want = float((((d + 1) * survival - 1) / d).mean())
        got = estimate_chi_diag(channel, m, ENUMERATE).value
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        assert abs(got - channel.weights[channel.labels == packed].sum()) <= 1e-12


def test_pauli_diag_reads_one_survival_per_base(monkeypatch):
    """A Pauli channel's diagonal protocol reads q[J, p_m(J)] per base from one
    base weight table: it builds no state table and no off-diagonal table."""
    def refuse(*args):
        raise AssertionError("table built for a Pauli diagonal")

    calls, base_weights = [], estimator._base_weights

    def counted(*args):
        calls.append(args)
        return base_weights(*args)

    channel = channel_factory(_pauli_spec("pauli_mixture", 3))
    m = PauliLabel.from_string("XYZ")
    for name in ("_pauli_table", "_state_table"):
        monkeypatch.setattr(estimator, name, refuse)
    monkeypatch.setattr(estimator, "_base_weights", counted)
    for cfg, m_count in ((EstimatorConfig(M=200, seed=1), 200), (ENUMERATE, 72)):
        calls.clear()
        assert estimate_chi_diag(channel, m, cfg).M == m_count
        assert len(calls) == 1


def test_diag_applies_no_pauli_operator(monkeypatch):
    """The diagonal reads its label through p_m(J) alone, on either channel
    form: it builds no signed permutation of E_m."""
    def refuse(*args):
        raise AssertionError("Pauli operator applied in the diagonal")

    monkeypatch.setattr(estimator, "pauli_actions", refuse)
    m = PauliLabel.from_string("XYZ")
    dense = channel_factory({"n": 3, "kind": "amplitude_damping", "gamma": 0.3})
    for channel in (dense, channel_factory(_pauli_spec("pauli_mixture", 3))):
        for cfg, m_count in ((EstimatorConfig(M=200, seed=1), 200), (ENUMERATE, 72)):
            assert estimate_chi_diag(channel, m, cfg).M == m_count


def _dense_diag_channels(n):
    yield channel_factory({"n": n, "kind": "amplitude_damping", "gamma": 0.3})
    yield channel_factory({"n": n, "kind": "unitary", "generator": "Y" * n, "theta": 0.7})
    yield channel_factory({"n": n, "kind": "compose", "children": [
        {"n": n, "kind": "depolarizing", "p": 0.2},
        {"n": n, "kind": "unitary", "generator": "X" + "Z" * (n - 1), "theta": 1.1}]})
    yield random_channel(n, np.random.default_rng(80 + n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_diag_table_is_the_modified_survival(monkeypatch, n):
    """The dense diagonal's state table, read at v_{k XOR p_m(J)}, is bit for
    bit sum_i |<E_m v_k|A_i|v_k>|^2 with E_m applied as a signed permutation:
    every label at n = 1, 12 sampled ones above, on every design state, in
    the state table's slices (a product's last bits follow them)."""
    tables = []

    def spy(*args):
        tables.append(state_table(*args))
        return tables[-1]

    state_table, d = estimator._state_table, 2**n
    monkeypatch.setattr(estimator, "_state_table", spy)
    v = design_bases(n).transpose(1, 0, 2).reshape(d, -1)
    rng = np.random.default_rng(90 + n)
    labels = [label_from_index(n, int(i))
              for i in (range(4) if n == 1 else rng.integers(0, 4**n, size=12))]
    src, w = pauli_actions(n, [a.packed for a in labels])
    for channel in _dense_diag_channels(n):
        ops = channel.operators
        step = max(1, estimator._SPREAD_ENTRIES // (ops.size // d))
        for i, m in enumerate(labels):
            estimate_chi_diag(channel, m, ENUMERATE)
            moved = w[i][:, None] * v[src[i]]
            want = np.concatenate([np.abs(estimator._amplitudes(
                ops, moved[:, lo:lo + step], v[:, lo:lo + step])) ** 2
                for lo in range(0, d * (d + 1), step)])
            want = np.sum(want, axis=1, keepdims=True)
            assert np.array_equal(tables.pop().view(np.uint64), want.view(np.uint64))


def test_pauli_offdiag_forms_no_operator_and_no_state(monkeypatch):
    """A Pauli channel's off-diagonal protocol reads its weight table: it
    expands no Kraus operator and gathers no design state."""
    def refuse(*args):
        raise AssertionError("dense readout on a Pauli channel")

    channel = channel_factory(_pauli_spec("depolarizing", 3))
    m, n_label = PauliLabel.from_string("XYZ"), PauliLabel.from_string("XIZ")
    monkeypatch.setattr(PauliChannel, "operators", property(refuse))
    monkeypatch.setattr(estimator, "design_bases", refuse)
    for cfg, m_count in ((EstimatorConfig(M=200, seed=1), 200), (ENUMERATE, 72)):
        assert estimate_chi_offdiag(channel, m, n_label, cfg).M == m_count


def test_estimator_reads_the_class_table_only():
    """The estimator binds none of the per-class API: every path reads the
    batched class table and design bases."""
    assert {"mub_class", "mub_classes", "design_basis"}.isdisjoint(vars(estimator))


def _slicing_cases():
    rng = np.random.default_rng(60)
    for n in (1, 2, 3, 4):
        yield random_channel(n, rng)  # dense
        yield channel_factory(_pauli_spec("pauli_mixture", n))


@pytest.mark.parametrize("seed", [7, 8])
def test_slicing_is_invisible(monkeypatch, seed):
    """One state or one label per slice gives the sampled estimates, triplet
    records and log readouts of the unsliced run, and its exact values up to
    rounding: BLAS computes a product's trailing columns through another
    kernel, so a dense exact value's last bits follow the slice boundaries."""
    def run_all():
        sampled, exact = [], []
        for channel in _slicing_cases():
            n, rng = channel.n, np.random.default_rng(seed)
            m, n_label = random_label(n, rng), random_label(n, rng)
            for cfg in (EstimatorConfig(M=300, seed=seed), ENUMERATE):
                (sampled if cfg.mode == "sampled" else exact).extend([
                    estimate_chi_diag(channel, m, cfg),
                    estimate_chi_offdiag(channel, m, n_label, cfg)])
            record = run_triplet_experiments(channel, EstimatorConfig(M=300, seed=seed))
            labels = [random_label(n, rng) for _ in range(6)]
            sampled += [record, estimate_diags_from_triplets(record, labels)]
        return sampled, exact

    sampled, exact = run_all()
    monkeypatch.setattr(estimator, "_SPREAD_ENTRIES", 1)
    sliced_sampled, sliced_exact = run_all()
    assert sliced_sampled == sampled
    for got, want in zip(sliced_exact, exact, strict=True):
        assert got.M == want.M and abs(got.value - want.value) <= 1e-16
        assert abs(got.std_error - want.std_error) <= 1e-16


def test_estimator_reads_channels_apart_from_the_oracle():
    """The estimator binds no dense Pauli or channel operation, nothing from
    the channel layer but the channel types, and the oracle, which
    cross-checks it, imports nothing from the estimator.  Chi is the
    oracle's alone: the channel layer binds none of it and imports nothing
    from the oracle."""
    dense = {"pauli_matrix", "commutation_vector", "apply_channel", "superoperator",
             "modified_channel_diag", "modified_channel_offdiag", "kraus_to_chi", "as_kraus"}
    assert dense.isdisjoint(vars(estimator))
    from_channels = [a.name for node in ast.walk(ast.parse(Path(estimator.__file__).read_text()))
                     if isinstance(node, ast.ImportFrom) and node.module == "channels"
                     for a in node.names]
    assert sorted(from_channels) == ["Channel", "PauliChannel"]
    bound = {name for name, obj in vars(estimator).items()
             if getattr(obj, "__module__", None) == channels.__name__}
    assert bound == {"PauliChannel"}

    def imported(module):  # every module and name its import statements name
        names = []
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names += [a.name for a in node.names]
        return names

    assert imported(oracle) and not any("estimator" in name for name in imported(oracle))
    assert imported(channels) and not any("oracle" in name for name in imported(channels))
    assert {"ChiMatrix", "pauli_coefficients", "kraus_to_chi"}.isdisjoint(vars(channels))


class TestStatisticalBehaviour:
    def test_coverage_over_seeds(self):
        """|chi-hat - chi| <= 5 sigma nearly always across 50 reruns."""
        hits = 0
        for seed in range(50):
            est = estimate_chi_diag(DEPOL1, L("Z"), EstimatorConfig(M=4000, seed=seed))
            hits += abs(est.value - 0.05) <= 5 * est.std_error
        assert hits >= 48

    def test_error_shrinks_like_root_m(self):
        small = [
            estimate_chi_diag(DEPOL1, L("Z"), EstimatorConfig(M=1000, seed=s)).std_error
            for s in range(12)
        ]
        large = [
            estimate_chi_diag(DEPOL1, L("Z"), EstimatorConfig(M=4000, seed=s)).std_error
            for s in range(12)
        ]
        ratio = np.mean(large) / np.mean(small)
        assert 0.375 < ratio < 0.625


@pytest.mark.parametrize("n, m_count", [(1, 1), (1, 500), (3, 100), (4, 3000)])
def test_state_table_reads_each_drawn_state_once(monkeypatch, n, m_count):
    """Both off-diagonal campaigns key one table by J*D + k: each state either
    campaign drew is read exactly once, and no undrawn state is read."""
    d, cfg = 2**n, EstimatorConfig(M=m_count, seed=m_count)
    rng = np.random.default_rng(n)
    channel, m, n_label = random_channel(n, rng), random_label(n, rng), random_label(n, rng)
    calls, reads = [], []
    state_table = estimator._state_table

    def spy(n_, key_arrays, readout, width, entries):
        def recording(js, ks):  # the drawn states handed to the readout
            reads.extend(js * d + ks)
            return readout(js, ks)

        calls.append((key_arrays, state_table(n_, key_arrays, recording, width, entries)))
        return calls[-1][1]

    monkeypatch.setattr(estimator, "_state_table", spy)
    estimate_chi_offdiag(channel, m, n_label, cfg)
    [(key_arrays, table)] = calls
    campaigns = []
    for tag in (estimator._TAG_OFFDIAG_X, estimator._TAG_OFFDIAG_Y):
        js, ks = estimator._sample_states(_campaign_rng(cfg.seed, tag), n, m_count)
        campaigns.append(js * d + ks)
    assert len(key_arrays) == 2
    assert all(np.array_equal(a, b) for a, b in zip(key_arrays, campaigns))
    drawn = np.union1d(*campaigns)
    assert sorted(reads) == drawn.tolist()
    assert table.shape == (d * (d + 1), 3)
    assert not table[np.setdiff1d(np.arange(d * (d + 1)), drawn)].any()


@pytest.mark.parametrize("step", [1, 3, 7, 50])
def test_state_table_slices_hold_the_bound(monkeypatch, step):
    """Each slice but the last holds the bound's states, in key order, bases
    or no bases."""
    n, d = 3, 8
    keys = np.random.default_rng(step).integers(0, d * (d + 1), size=40)
    slices = []

    def readout(js, ks):
        slices.append(js)
        return (js * d + ks)[:, None]

    monkeypatch.setattr(estimator, "_SPREAD_ENTRIES", 2 * step)
    table = estimator._state_table(n, [keys[:25], keys[25:]], readout, 1, 2)
    drawn = np.unique(keys)
    assert np.array_equal(np.concatenate(slices), drawn >> n)
    assert np.array_equal(table[drawn, 0], drawn) and not np.delete(table, drawn).any()
    assert all(len(js) == step for js in slices[:-1]) and len(slices[-1]) <= step


@pytest.mark.parametrize("width", [1, 2, 7])
def test_draw_matches_searchsorted(width):
    """The outcome index is the count of the state's ascending thresholds <= u,
    u placed exactly on a threshold included."""
    rng = np.random.default_rng(width)
    steps = rng.random((40, width)) * (rng.random((40, width)) > 0.3)  # ties where 0
    thresholds = np.cumsum(steps, axis=1) / (np.sum(steps, axis=1, keepdims=True) + 0.5)
    keys = rng.integers(0, 40, size=2000)
    us = rng.random(2000)
    us[:500] = thresholds[keys[:500], rng.integers(0, width, size=500)]
    want = [np.searchsorted(thresholds[k], u, side="right") for k, u in zip(keys, us)]
    got = estimator._draw(thresholds, keys, us)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


class TestTripletExperiments:
    def test_identity_channel_returns_prepared_state(self):
        trips = run_triplet_experiments(IDENT1, EstimatorConfig(M=200, seed=1))
        assert len(trips) == 200
        assert np.array_equal(trips.k_prime, trips.k)

    def test_bit_flip_channel_shifts_by_commutation_vector(self):
        flip = channel_factory({"n": 1, "kind": "pauli_mixture", "weights": {"X": 1.0}})
        trips = run_triplet_experiments(flip, EstimatorConfig(M=200, seed=2))
        x = L("X")
        for j, k, k_prime in zip(trips.J, trips.k, trips.k_prime):
            p = commutation_vector(x, mub_class(1, int(j)))
            assert k_prime == k ^ p

    def test_full_depolarizing_is_uniform_given_state(self):
        dep = channel_factory({"n": 2, "kind": "depolarizing", "p": 1.0})
        trips = run_triplet_experiments(dep, EstimatorConfig(M=10_000, seed=3))
        counts = np.bincount(trips.k_prime, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_deterministic_under_seed(self):
        a = run_triplet_experiments(MIX2, EstimatorConfig(M=300, seed=9))
        b = run_triplet_experiments(MIX2, EstimatorConfig(M=300, seed=9))
        assert a == b

    def test_exact_mode_rejected(self):
        with pytest.raises(ValueError):
            run_triplet_experiments(IDENT1, EstimatorConfig(mode="exact"))

    def test_tiny_negative_weight_is_refused(self):
        """A PauliChannel built in Python checks its weights, so a tiny
        negative weight, which no channel spec gives, never reaches the
        sampler's rows."""
        with pytest.raises(ValueError, match="weights must be finite and >= 0"):
            PauliChannel(1, np.array([0, 1]), np.array([1 + 1e-7, -1e-7]))


def _base_probabilities(rho, n, j):
    b = design_basis(n, j)
    return np.einsum("ik,ij,jk->k", b.conj(), rho, b).real


class TestDistribution:
    """The sampler's row renormalization, one base per row."""

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError, match=r"base-0 .*mass off by 3.000e\+00"):
            estimator._distribution(_base_probabilities(2 * np.eye(2), 1, 0)[None], np.array([0]))
        with pytest.raises(ValueError, match="base-0 "):
            estimator._distribution(np.array([[0.5, 0.5], [0.7, 0.7]]), np.array([0, 0]))
        with pytest.raises(ValueError, match="mass off by nan"):
            estimator._distribution(np.array([[np.nan, 0.5]]), np.array([0]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        for j in range(5):
            rows = np.stack([
                _base_probabilities(rho, 2, j),
                _base_probabilities(np.eye(4) / 4, 2, j),
                *(_base_probabilities(np.outer(v, v.conj()), 2, j) for v in design_basis(2, j).T),
            ])
            probs = estimator._distribution(rows, np.full(len(rows), j))
            np.testing.assert_allclose(probs.sum(axis=1), 1, atol=1e-12)
            np.testing.assert_allclose(probs[1], 0.25, atol=1e-12)
            np.testing.assert_allclose(probs[2:], np.eye(4), atol=1e-12)

    def test_rows_of_several_bases_name_the_faulty_base(self, caplog):
        """The error and the log name the base of the first row at fault,
        not the first row's base."""
        with pytest.raises(ValueError, match="base-3 "):
            estimator._distribution(np.array([[0.5, 0.5], [0.7, 0.7]]), np.array([1, 3]))
        with caplog.at_level(logging.DEBUG, logger="chitomo.estimator"):
            probs = estimator._distribution(
                np.array([[0.5, 0.5], [1 - 1e-10, 0.0], [1 + 1e-8, 0.0]]), np.array([1, 2, 4]))
        np.testing.assert_allclose(probs, [[0.5, 0.5], [1, 0], [1, 0]], atol=1e-15)
        assert [r.getMessage() for r in caplog.records] == [
            "base-4 probability mass deviates by 1.000e-08"]


class TestDiagFromTriplets:
    def test_identity_types(self):
        trips = run_triplet_experiments(IDENT1, EstimatorConfig(M=400, seed=4))
        assert estimate_diags_from_triplets(trips, [L("I")])[0].value == 1.0
        est, = estimate_diags_from_triplets(trips, [L("Z")])
        assert abs(est.value) < 5 * est.std_error

    def test_mixture_weights_recovered(self):
        trips = run_triplet_experiments(MIX2, EstimatorConfig(M=30_000, seed=5))
        for label, weight in (("II", 0.7), ("XI", 0.2), ("ZZ", 0.1)):
            est, = estimate_diags_from_triplets(trips, [L(label)])
            assert abs(est.value - weight) < 5 * est.std_error

    def test_count_table_matches_record_scan(self):
        """Every label at n=2 against a per-record scan of the same record."""
        channel = random_channel(2, np.random.default_rng(31))
        trips = run_triplet_experiments(channel, EstimatorConfig(M=700, seed=31))
        d = 4
        for label in all_labels(2):
            stats_ = [
                ((d + 1) * (k ^ kp == commutation_vector(label, mub_class(2, int(j)))) - 1) / d
                for j, k, kp in zip(trips.J, trips.k, trips.k_prime)
            ]
            est, = estimate_diags_from_triplets(trips, [label])
            assert abs(est.value - np.mean(stats_)) < 1e-12
            assert abs(est.std_error - np.std(stats_, ddof=1) / math.sqrt(700)) < 1e-12
            assert est.M == 700

    def test_many_labels_equal_per_label_calls(self):
        channel = random_channel(3, np.random.default_rng(32))
        trips = run_triplet_experiments(channel, EstimatorConfig(M=2_000, seed=32))
        labels = all_labels(3)
        assert estimate_diags_from_triplets(trips, labels) == [
            estimate_diags_from_triplets(trips, [m])[0] for m in labels
        ]
        with pytest.raises(ValueError):
            estimate_diags_from_triplets(trips, [L("XYZ"), L("XY")])

    def test_agrees_with_direct_estimator(self):
        trips = run_triplet_experiments(MIX2, EstimatorConfig(M=30_000, seed=6))
        direct = estimate_chi_diag(MIX2, L("XI"), EstimatorConfig(M=30_000, seed=7))
        from_log, = estimate_diags_from_triplets(trips, [L("XI")])
        combined = math.hypot(direct.std_error, from_log.std_error)
        assert abs(direct.value - from_log.value) < 5 * combined

    def test_input_validation(self):
        with pytest.raises(ValueError):
            TripletRecord(1, [], [], [])
        with pytest.raises(ValueError):
            estimate_diags_from_triplets(TripletRecord(1, [0], [0], [0]), [L("XX")])

    @pytest.mark.parametrize(
        "n, columns",
        [
            (1, ([0, 1], [0], [0, 0])),  # unequal lengths
            (0, ([0], [0], [0])),
            (13, ([0], [0], [0])),
            (1, ([3], [0], [0])),  # J > D
            (1, ([-1], [0], [0])),
            (2, ([0], [4], [0])),  # k >= D
            (2, ([0], [0], [-1])),
        ],
    )
    def test_record_rejects_bad_columns(self, n, columns):
        with pytest.raises(ValueError):
            TripletRecord(n, *columns)


class TestSieve:
    def test_identity_channel_returns_identity_only(self):
        trips = run_triplet_experiments(IDENT1, EstimatorConfig(M=50, seed=8))
        found = sieve_large_diagonals(trips, 0.5)
        assert [str(lbl) for lbl, _ in found] == ["I"]
        assert abs(found[0][1].value - 1) < 0.2

    def test_sparse_mixture_support_recovered_at_n4(self):
        mix4 = channel_factory(
            {"n": 4, "kind": "pauli_mixture", "weights": {"IIII": 0.6, "XIII": 0.25, "ZZII": 0.15}}
        )
        trips = run_triplet_experiments(mix4, EstimatorConfig(M=2000, seed=10))
        stats_out: dict = {}
        found = sieve_large_diagonals(trips, 0.08, stats=stats_out)
        assert [str(lbl) for lbl, _ in found] == ["IIII", "XIII", "ZZII"]
        for (lbl, est), weight in zip(found, (0.6, 0.25, 0.15)):
            assert abs(est.value - weight) < 5 * est.std_error
        assert stats_out["pairs_processed"] <= 2000 * 2001 // 2
        assert stats_out["pairs_processed"] == stats_out["total_pairs"]

    def test_small_depolarizing_keeps_identity_only(self):
        dep = channel_factory({"n": 3, "kind": "depolarizing", "p": 0.05})
        trips = run_triplet_experiments(dep, EstimatorConfig(M=3000, seed=11))
        found = sieve_large_diagonals(trips, 0.5)
        assert [str(lbl) for lbl, _ in found] == ["III"]

    def test_results_sorted_descending(self):
        trips = run_triplet_experiments(MIX2, EstimatorConfig(M=5000, seed=12))
        found = sieve_large_diagonals(trips, 0.05)
        values = [est.value for _, est in found]
        assert values == sorted(values, reverse=True)

    def test_large_record_processes_every_pair(self):
        """A large record still has every one of its ~2.1e7 record pairs vote."""
        mix = channel_factory(
            {"n": 1, "kind": "pauli_mixture", "weights": {"I": 0.8, "X": 0.2}}
        )
        trips = run_triplet_experiments(mix, EstimatorConfig(M=8000, seed=13))
        stats_out: dict = {}
        found = sieve_large_diagonals(trips, 0.1, stats=stats_out)
        assert stats_out["pairs_processed"] == stats_out["total_pairs"]
        assert {str(lbl) for lbl, _ in found} == {"I", "X"}

    def test_synthetic_pauli_log_above_dense_cap(self):
        """n=7 records drawn from a Pauli channel with commutation vectors only."""
        n, m_count = 7, 1500
        weights = {"I" * n: 0.6, "X" + "I" * (n - 1): 0.25, "IZZ" + "I" * (n - 3): 0.15}
        labels = [L(a) for a in weights]
        rng = np.random.default_rng(70)
        js = rng.integers(0, 2**n + 1, size=m_count)
        ks = rng.integers(0, 2**n, size=m_count)
        drawn = rng.choice(len(labels), size=m_count, p=list(weights.values()))
        k_primes = [
            k ^ commutation_vector(labels[a], mub_class(n, int(j)))
            for j, k, a in zip(js, ks, drawn)
        ]
        stats_out: dict = {}
        found = sieve_large_diagonals(TripletRecord(n, js, ks, k_primes), 0.08, stats_out)
        assert [str(lbl) for lbl, _ in found] == list(weights)
        for (_, est), weight in zip(found, weights.values()):
            assert abs(est.value - weight) < 5 * est.std_error
        assert stats_out["pairs_processed"] == stats_out["total_pairs"]

    def test_input_validation(self):
        single = TripletRecord(1, [0, 0], [0, 1], [0, 1])
        with pytest.raises(ValueError):
            sieve_large_diagonals(single, 0.5)
        both = TripletRecord(1, [0, 1], [0, 0], [0, 0])
        with pytest.raises(ValueError):
            sieve_large_diagonals(both, 0.0)


def _coset(n, J, x):
    """s + C_J as packed labels: C_J spanned by the class-J generators, s = X^x
    for J = 0 and Z^x for J >= 1."""
    gens = np.array([g.packed for g in mub_class(n, J).generators])
    return (x if J == 0 else x << n) ^ gf2_apply(gens, np.arange(2**n))


class TestCosetIdentity:
    """The labels of commutation vector x in base J are one coset of C_J."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        for J in range(2**n + 1):
            by_vector = {}
            for m in all_labels(n):
                by_vector.setdefault(commutation_vector(m, mub_class(n, J)), set()).add(m.packed)
            for x in range(2**n):
                coset = _coset(n, J, x).tolist()
                assert len(set(coset)) == 2**n
                assert set(coset) == by_vector[x]

    @pytest.mark.parametrize("n", [8, 12])
    def test_sampled(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            J, x = int(rng.integers(0, 2**n + 1)), int(rng.integers(0, 2**n))
            members = rng.choice(_coset(n, J, x), size=16, replace=False)
            for v in members:
                m = PauliLabel.from_packed(n, v)
                assert commutation_vector(m, mub_class(n, J)) == x


def _pair_reference(record, threshold):
    """Sieve by brute force: every pair of records from distinct bases solves
    its own label, in count-table order; ordered by value, votes, first vote."""
    n, d, m_count = record.n, 2**record.n, len(record)
    rows = sorted(zip(record.J.tolist(), (record.k ^ record.k_prime).tolist()))
    votes, first, total = Counter(), {}, 0
    for i, (ja, xa) in enumerate(rows):
        for jb, xb in rows[i + 1:]:
            if ja != jb:
                label = solve_label_from_constraints(mub_class(n, ja), xa, mub_class(n, jb), xb)
                votes[label] += 1
                first.setdefault(label, total)
                total += 1
    value = {}
    for m in votes:
        hits = sum(x == commutation_vector(m, mub_class(n, j)) for j, x in rows)
        value[m] = ((d + 1) * hits / m_count - 1) / d
    ranked = sorted(votes, key=lambda m: (-value[m], -votes[m], first[m]))
    found = [(m, value[m]) for m in ranked if value[m] > threshold]
    stats_ = {"total_pairs": total, "pairs_processed": sum(votes.values()),
              "candidates": len(votes)}
    return found, stats_, [(value[m], votes[m]) for m, _ in found]


def _random_record(n, m_count, seed):
    rng = np.random.default_rng(seed)
    return TripletRecord(n, rng.integers(0, 2**n + 1, size=m_count),
                         rng.integers(0, 2**n, size=m_count), rng.integers(0, 2**n, size=m_count))


class TestSieveAgainstPairs:
    @pytest.mark.parametrize("make", [
        lambda: run_triplet_experiments(MIX2, EstimatorConfig(M=60, seed=21)),
        lambda: _random_record(2, 50, 22),
        lambda: _random_record(3, 90, 23),
        lambda: run_triplet_experiments(
            channel_factory({"n": 3, "kind": "depolarizing", "p": 0.3}),
            EstimatorConfig(M=120, seed=24)),
    ], ids=["mix2", "random2", "random3", "depolarizing3"])
    def test_matches_brute_force_pairs(self, make):
        record = make()
        want, want_stats, keys = _pair_reference(record, 1e-12)
        assert any(a == b for a, b in zip(keys, keys[1:]))  # ties the first vote breaks
        stats_out: dict = {}
        got = sieve_large_diagonals(record, 1e-12, stats_out)
        assert [m for m, _ in got] == [m for m, _ in want]
        assert all(abs(est.value - v) < 1e-12 for (_, est), (_, v) in zip(got, want))
        assert stats_out == want_stats


# A valid n=4 log (J has up to w=2 digits) and bad lines for its records.
_LOG4_HEADER = f"# seqpt-triplets v1 n=4 seed=0 M=5 channel={'0' * 64}\n"
_LOG4_LINES = ["0\t0000\t0000", "16\t1010\t0110", "5\t1111\t0001", "9\t0011\t1100",
               "12\t0101\t0101"]
_BAD_LINES = {
    "missing-field": (4, "16\t1010", "field count 2, not 3"),
    "extra-field": (4, "16\t1010\t0110\t1", "field count 4, not 3"),
    "empty-J": (3, "\t1010\t0110", "empty J"),
    "non-digit-J": (4, "1x\t1010\t0110", "J must be ASCII digits"),
    "signed-J": (5, "+5\t1010\t0110", "J must be ASCII digits"),
    "space-padded-J": (5, " 5\t1010\t0110", "J must be ASCII digits"),
    "J-longer-than-w": (4, "016\t1010\t0110", "J has 3 characters, D=16 has 2"),
    "short-bits": (6, "16\t101\t0110", "k and k' must have 4 bits each"),
    "long-bits": (4, "16\t1010\t01101", "k and k' must have 4 bits each"),
    "non-binary-bits": (3, "16\t1020\t0110", "k and k' must be 0s and 1s"),
    "blank-mid-file": (4, "", "field count 1, not 3"),
    "trailing-blank": (6, "", "field count 1, not 3"),  # the file ends in "\n\n"
}


def _random_record(n: int, m_count: int, seed: int) -> TripletRecord:
    rng = np.random.default_rng(seed)
    d = 2**n
    return TripletRecord(n, *(rng.integers(0, top, size=m_count) for top in (d + 1, d, d)))


class TestTripletLogs:
    def test_bit_formatting_round_trip(self, tmp_path):
        """Every k and k' value at n = 1, 3, 5 survives write -> read, bit 0
        is written first, and bit strings of the wrong shape are refused."""
        path = tmp_path / "bits.log"
        for n in (1, 3, 5):
            values = np.arange(2**n)
            record = TripletRecord(n, np.zeros_like(values), values, values[::-1])
            write_triplet_log(path, record, seed=0, channel_hash="ab" * 32)
            assert read_triplet_log(path)[0] == record
        write_triplet_log(path, TripletRecord(4, [5, 16], [0b1010, 0], [1, 15]), 0, "ab" * 32)
        assert path.read_text().splitlines()[1:] == ["5\t0101\t1000", "16\t0000\t1111"]
        header = f"# seqpt-triplets v1 n=3 seed=0 M=1 channel={'0' * 64}\n"
        for bits in ("012", "01"):
            path.write_text(header + f"0\t{bits}\t000\n")
            with pytest.raises(TripletLogError, match="^line 2: "):
                read_triplet_log(path)

    @pytest.mark.parametrize("case", list(_BAD_LINES))
    def test_malformed_line_named(self, tmp_path, case):
        """One bad line among valid ones is reported with its file line number."""
        line_no, bad, reason = _BAD_LINES[case]
        lines = list(_LOG4_LINES)
        lines[line_no - 2] = bad
        path = tmp_path / "bad.log"
        path.write_text(_LOG4_HEADER + "\n".join(lines) + "\n")
        with pytest.raises(TripletLogError) as info:
            read_triplet_log(path)
        assert str(info.value) == f"line {line_no}: expected J<TAB>k<TAB>k' ({reason})"

    @pytest.mark.parametrize("variant", ["crlf", "no-final-newline", "zero-padded-J"])
    def test_accepted_variants_read_as_original(self, tmp_path, variant):
        text = _LOG4_HEADER + "\n".join(_LOG4_LINES) + "\n"
        path = tmp_path / "t.log"
        path.write_text(text)
        original = read_triplet_log(path)
        if variant == "crlf":
            text = text.replace("\n", "\r\n")
        elif variant == "no-final-newline":
            text = text.rstrip("\n")
        else:
            text = text.replace("\n5\t", "\n05\t").replace("\n0\t", "\n00\t")
        path.write_bytes(text.encode())
        loaded, meta = read_triplet_log(path)
        assert loaded == original[0] and meta == original[1]

    @pytest.mark.parametrize("case", ["missing-field", "non-binary-bits", "J-longer-than-w"])
    def test_bad_line_past_first_slice_named_in_file(self, tmp_path, case):
        """A bad line in a later slice is named by its line number in the whole
        file, with the reason a one-slice log gives."""
        _, bad, reason = _BAD_LINES[case]
        path = tmp_path / "big.log"
        write_triplet_log(path, _random_record(4, 3 * estimator._SLICE, seed=4), 0, "ab" * 32)
        lines = path.read_bytes().split(b"\n")
        line_no = 2 * estimator._SLICE + 17
        assert len(b"\n".join(lines[1:line_no - 1])) > estimator._SLICE * (2 * 4 + 4)
        lines[line_no - 1] = bad.encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TripletLogError) as info:
            read_triplet_log(path)
        assert str(info.value) == f"line {line_no}: expected J<TAB>k<TAB>k' ({reason})"

    @pytest.mark.parametrize("variant", ["crlf", "no-final-newline"])
    def test_accepted_variants_past_first_slice(self, tmp_path, variant):
        path = tmp_path / "big.log"
        record = _random_record(5, 2 * estimator._SLICE + 3, seed=5)
        write_triplet_log(path, record, 0, "ab" * 32)
        text = path.read_bytes()
        assert len(text) > 2 * estimator._SLICE * (2 * 5 + 4)
        original = read_triplet_log(path)
        path.write_bytes(text.replace(b"\n", b"\r\n") if variant == "crlf" else text[:-1])
        loaded, meta = read_triplet_log(path)
        assert loaded == original[0] == record and meta == original[1]

    def test_n12_round_trip_past_first_slice(self, tmp_path):
        path = tmp_path / "n12.log"
        record = _random_record(12, estimator._SLICE + 1000, seed=12)
        write_triplet_log(path, record, 0, "ab" * 32)
        assert path.stat().st_size > estimator._SLICE * (2 * 12 + 4)
        assert read_triplet_log(path)[0] == record

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_first_record_with_one_digit_J(self, tmp_path, n):
        """The first record's J columns reach back past its line, into the
        header; a one-digit J there still reads as itself."""
        path = tmp_path / "t.log"
        record = TripletRecord(n, [7, 2**n, 0], [1, 2, 2**n - 1], [0, 2**n - 1, 3])
        write_triplet_log(path, record, 0, "ab" * 32)
        assert path.read_text().splitlines()[1].startswith("7\t")
        assert read_triplet_log(path)[0] == record

    def test_write_read_round_trip(self, tmp_path):
        trips = run_triplet_experiments(MIX2, EstimatorConfig(M=120, seed=21))
        path = tmp_path / "triplets.log"
        write_triplet_log(path, trips, seed=21, channel_hash="ab" * 32)
        loaded, meta = read_triplet_log(path)
        assert loaded == trips
        assert meta == {"n": 2, "seed": 21, "M": 120, "channel": "ab" * 32}

    def test_malformed_logs_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("no header\n")
        with pytest.raises(TripletLogError):
            read_triplet_log(path)
        header = f"# seqpt-triplets v1 n=1 seed=0 M=2 channel={'0' * 64}\n"
        path.write_text(header + "0\t0\t0\n")  # fewer lines than M
        with pytest.raises(TripletLogError):
            read_triplet_log(path)
        path.write_text(header + "0\t0\t0\n9\t0\t0\n")  # J out of range
        with pytest.raises(TripletLogError):
            read_triplet_log(path)
        path.write_text(header + "0\t0\t0\n0 0 0\n")  # wrong separator
        with pytest.raises(TripletLogError):
            read_triplet_log(path)
        for bits in ("2", "01", ""):  # not a 1-bit string
            path.write_text(header + f"0\t0\t0\n1\t{bits}\t0\n")
            with pytest.raises(TripletLogError):
                read_triplet_log(path)
        with pytest.raises(TripletLogError):
            read_triplet_log(tmp_path / "missing.log")
