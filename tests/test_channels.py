"""Channel representations, conversions, and the channel-spec factory."""

import itertools
import json
import re
import sys

import numpy as np
import pytest

from chitomo import channels
from chitomo.channels import (
    COMPOSE_DEPTH_CAP,
    ChannelSpecError,
    KrausSet,
    PauliChannel,
    apply_channel,
    canonical_spec_bytes,
    channel_factory,
    channel_spec_sha256,
    kraus_completeness_deviation,
    load_channel_spec,
    matrix_from_json,
    matrix_to_json,
    modified_channel_diag,
    superoperator,
)
from chitomo.oracle import ChiMatrix, exact_chi
from chitomo.pauli import (
    DenseCapError,
    PauliLabel,
    all_labels,
    label_from_index,
    label_index,
    pauli_matrix,
)

from reference import (
    kron_pauli_basis,
    modified_channel_offdiag,
    pauli_channel_labels,
    random_pauli_channel,
    seven_kinds,
)


def L(s):
    return PauliLabel.from_string(s)


def random_kraus_channel(n, rng, ops=3):
    """A random CPTP map from the isometry trick: stack Gaussian blocks, QR."""
    d = 2**n
    g = rng.normal(size=(ops * d, d)) + 1j * rng.normal(size=(ops * d, d))
    q, _ = np.linalg.qr(g)
    return KrausSet(n, tuple(q[i * d : (i + 1) * d] for i in range(ops)))


def random_form(form, n, rng, ops=3):
    """A random channel of either form: a Kraus set, or a Pauli weight map."""
    if form == "kraus":
        return random_kraus_channel(n, rng, ops)
    return random_pauli_channel(n, rng, ops)


def dense_operators(channel):
    """The Kraus operators, or sqrt(w_a) P_a per label from pauli_matrix,
    apart from the package's own expansion of a Pauli channel."""
    if isinstance(channel, KrausSet):
        return channel.operators
    return [np.sqrt(w) * pauli_matrix(a)
            for a, w in zip(pauli_channel_labels(channel), channel.weights)]


def chi_faults(chi, n):
    """Deviations of a chi matrix from a channel's: Hermiticity, the negative
    part of its spectrum, and sum_mn chi_mn E_n^dag E_m from I."""
    b = kron_pauli_basis(n)
    total = np.einsum("mn,nji,mjk->ik", chi, b.conj(), b)
    return (np.max(np.abs(chi - chi.conj().T)),
            -min(np.min(np.linalg.eigvalsh((chi + chi.conj().T) / 2)), 0.0),
            np.max(np.abs(total - np.eye(2**n))))


class TestKrausToChi:
    def test_identity(self):
        chi = exact_chi(channel_factory({"n": 1, "kind": "identity"}))
        want = np.zeros((4, 4))
        want[0, 0] = 1
        np.testing.assert_allclose(chi.mat, want, atol=1e-15)

    def test_x_gate(self):
        u = channel_factory({"n": 1, "kind": "pauli_mixture", "weights": {"X": 1.0}})
        chi = exact_chi(u)
        assert abs(chi.entry(L("X"), L("X")) - 1) < 1e-14
        assert abs(chi.mat.sum() - 1) < 1e-13

    @pytest.mark.parametrize("n,p", [(1, 0.2), (2, 0.48)])
    def test_depolarizing_diagonal(self, n, p):
        """(1-p) + p/D^2 at the identity, p/D^2 everywhere else."""
        chi = exact_chi(channel_factory({"n": n, "kind": "depolarizing", "p": p}))
        d2 = 4**n
        want = np.full(d2, p / d2)
        want[0] += 1 - p
        np.testing.assert_allclose(np.diag(chi.mat).real, want, atol=1e-12)
        np.testing.assert_allclose(chi.mat - np.diag(np.diag(chi.mat)), 0, atol=1e-12)

    def test_amplitude_damping_entries(self):
        """gamma = 0.36 has rational Pauli coefficients: a=0.9, b=0.1."""
        chi = exact_chi(
            channel_factory({"n": 1, "kind": "amplitude_damping", "gamma": 0.36})
        )
        assert abs(chi.entry(L("I"), L("I")) - 0.81) < 1e-12
        assert abs(chi.entry(L("I"), L("Z")) - 0.09) < 1e-12
        assert abs(chi.entry(L("Z"), L("Z")) - 0.01) < 1e-12
        assert abs(chi.entry(L("X"), L("X")) - 0.09) < 1e-12
        assert abs(chi.entry(L("X"), L("Y")) - (-0.09j)) < 1e-12
        assert abs(chi.entry(L("Y"), L("X")) - 0.09j) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factory_kinds_give_valid_chi(self, n):
        """chi of every factory kind is Hermitian and positive semidefinite,
        and sum_mn chi_mn E_n^dag E_m = I (trace preservation)."""
        for kind, spec in seven_kinds(n).items():
            hermiticity, negativity, trace = chi_faults(exact_chi(channel_factory(spec)).mat, n)
            assert hermiticity <= 1e-12 and negativity <= 1e-12 and trace <= 1e-12, kind

    def test_chi_faults_detect_each_failure_mode(self):
        """A non-Hermitian, a non-positive and a scaled chi each fail one check."""
        good = exact_chi(channel_factory({"n": 1, "kind": "identity"})).mat
        assert max(chi_faults(good, 1)) <= 1e-15
        herm, neg = good.copy(), good.copy()
        herm[0, 1] = 1e-6
        neg[1, 1] = -1e-6
        assert chi_faults(herm, 1)[0] > 1e-9
        assert chi_faults(neg, 1)[1] > 1e-9
        assert chi_faults(1.001 * good, 1)[2] > 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_channel_chi_is_its_weight_map(self, n):
        """chi of a Pauli channel is diagonal, chi_aa = w_a on its labels."""
        channel = random_pauli_channel(n, np.random.default_rng(110 + n), ops=5)
        want = np.zeros((4**n, 4**n))
        for a, w in zip(pauli_channel_labels(channel), channel.weights):
            want[label_index(a), label_index(a)] = w
        np.testing.assert_allclose(exact_chi(channel).mat, want, rtol=0, atol=1e-15)

    def test_entry_refuses_labels_of_another_n(self):
        chi = exact_chi(channel_factory(
            {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.7, "IX": 0.3}}))
        assert abs(chi.entry(L("IX"), L("IX")) - 0.3) < 1e-15
        for m, n_label in ((L("X"), L("X")), (L("IX"), L("X")), (L("X"), L("IX")),
                           (L("IXI"), L("IXI"))):
            with pytest.raises(ValueError, match="do not match chi n=2"):
                chi.entry(m, n_label)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChiMatrix(2, np.eye(4))
        with pytest.raises(ValueError):
            KrausSet(1, (np.eye(4),))
        with pytest.raises(ValueError):
            KrausSet(1, ())


class TestApplyChannel:
    def test_depolarizing_closed_form(self):
        """E(rho) = (1-p) rho + p Tr(rho) I/D, for any input matrix."""
        rng = np.random.default_rng(11)
        for n, p in ((1, 0.3), (2, 0.85)):
            d = 2**n
            dep = channel_factory({"n": n, "kind": "depolarizing", "p": p})
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            want = (1 - p) * rho + p * np.trace(rho) * np.eye(d) / d
            np.testing.assert_allclose(apply_channel(dep, rho), want, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(17)
        k = random_kraus_channel(2, rng)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        out = apply_channel(k, rho)
        assert abs(np.trace(out) - 1) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(channel_factory({"n": 2, "kind": "identity"}), np.eye(2))

    def test_pauli_weight_map_matches_its_sum(self):
        """A Pauli channel maps rho to sum_a w_a P_a rho P_a over its labels."""
        rng = np.random.default_rng(13)
        for n in (1, 2):
            channel = random_pauli_channel(n, rng)
            d = 2**n
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            want = sum(w * pauli_matrix(a) @ rho @ pauli_matrix(a)
                       for a, w in zip(pauli_channel_labels(channel), channel.weights))
            np.testing.assert_allclose(apply_channel(channel, rho), want, atol=1e-12)

    @pytest.mark.parametrize("form", ["kraus", "pauli"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_per_matrix(self, form, n):
        """A (S, D, D) stack, and a (2, 3, D, D) one, map matrix by matrix."""
        rng = np.random.default_rng(20 + n)
        channel = random_form(form, n, rng)
        d = 2**n
        stack = rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))
        want = np.stack([apply_channel(channel, rho) for rho in stack])
        np.testing.assert_allclose(apply_channel(channel, stack), want, atol=1e-12)
        np.testing.assert_allclose(
            apply_channel(channel, stack.reshape(2, 3, d, d)), want.reshape(2, 3, d, d),
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_operator_sum_reference(self, n):
        """Every Kraus operator contributes."""
        rng = np.random.default_rng(30 + n)
        k = random_kraus_channel(n, rng, ops=4)
        d = 2**n
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = sum(a @ rho @ a.conj().T for a in k.operators)
        np.testing.assert_allclose(apply_channel(k, rho), want, atol=1e-12)


def random_matrices(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def operator_sum(channel, stack):
    """sum_k A_k rho A_k^dag, term by term."""
    return sum(a @ stack @ a.conj().T for a in dense_operators(channel))


def kron_superoperator(channel):
    """S = sum_k A_k (x) conj(A_k) from the operator sum, for row-major vec."""
    return sum(np.kron(a, a.conj()) for a in dense_operators(channel))


def apply_superoperator(sop, stack):
    d2 = len(sop)
    return (stack.reshape(-1, d2) @ sop.T).reshape(stack.shape)


class TestApplyChannelPaths:
    @pytest.mark.parametrize("form", ["kraus", "pauli"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_paths_match_operator_sum(self, form, n, monkeypatch):
        """One matrix goes operator by operator, the D(D+1) design-sized stack
        through the superoperator, or operator by operator with no room for S."""
        rng = np.random.default_rng(70 + n)
        channel = random_form(form, n, rng, ops=4)
        d = 2**n
        stack = random_matrices(rng, d * (d + 1), d, d)
        want = operator_sum(channel, stack)
        np.testing.assert_allclose(apply_channel(channel, stack[0]), want[0], atol=1e-12)
        np.testing.assert_allclose(apply_channel(channel, stack), want, atol=1e-12)
        monkeypatch.setattr(channels, "_SUPEROPERATOR_BYTES", 0)
        monkeypatch.setattr(channels, "superoperator", None)  # must not be reached
        np.testing.assert_allclose(apply_channel(channel, stack), want, atol=1e-12)

    def test_superoperator_only_when_cheaper(self, monkeypatch):
        """One matrix, or a unitary's stack, never builds S; a design stack
        through a many-Kraus channel does."""
        built = []
        superoperator = channels.superoperator
        monkeypatch.setattr(
            channels, "superoperator", lambda *a: built.append(1) or superoperator(*a)
        )
        u = channel_factory({"n": 3, "kind": "unitary", "generator": "XYZ", "theta": 0.4})
        dep = channel_factory({"n": 3, "kind": "depolarizing", "p": 0.3})
        apply_channel(u, np.zeros((72, 8, 8)))
        apply_channel(dep, np.eye(8))
        assert built == []
        apply_channel(dep, np.zeros((72, 8, 8)))
        assert built == [1]


class TestSuperoperator:
    @pytest.mark.parametrize("form", ["kraus", "pauli"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_operator_sum(self, form, n):
        """Non-Hermitian (S, D, D) and (2, 3, D, D) stacks map as the operator
        sum maps them."""
        rng = np.random.default_rng(40 + n)
        channel = random_form(form, n, rng, ops=4)
        d = 2**n
        sop = superoperator(channel)
        assert sop.shape == (d * d, d * d)
        stack = random_matrices(rng, 6, d, d)
        want = operator_sum(channel, stack)
        np.testing.assert_allclose(apply_superoperator(sop, stack), want, atol=1e-12)
        four_d = stack.reshape(2, 3, d, d)
        np.testing.assert_allclose(
            apply_superoperator(sop, four_d), want.reshape(2, 3, d, d), atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_kron_operator_sum(self, n):
        """S equals sum_k A_k (x) conj(A_k)."""
        k = random_kraus_channel(n, np.random.default_rng(50 + n), ops=3)
        np.testing.assert_allclose(superoperator(k), kron_superoperator(k), atol=1e-12)


class TestModifiedChannels:
    def test_diag_modification_stays_trace_preserving(self):
        rng = np.random.default_rng(23)
        k = random_kraus_channel(2, rng)
        for m in ("XI", "YZ", "II"):
            mod = modified_channel_diag(k, L(m))
            assert kraus_completeness_deviation(mod) < 1e-12

    def test_diag_modification_conjugates_output(self):
        rng = np.random.default_rng(29)
        k = random_kraus_channel(1, rng)
        rho = np.diag([0.25, 0.75]).astype(complex)
        mod = modified_channel_diag(k, L("Y"))
        y = pauli_matrix(L("Y"))
        np.testing.assert_allclose(
            apply_channel(mod, rho), y.conj().T @ apply_channel(k, rho) @ y, atol=1e-12
        )

    def test_offdiag_modification_adds_ancilla(self):
        k = channel_factory({"n": 2, "kind": "depolarizing", "p": 0.5})
        mod = modified_channel_offdiag(k, L("XI"), L("ZZ"))
        assert mod.n == 3
        assert kraus_completeness_deviation(mod) < 1e-12

    @pytest.mark.parametrize("form", ["kraus", "pauli"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_offdiag_blocks_match_kron_construction(self, form, n):
        """Operator by operator, in order, the blockwise build equals
        (I (x) A_k) V with V = (|0><0| (x) E_n^dag + |1><1| (x) E_m^dag)(H (x) I)."""
        rng = np.random.default_rng(60 + n)
        channel = random_form(form, n, rng)
        labels = all_labels(n)
        for _ in range(3):
            m, n_label = (labels[i] for i in rng.integers(0, 4**n, size=2))
            em_dag = pauli_matrix(m).conj().T
            en_dag = pauli_matrix(n_label).conj().T
            p0 = np.array([[1, 0], [0, 0]], dtype=complex)
            p1 = np.array([[0, 0], [0, 1]], dtype=complex)
            h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
            v = (np.kron(p0, en_dag) + np.kron(p1, em_dag)) @ np.kron(h, np.eye(2**n))
            want = [np.kron(np.eye(2), a) @ v for a in dense_operators(channel)]
            got = modified_channel_offdiag(channel, m, n_label)
            assert got.n == n + 1 and len(got.operators) == len(want)
            for a, b in zip(got.operators, want):
                np.testing.assert_array_equal(a, b)

    def test_label_mismatch_rejected(self):
        k = channel_factory({"n": 2, "kind": "identity"})
        with pytest.raises(ValueError):
            modified_channel_diag(k, L("X"))
        with pytest.raises(ValueError):
            modified_channel_offdiag(k, L("XI"), L("Z"))

    def test_offdiag_dense_cap(self):
        k = channel_factory({"n": 6, "kind": "identity"})
        with pytest.raises(DenseCapError):
            modified_channel_offdiag(k, PauliLabel.identity(6), PauliLabel.identity(6))


class TestChannelFactory:
    @pytest.mark.parametrize(
        "spec",
        [
            {"n": 1, "kind": "identity"},
            {"n": 2, "kind": "depolarizing", "p": 0.0},
            {"n": 2, "kind": "depolarizing", "p": 1.0},
            {"n": 1, "kind": "pauli_mixture", "weights": {"I": 0.25, "Y": 0.75}},
            {"n": 1, "kind": "unitary", "generator": "Z", "theta": 0.7},
            {"n": 2, "kind": "amplitude_damping", "gamma": 0.3},
            {
                "n": 1,
                "kind": "kraus",
                "operators": [
                    [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
                    [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]],
                ],
            },
            {
                "n": 1,
                "kind": "compose",
                "children": [
                    {"n": 1, "kind": "depolarizing", "p": 0.1},
                    {"n": 1, "kind": "unitary", "generator": "X", "theta": 0.5},
                ],
            },
        ],
    )
    def test_outputs_are_complete(self, spec):
        k = channel_factory(spec)
        assert k.n == spec["n"]
        assert kraus_completeness_deviation(k) < 1e-9

    def test_unitary_matrix_input(self):
        h = (1 / np.sqrt(2)) * np.array([[1, 1], [1, -1]], dtype=complex)
        spec = {"n": 1, "kind": "unitary", "matrix": matrix_to_json(h)}
        k = channel_factory(spec)
        np.testing.assert_allclose(k.operators[0], h, atol=1e-15)

    def test_compose_applies_first_child_first(self):
        """compose([A, B]) must act as rho -> B(A(rho))."""
        theta = 0.9
        spec = {
            "n": 1,
            "kind": "compose",
            "children": [
                {"n": 1, "kind": "unitary", "generator": "X", "theta": theta},
                {"n": 1, "kind": "pauli_mixture", "weights": {"Z": 1.0}},
            ],
        }
        k = channel_factory(spec)
        rot = channel_factory({"n": 1, "kind": "unitary", "generator": "X", "theta": theta})
        rho = np.diag([1.0, 0.0]).astype(complex)
        z = pauli_matrix(L("Z"))
        want = z @ apply_channel(rot, rho) @ z
        np.testing.assert_allclose(apply_channel(k, rho), want, atol=1e-12)

    def test_amplitude_damping_populations(self):
        """|11> decays to the classical mixture with per-qubit rate gamma."""
        gamma = 0.4
        k = channel_factory({"n": 2, "kind": "amplitude_damping", "gamma": gamma})
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        out = apply_channel(k, rho)
        want = [gamma**2, gamma * (1 - gamma), (1 - gamma) * gamma, (1 - gamma) ** 2]
        np.testing.assert_allclose(np.diag(out).real, want, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "identity"},
            {"n": 0, "kind": "identity"},
            {"n": 1, "kind": "nonsense"},
            {"n": 1, "kind": "depolarizing"},
            {"n": 1, "kind": "depolarizing", "p": 1.2},
            {"n": 1, "kind": "pauli_mixture", "weights": {}},
            {"n": 1, "kind": "pauli_mixture", "weights": {"Q": 1.0}},
            {"n": 1, "kind": "pauli_mixture", "weights": {"XX": 1.0}},
            {"n": 1, "kind": "pauli_mixture", "weights": {"X": 0.6, "Z": 0.6}},
            {"n": 1, "kind": "pauli_mixture", "weights": {"X": 1.5, "Z": -0.5}},
            {"n": 1, "kind": "pauli_mixture", "weights": {"I": float("nan"), "X": 1.0}},
            {"n": 1, "kind": "unitary"},
            {"n": 1, "kind": "unitary", "generator": "X"},
            {"n": 1, "kind": "unitary", "generator": "X", "theta": float("nan")},
            {"n": 1, "kind": "unitary", "generator": "X", "theta": float("inf")},
            {"n": 1, "kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n": 1, "kind": "amplitude_damping", "gamma": -0.1},
            {"n": 1, "kind": "kraus", "operators": []},
            {"n": 1, "kind": "kraus", "operators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
            {"n": 1, "kind": "kraus", "operators": [matrix_to_json(np.eye(4))]},
            {
                "n": 1,
                "kind": "kraus",
                "operators": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(4))],
            },
            {"n": 1, "kind": "kraus", "operators": [[[[1, 0], [0, 0]], [[0, 0]]]]},
            {
                "n": 1,
                "kind": "kraus",
                "operators": [[[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]],
            },
            {"n": 1, "kind": "compose", "children": []},
            {
                "n": 2,
                "kind": "compose",
                "children": [{"n": 1, "kind": "identity"}],
            },
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ChannelSpecError):
            channel_factory(spec)

    def test_dense_cap(self):
        with pytest.raises(DenseCapError):
            channel_factory({"n": 7, "kind": "identity"})

    @pytest.mark.parametrize("first, second", [("XI", "xi"), ("XI", " xi "), ("xi", "XI")])
    def test_mixture_keys_naming_one_label_rejected(self, first, second):
        """Keys that parse to one label are refused, not overwritten: these
        weights sum to 1.5, and the last one would have replaced the other."""
        spec = {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.5, first: 0.5, second: 0.5}}
        with pytest.raises(ChannelSpecError, match=re.escape(f"keys {first!r} and {second!r}")):
            channel_factory(spec)

    @pytest.mark.parametrize("weights", [{1: 1.0}, {None: 1.0}, {"I": 0.5, ("X",): 0.5}],
                             ids=["int", "none", "tuple"])
    def test_mixture_non_string_key_rejected(self, weights):
        """A weight map built in Python may have keys that are not strings;
        the first one is refused by name, as a malformed spec."""
        key = list(weights)[-1]
        with pytest.raises(ChannelSpecError) as info:
            channel_factory({"n": 1, "kind": "pauli_mixture", "weights": weights})
        assert str(info.value) == f"bad Pauli string {key!r}: expected a Pauli string, got {key!r}"

    def test_mixture_non_ascii_key_rejected(self):
        """The batch check of a weight map folds only ASCII letters to upper
        case, so a dotless i (U+0131) is no I: the per-key check names it.
        Whitespace around a key, non-ASCII too, is still stripped first."""
        weights = {"II": 0.5, "ıX": 0.5}
        with pytest.raises(ChannelSpecError) as info:
            channel_factory({"n": 2, "kind": "pauli_mixture", "weights": weights})
        assert str(info.value) == "bad Pauli string 'ıX': invalid Pauli character 'ı' in 'ıX'"
        assert str(info.value) == _mixture_reference(2, weights)
        padded = channel_factory({"n": 2, "kind": "pauli_mixture",
                                  "weights": {"II": 0.5, "\u00a0xi\u3000": 0.5}})
        assert padded.labels.tolist() == [0, 1] and padded.weights.tolist() == [0.5, 0.5]


def _mixture_reference(n, raw):
    """The per-key parse of a weight map that the batched one replaced:
    (labels, weights) in map order, or the ChannelSpecError message."""
    weights, keys = {}, {}
    for key, w in raw.items():
        try:
            a = PauliLabel.from_string(key)
        except ValueError as exc:
            return f"bad Pauli string {key!r}: {exc}"
        if a.n != n:
            return f"weight key {key!r} has wrong qubit count"
        if a in keys:
            return f"weight keys {keys[a]!r} and {key!r} name one label {a}"
        keys[a] = key
        if not isinstance(w, (int, float)) or isinstance(w, bool) or not w >= 0:
            return f"weight for {key!r} must be >= 0"
        weights[a] = float(w)
    total = sum(weights.values())
    if not abs(total - 1) <= 1e-9:
        return f"mixture weights sum to {total!r}, expected 1"
    return [a.packed for a in weights], list(weights.values())


_MIXTURE_CASES = [
    (1, {"X": 1.0}),
    (2, {"xi": 0.5, " zy ": 0.25, "II\t": 0.25}),  # lower case and padding
    (2, {"II": 0.5, "XI": 0.25, "ZZ": 0, "YX": 0.25}),  # a zero weight is parsed, then dropped
    (3, {"XYZ": 0.1, "IIZ": 0.2, "YYY": 0.3, "III": 0.4}),
    (2, {"II": 0.5, "XQ": 0.5}),  # a bad character
    (2, {"II": 0.5, "Xé": 0.5}),  # non-ASCII
    (2, {"II": 0.5, "ıX": 0.5}),  # dotless i: refused, as the per-key parser refuses it
    (2, {"II": 0.5, "Xß": 0.5}),  # sharp s upper cases to SS
    (2, {"II": 0.5, "X\ud800": 0.5}),  # a lone surrogate
    (1, {"I": 0.5, "": 0.5}),  # an empty key
    (1, {"I": 0.5, "   ": 0.5}),  # blank
    (2, {"II": 0.5, "XIZ": 0.5}),  # wrong length
    (2, {"II": 0.5, "X": 0.5}),
    (2, {"XI": 0.5, "II": 0.25, "xi": 0.25}),  # duplicates, the earlier one named first
    (2, {"II": 0.5, " xi": 0.25, "XI ": 0.25, "xi": 0.1}),
    (2, {"II": 0.5, "XI": -0.5}),  # negative, bool and string weights
    (2, {"II": 0.5, "XI": True}),
    (2, {"II": 0.5, "XI": "0.5"}),
    (2, {"II": 0.5, "XI": None}),
    (2, {"II": 0.5, "XI": float("nan")}),
    (2, {"II": 0.5, "XI": 0.4}),  # weights that do not sum to 1
    (1, {"I": 0.7, "X": 0.3000001}),
    (3, {str(label_from_index(3, i)): 0.1 for i in range(64)}),  # the sum in map order
    (2, {"II": 0.5, "XI": -1, "Q": 0.5}),  # two faults: the earlier key's wins
    (2, {"II": 0.5, "Q": 0.5, "XI": -1}),
    (2, {"II": 0.5, "ZZ": 0.2, "zz": -1, "I": 0.3}),  # one key, two faults: the first check
    (2, {"Q": "x", "II": 1.0}),
    (2, {"QQQ": 1.0}),
    (1, {"I": 1, "Y": 0}),  # integer weights
    (3, {" xyz": 0.5, "iiz ": 0.25, "Yyy\n": 0.25}),  # well formed, lower case and padded
    (2, {"II": 0.5, "ZX": 0.25, " zx": 0.25}),  # one label only after normalization
    (1, {"I": True, "X": 0}),  # true as the first weight
    (2, {"II": 0.5, 7: 0.25, "Q": 0.25}),  # a non-string key from the Python API
    (2, {"XII": 0.5, "Z": 0.5}),  # wrong lengths that add up to n per key
    (2, {"X I": 0.5, "II": 0.5}),  # a space inside a key
]


@pytest.mark.parametrize("n, raw", _MIXTURE_CASES)
def test_mixture_parse_matches_per_key_reference(n, raw):
    """The weight-map parse gives the reference loop's labels, weights and
    order, or its error message for the first faulty key."""
    want = _mixture_reference(n, raw)
    spec = {"n": n, "kind": "pauli_mixture", "weights": raw}
    if isinstance(want, str):
        with pytest.raises(ChannelSpecError) as info:
            channel_factory(spec)
        assert str(info.value) == want
    else:
        labels, weights = want
        kept = [w > 0 for w in weights]
        channel = channel_factory(spec)
        assert channel.labels.dtype == np.int64
        assert channel.labels.tolist() == [a for a, k in zip(labels, kept) if k]
        assert channel.weights.tolist() == [w for w, k in zip(weights, kept) if k]


def _parent_pauli_channel(n, labels, weights):
    """The filter the factory once applied before building a PauliChannel:
    the packed labels of positive weight, as int64, with their weights."""
    weights = np.asarray(weights, dtype=float)
    kept = weights > 0
    return np.asarray(labels, dtype=np.int64)[kept], weights[kept]


class TestPauliChannelChecks:
    """A PauliChannel checks its own weight map and drops zero weights."""

    @pytest.mark.parametrize("labels, weights, match", [
        ([0, 1], [1 + 1e-7, -1e-7], "weights must be finite"),
        ([0, 1], [1.0, np.nan], "weights must be finite"),
        ([0, 1], [1.0, np.inf], "weights must be finite"),
        ([0, 1], [1.0, -np.inf], "weights must be finite"),
        ([0, 1], [0.0, 0.0], "some of them > 0"),
        ([], [], "some of them > 0"),
        ([-1, 0], [0.5, 0.5], r"integers in \[0, 4\*\*n\)"),
        ([0, 16], [0.5, 0.5], r"integers in \[0, 4\*\*n\)"),
        ([0.0, 1.0], [0.5, 0.5], r"integers in \[0, 4\*\*n\)"),
        ([[0, 1]], [[0.5, 0.5]], "1-D and of equal length"),
        ([0, 1], [[0.5, 0.5]], "1-D and of equal length"),
        ([[0], [1, 2]], [0.5, 0.5], None),  # ragged: numpy's own ValueError
        ([0, 1, 2], [0.5, 0.5], "1-D and of equal length"),
        ([0, 1], [1.0], "1-D and of equal length"),
    ])
    def test_malformed_map_refused(self, labels, weights, match):
        with pytest.raises(ValueError, match=match):
            PauliChannel(2, labels, weights)

    def test_zero_weights_dropped(self):
        channel = PauliChannel(2, np.array([3, 0, 7, 9], dtype=np.uint8), [0.0, 0.5, 0.0, 0.5])
        assert channel.labels.dtype == np.int64 and channel.labels.tolist() == [0, 9]
        assert channel.weights.dtype == np.float64 and channel.weights.tolist() == [0.5, 0.5]
        assert channel.operators.shape == (2, 4, 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_factory_maps_match_the_parent_filter(self, n):
        """identity, depolarizing and pauli_mixture hold the labels and weights
        that the factory's filter gave before the channel checked its own map,
        bit for bit."""
        rng = np.random.default_rng(60 + n)
        packed = [a.packed for a in all_labels(n)]
        cases = [({"n": n, "kind": "identity"}, ([0], [1.0]))]
        for p in (0.0, 0.3, 1.0):
            w = np.full(4**n, p / 4**n)
            w[0] = 1 - p + p / 4**n
            cases.append(({"n": n, "kind": "depolarizing", "p": p}, (packed, w)))
        raw = rng.random(4**n) * (rng.random(4**n) < 0.5)
        raw[0] = 1.0
        order = rng.permutation(4**n)
        mixture = {str(label_from_index(n, int(i))): float(x) for i, x in zip(order, raw / raw.sum())}
        cases.append(({"n": n, "kind": "pauli_mixture", "weights": mixture},
                      _mixture_reference(n, mixture)))
        for spec, (labels, weights) in cases:
            got = channel_factory(spec)
            want_labels, want_weights = _parent_pauli_channel(n, labels, weights)
            assert np.array_equal(_bits(got.labels), _bits(want_labels))
            assert np.array_equal(_bits(got.weights), _bits(want_weights))


def _kron_loop_operators(factors, n):
    """Every n-fold kron product of the factors, itertools.product order, zeros dropped."""
    ops = []
    for combo in itertools.product(factors, repeat=n):
        op = np.ones((1, 1), dtype=complex)
        for factor in combo:
            op = np.kron(op, factor)
        if np.any(op):
            ops.append(op)
    return np.stack(ops)


def _bits(a):
    return a.view(np.uint64)


class TestKrausArray:
    """KrausSet holds one (K, D, D) complex array, and each spec kind builds it
    with the same bits as the per-operator loops it replaces."""

    def test_accepts_tuple_list_or_array(self):
        ops = [np.eye(2), np.array([[0, 1], [1, 0]])]
        for given in (tuple(ops), ops, np.stack(ops)):
            k = KrausSet(1, given)
            assert isinstance(k.operators, np.ndarray)
            assert k.operators.dtype == complex and k.operators.shape == (2, 2, 2)
            np.testing.assert_array_equal(k.operators, np.stack(ops))

    @pytest.mark.parametrize(
        "ops",
        [
            (np.eye(2), np.eye(4)),
            [np.eye(2), np.ones((2, 3))],
            (np.eye(4),),
            np.eye(2),
            np.ones((1, 2, 3)),
            np.ones((0, 2, 2)),
            [],
        ],
        ids=["ragged", "ragged-rows", "wrong-d", "one-matrix", "not-square", "empty-array", "empty"],
    )
    def test_ragged_or_misshapen_rejected(self, ops):
        with pytest.raises(ValueError, match="2x2"):
            KrausSet(1, ops)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amplitude_damping_matches_kron_loop(self, n):
        for gamma in (0.0, 0.3, 1.0):
            a0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
            a1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
            got = channel_factory({"n": n, "kind": "amplitude_damping", "gamma": gamma})
            want = _kron_loop_operators((a0, a1), n)
            assert np.array_equal(_bits(got.operators), _bits(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compose_matches_product_loop(self, n):
        children = [
            {"n": n, "kind": "depolarizing", "p": 0.3},
            {"n": n, "kind": "amplitude_damping", "gamma": 0.2},
            {"n": n, "kind": "unitary", "generator": "Y" * n, "theta": 0.7},
        ]
        got = channel_factory({"n": n, "kind": "compose", "children": children})
        ops = tuple(channel_factory(children[0]).operators)
        for child in children[1:]:
            ops = tuple(b @ a for b in channel_factory(child).operators for a in ops)
        assert np.array_equal(_bits(got.operators), _bits(np.stack(ops)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_operators_bit_equal_to_dense_matrices(self, n):
        """Every label's operator, written as a signed permutation, has the bits
        of sqrt(w) * pauli_matrix(a); zero weights drop their label."""
        rng = np.random.default_rng(70 + n)
        labels = all_labels(n)
        got = channel_factory({"n": n, "kind": "depolarizing", "p": 0.6}).operators
        w = np.full(len(labels), 0.6 / 4**n)
        w[0] = 1 - 0.6 + 0.6 / 4**n
        want = np.stack([np.sqrt(x) * pauli_matrix(a) for a, x in zip(labels, w)])
        assert np.array_equal(_bits(got), _bits(want))
        raw = rng.random(len(labels)) * (rng.random(len(labels)) < 0.5)
        raw[0] = 1.0
        weights = {str(a): float(x) for a, x in zip(labels, raw / raw.sum())}
        got = channel_factory({"n": n, "kind": "pauli_mixture", "weights": weights}).operators
        want = np.stack([np.sqrt(x) * pauli_matrix(L(a)) for a, x in weights.items() if x > 0])
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_kinds_are_weight_maps_expanded_to_dense_matrices(self, n, monkeypatch):
        """identity, depolarizing and pauli_mixture build packed labels and
        weights; ``operators`` expands them, once, to the bits of np.eye or
        sqrt(w) * pauli_matrix(a) per label of positive weight."""
        built = []
        pauli_matrices = channels.pauli_matrices
        monkeypatch.setattr(channels, "pauli_matrices",
                            lambda *a: built.append(1) or pauli_matrices(*a))
        rng = np.random.default_rng(80 + n)
        d, labels = 2**n, all_labels(n)
        w = np.full(len(labels), 0.3 / 4**n)
        w[0] = 1 - 0.3 + 0.3 / 4**n
        raw = rng.random(len(labels)) * (rng.random(len(labels)) < 0.5)
        raw[0] = 1.0
        mixture = {str(a): float(x) for a, x in zip(labels, raw / raw.sum())}
        cases = [({"n": n, "kind": "identity"}, {"I" * n: 1.0}, np.eye(d, dtype=complex)[None]),
                 ({"n": n, "kind": "depolarizing", "p": 0.3}, dict(zip(map(str, labels), w)),
                  np.stack([np.sqrt(x) * pauli_matrix(a) for a, x in zip(labels, w)])),
                 ({"n": n, "kind": "pauli_mixture", "weights": mixture}, mixture,
                  np.stack([np.sqrt(x) * pauli_matrix(L(a)) for a, x in mixture.items() if x > 0]))]
        for spec, weights, want in cases:
            got = channel_factory(spec)
            assert isinstance(got, PauliChannel) and got.n == n
            kept = [L(a) for a, x in weights.items() if x > 0]
            assert got.labels.dtype == np.int64
            assert got.labels.tolist() == [a.packed for a in kept]
            assert got.weights.tolist() == [weights[str(a)] for a in kept]
            built.clear()
            ops = got.operators
            assert isinstance(ops, np.ndarray) and got.operators is ops and built == [1]
            assert np.array_equal(_bits(ops), _bits(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compose_of_pauli_children_keeps_operator_order(self, n):
        """compose expands Pauli children and multiplies them as it always
        has: B_j A_i at index j * len(A) + i, first child first."""
        children = [{"n": n, "kind": "depolarizing", "p": 0.2},
                    {"n": n, "kind": "pauli_mixture",
                     "weights": {"I" * n: 0.7, "X" * n: 0.2, "Z" + "Y" * (n - 1): 0.1}},
                    {"n": n, "kind": "identity"}]
        got = channel_factory({"n": n, "kind": "compose", "children": children})
        assert isinstance(got, KrausSet)
        ops = tuple(channel_factory(children[0]).operators)
        for child in children[1:]:
            ops = tuple(b @ a for b in channel_factory(child).operators for a in ops)
        assert np.array_equal(_bits(got.operators), _bits(np.stack(ops)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_dense_consumers_read_the_expansion(self, n):
        """apply_channel, superoperator and the modified channels act on a
        Pauli channel exactly as on its expansion, held as a KrausSet."""
        rng = np.random.default_rng(90 + n)
        channel = channel_factory({"n": n, "kind": "depolarizing", "p": 0.4})
        kraus, d = KrausSet(n, channel.operators), 2**n
        stack = random_matrices(rng, 3, d, d)
        assert np.array_equal(apply_channel(channel, stack), apply_channel(kraus, stack))
        assert np.array_equal(superoperator(channel), superoperator(kraus))
        m, n_label = L("X" * n), L("Z" * n)
        assert np.array_equal(modified_channel_diag(channel, m).operators,
                              modified_channel_diag(kraus, m).operators)
        assert np.array_equal(modified_channel_offdiag(channel, m, n_label).operators,
                              modified_channel_offdiag(kraus, m, n_label).operators)

    @pytest.mark.parametrize("n, ops", [(1, 1), (2, 3), (3, 9), (5, 64)])
    def test_completeness_gemm_matches_einsum(self, n, ops):
        """sum A^dag A as one GEMM gives the einsum's deviation, for complete
        and for perturbed sets."""
        rng = np.random.default_rng(n)
        k = random_kraus_channel(n, rng, ops)
        for scale in (1.0, 1 + 1e-7, 1.3):
            scaled = KrausSet(n, k.operators * scale)
            s = np.einsum("kji,kjl->il", scaled.operators.conj(), scaled.operators)
            want = float(np.max(np.abs(np.linalg.eigvalsh(s - np.eye(2**n)))))
            assert abs(kraus_completeness_deviation(scaled) - want) <= 1e-12

    def test_compose_checks_completeness_only_with_a_kraus_descendant(self, monkeypatch):
        checked = []
        monkeypatch.setattr(channels, "kraus_completeness_deviation",
                            lambda k: checked.append(len(k.operators)) or 0.0)
        plain = [{"n": 1, "kind": "depolarizing", "p": 0.1},
                 {"n": 1, "kind": "amplitude_damping", "gamma": 0.2}]
        channel_factory({"n": 1, "kind": "compose", "children": plain})
        assert checked == []
        kraus = {"n": 1, "kind": "kraus", "operators": [matrix_to_json(np.eye(2))]}
        inner = {"n": 1, "kind": "compose", "children": [plain[0], kraus]}
        channel_factory({"n": 1, "kind": "compose", "children": [plain[1], inner]})
        assert checked == [1, 4, 8]  # the kraus child, the inner and the outer compose


class TestSpecDocuments:
    def test_canonical_bytes_ignore_key_order(self):
        a = {"n": 1, "kind": "depolarizing", "p": 0.2}
        b = {"p": 0.2, "kind": "depolarizing", "n": 1}
        assert canonical_spec_bytes(a) == canonical_spec_bytes(b)
        assert channel_spec_sha256(a) == channel_spec_sha256(b)
        assert len(channel_spec_sha256(a)) == 64

    def test_matrix_json_round_trip_is_exact(self):
        rng = np.random.default_rng(31)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        encoded = json.loads(json.dumps(matrix_to_json(mat)))
        np.testing.assert_array_equal(matrix_from_json(encoded), mat)

    def test_matrix_json_rejects_garbage(self):
        with pytest.raises(ChannelSpecError):
            matrix_from_json([[1, 2], [3, 4]])
        with pytest.raises(ChannelSpecError):
            matrix_from_json("nope")

    def test_load_channel_spec_errors(self, tmp_path):
        with pytest.raises(ChannelSpecError):
            load_channel_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ChannelSpecError):
            load_channel_spec(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2, 3]")
        with pytest.raises(ChannelSpecError):
            load_channel_spec(arr)

    def test_nesting_past_the_stack_is_malformed(self):
        """Hashing walks a spec's nesting by recursion: a spec nested deeper
        than the interpreter's stack is a malformed spec, not a RecursionError."""
        spec = {"n": 1, "kind": "identity"}
        for _ in range(sys.getrecursionlimit()):
            spec = {"n": 1, "kind": "compose", "children": [spec]}
        with pytest.raises(ChannelSpecError, match="^spec is not JSON-serializable: maximum "
                                                   "recursion depth exceeded"):
            channel_spec_sha256(spec)

    def test_compose_nesting_capped(self):
        """Building recurses into a compose spec's children, so compose specs
        nest at most COMPOSE_DEPTH_CAP deep, far inside the stack."""
        spec = {"n": 1, "kind": "depolarizing", "p": 0.2}
        for _ in range(COMPOSE_DEPTH_CAP):
            spec = {"n": 1, "kind": "compose", "children": [spec]}
        np.testing.assert_array_equal(channel_factory(spec).operators,
                                      channel_factory(spec["children"][0]).operators)
        with pytest.raises(ChannelSpecError) as info:
            channel_factory({"n": 1, "kind": "compose", "children": [spec]})
        assert str(info.value) == f"compose specs nest at most {COMPOSE_DEPTH_CAP} deep"

    def test_compose_entry_cap(self, monkeypatch):
        """A composed set of K operators holds K D^2 entries: at most
        COMPOSE_ENTRY_CAP, checked before any product.  Depolarizing (4
        labels) after amplitude damping (2 operators) at n = 1 holds 32."""
        assert channels.COMPOSE_ENTRY_CAP == 2**24  # depolarizing's own size at n = 6
        spec = {"n": 1, "kind": "compose", "children": [
            {"n": 1, "kind": "amplitude_damping", "gamma": 0.3},
            {"n": 1, "kind": "depolarizing", "p": 0.2}]}
        monkeypatch.setattr(channels, "COMPOSE_ENTRY_CAP", 32)
        assert channel_factory(spec).operators.shape == (8, 2, 2)
        monkeypatch.setattr(channels, "COMPOSE_ENTRY_CAP", 31)
        with pytest.raises(DenseCapError) as info:
            channel_factory(spec)
        assert str(info.value) == "compose would build 8 Kraus operators of 2x2, more than " \
                                  "31 entries in all"
