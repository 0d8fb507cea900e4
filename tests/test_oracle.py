"""The exact ground-truth layer: chi, fidelities, and channel identities."""

import numpy as np
import pytest

import chitomo.oracle as oracle_module
from chitomo.channels import (
    KrausSet,
    PauliChannel,
    apply_channel,
    channel_factory,
    modified_channel_diag,
)
from chitomo.mub import design_average_survival, design_basis, design_states
from chitomo.oracle import (
    exact_ancilla_polarization,
    exact_average_fidelity,
    exact_chi,
    exact_chi_entries,
    exact_offdiag_average,
    haar_closed_form,
    oracle_report,
    random_label,
    trace_identity_residual,
)
from chitomo.pauli import DenseCapError, PauliLabel, all_labels, pauli_matrices, pauli_matrix

from reference import (
    kron_pauli_basis,
    modified_channel_offdiag,
    pauli_channel_labels,
    random_channel,
    random_pauli_channel,
    seven_kinds,
)


def L(s):
    return PauliLabel.from_string(s)


def factory_suite(n):
    """A representative channel per factory kind at a given qubit count."""
    specs = [
        {"n": n, "kind": "identity"},
        {"n": n, "kind": "depolarizing", "p": 0.3},
        {"n": n, "kind": "unitary", "generator": "X" + "I" * (n - 1), "theta": 1.1},
        {"n": n, "kind": "amplitude_damping", "gamma": 0.25},
        {
            "n": n,
            "kind": "compose",
            "children": [
                {"n": n, "kind": "depolarizing", "p": 0.2},
                {"n": n, "kind": "unitary", "generator": "Z" * n, "theta": 0.4},
            ],
        },
    ]
    if n == 2:
        specs.append(
            {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.7, "XI": 0.2, "ZZ": 0.1}}
        )
    return [channel_factory(s) for s in specs]


class TestExactChi:
    def test_identity_channel(self):
        chi = exact_chi(channel_factory({"n": 1, "kind": "identity"}))
        assert abs(chi.entry(L("I"), L("I")) - 1) < 1e-14
        assert abs(chi.mat).sum() - 1 < 1e-13

    def test_rotation_quarter_turn(self):
        """exp(-i pi/4 X): equal I/X weights, purely imaginary cross term."""
        chi = exact_chi(
            channel_factory({"n": 1, "kind": "unitary", "generator": "X", "theta": np.pi / 2})
        )
        assert abs(chi.entry(L("I"), L("I")) - 0.5) < 1e-12
        assert abs(chi.entry(L("X"), L("X")) - 0.5) < 1e-12
        assert abs(chi.entry(L("I"), L("X")) - 0.5j) < 1e-12

    def test_decomposition_invariance(self):
        """chi is unchanged under a unitary remixing of the Kraus operators."""
        rng = np.random.default_rng(2)
        k = random_channel(2, rng)
        ops = np.stack(k.operators)
        g = rng.normal(size=(len(ops), len(ops))) + 1j * rng.normal(size=(len(ops), len(ops)))
        u, _ = np.linalg.qr(g)
        remixed = KrausSet(2, tuple(np.einsum("jk,kab->jab", u, ops)))
        np.testing.assert_allclose(
            exact_chi(remixed).mat, exact_chi(k).mat, atol=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_for_bit_the_kronecker_basis_expansion(self, n):
        """exact_chi is the sum of c_km conj(c_kn) over the Kraus operators,
        c_km = Tr(E_m^dag A_k) / D, with E_m the Kronecker-product basis: the
        same bits, signed zeros included."""
        basis = kron_pauli_basis(n)
        for kind, spec in seven_kinds(n).items():
            channel = channel_factory(spec)
            c = np.einsum("mji,kji->km", basis.conj(), channel.operators) / 2**n
            want = np.einsum("km,kn->mn", c, c.conj()).view(np.uint64)
            assert np.array_equal(exact_chi(channel).mat.view(np.uint64), want), kind

    def test_cap_and_override(self):
        big = channel_factory({"n": 5, "kind": "identity"})
        with pytest.raises(DenseCapError):
            exact_chi(big)
        chi = exact_chi(big, max_n=5)
        assert abs(chi.entry(PauliLabel.identity(5), PauliLabel.identity(5)) - 1) < 1e-12
        with pytest.raises(ValueError):
            exact_chi(big, max_n=6)


class TestExactAverageFidelity:
    def test_identity(self):
        assert abs(exact_average_fidelity(channel_factory({"n": 1, "kind": "identity"})) - 1) < 1e-12

    def test_bit_flip(self):
        flip = channel_factory({"n": 1, "kind": "pauli_mixture", "weights": {"X": 1.0}})
        assert abs(exact_average_fidelity(flip) - 1 / 3) < 1e-12

    def test_depolarizing(self):
        dep = channel_factory({"n": 1, "kind": "depolarizing", "p": 0.2})
        assert abs(exact_average_fidelity(dep) - 0.9) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_consistent_with_chi00(self, n):
        rng = np.random.default_rng(n + 8)
        for _ in range(3):
            k = random_channel(n, rng)
            chi00 = exact_chi(k).mat[0, 0].real
            want = (2**n * chi00 + 1) / (2**n + 1)
            assert abs(exact_average_fidelity(k) - want) < 1e-10


class TestOffdiagIdentities:
    def test_identity_channel_trivial_pairs(self):
        ident = channel_factory({"n": 1, "kind": "identity"})
        assert abs(exact_offdiag_average(ident, L("I"), L("I")) - 1) < 1e-12
        assert abs(exact_offdiag_average(ident, L("I"), L("X"))) < 1e-12

    def test_rotation_third_turn(self):
        theta = np.pi / 3
        rot = channel_factory({"n": 1, "kind": "unitary", "generator": "X", "theta": theta})
        chi_ix = np.cos(theta / 2) * np.conj(-1j * np.sin(theta / 2))
        want = 2 * chi_ix / 3
        assert abs(exact_offdiag_average(rot, L("I"), L("X")) - want) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_average_matches_chi_for_random_channels(self, n):
        rng = np.random.default_rng(n + 70)
        d = 2**n
        for _ in range(3):
            k = random_channel(n, rng)
            chi = exact_chi(k)
            m, n_label = random_label(n, rng), random_label(n, rng)
            delta = 1.0 if m == n_label else 0.0
            want = (d * chi.entry(m, n_label) + delta) / (d + 1)
            assert abs(exact_offdiag_average(k, m, n_label) - want) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_ancilla_circuit_realizes_the_average(self, n):
        """sigma_x / sigma_y polarizations give Re / Im of the average."""
        rng = np.random.default_rng(n + 80)
        d = 2**n
        for k in factory_suite(n)[:4]:
            chi = exact_chi(k)
            m, n_label = random_label(n, rng), random_label(n, rng)
            delta = 1.0 if m == n_label else 0.0
            want = (d * chi.entry(m, n_label) + delta) / (d + 1)
            px = exact_ancilla_polarization(k, m, n_label, "x")
            py = exact_ancilla_polarization(k, m, n_label, "y")
            assert abs(px - want.real) < 1e-9
            assert abs(py - want.imag) < 1e-9

    def test_three_qubit_random_channels(self):
        """End-to-end identity spot check above the exhaustive sizes."""
        rng = np.random.default_rng(90)
        d = 8
        for _ in range(5):
            k = random_channel(3, rng)
            chi = exact_chi(k)
            m, n_label = random_label(3, rng), random_label(3, rng)
            delta = 1.0 if m == n_label else 0.0
            want = (d * chi.entry(m, n_label) + delta) / (d + 1)
            assert abs(exact_offdiag_average(k, m, n_label) - want) < 1e-9
            fid = exact_average_fidelity(modified_channel_diag(k, m))
            want_fid = (d * chi.entry(m, m).real + 1) / (d + 1)
            assert abs(fid - want_fid) < 1e-9

    def test_bad_axis_rejected(self):
        ident = channel_factory({"n": 1, "kind": "identity"})
        with pytest.raises(ValueError):
            exact_ancilla_polarization(ident, L("I"), L("X"), "z")


class TestHaarClosedForm:
    def test_identity_pair(self):
        assert abs(haar_closed_form(np.eye(4), np.eye(4)) - 1) < 1e-14

    def test_z_pair(self):
        z = np.diag([1.0, -1.0])
        assert abs(haar_closed_form(z, z) - 1 / 3) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            haar_closed_form(np.eye(2), np.eye(4))


class TestTracePreservationIdentity:
    @pytest.mark.parametrize("n", [1, 2])
    def test_factory_channels(self, n):
        """Tr[E(E_m^dag E_n)] = D delta_mn over all label pairs."""
        for k in factory_suite(n):
            assert trace_identity_residual(k) < 1e-8

    def test_random_channels_with_sampled_pairs(self):
        rng = np.random.default_rng(55)
        k = random_channel(3, rng)
        pairs = [(random_label(3, rng), random_label(3, rng)) for _ in range(25)]
        assert trace_identity_residual(k, pairs) < 1e-8


class TestRandomObjects:
    def test_random_channel_is_complete(self):
        rng = np.random.default_rng(1)
        for n in (1, 2):
            k = random_channel(n, rng)
            ops = np.stack(k.operators)
            s = np.einsum("kji,kjl->il", ops.conj(), ops)
            np.testing.assert_allclose(s, np.eye(2**n), atol=1e-12)

    def test_random_label_in_range(self):
        rng = np.random.default_rng(3)
        labels = {random_label(2, rng) for _ in range(200)}
        assert labels <= set(all_labels(2))
        assert len(labels) > 8


class TestOracleReport:
    @pytest.mark.parametrize("n", [1, 2])
    def test_residuals_vanish_for_valid_channels(self, n):
        rng = np.random.default_rng(n)
        rep = oracle_report(random_channel(n, rng), samples=4, seed=7)
        assert rep.max_residual < 1e-9

    @pytest.mark.parametrize("kind", ["amplitude_damping", "depolarizing"])
    def test_reads_chi_entries_not_chi(self, monkeypatch, kind):
        """The report reads the chi entries of its sampled labels alone: it
        builds no chi matrix, and its residuals still vanish."""
        def refuse(*args, **kwargs):
            raise AssertionError("oracle_report built the whole chi matrix")

        monkeypatch.setattr(oracle_module, "exact_chi", refuse)
        params = {"gamma": 0.5} if kind == "amplitude_damping" else {"p": 0.3}
        rep = oracle_report(channel_factory({"n": 2, "kind": kind, **params}), samples=3)
        assert rep.max_residual < 1e-9

    def test_checks_no_design_identity(self, monkeypatch):
        """The design identity enters no channel: the report never computes
        it, and holds the three channel residuals alone."""
        def refuse(*args, **kwargs):
            raise AssertionError("oracle_report checked the design identity")

        monkeypatch.setattr(oracle_module, "design_haar_residual", refuse)
        rep = oracle_report(channel_factory({"n": 2, "kind": "amplitude_damping", "gamma": 0.3}),
                            samples=3, seed=5)
        assert list(vars(rep)) == ["fidelity_residual", "offdiag_residual", "ancilla_residual"]
        assert rep.max_residual < 1e-9

    @pytest.mark.parametrize("identity", [
        lambda ch, a: exact_average_fidelity(ch),
        lambda ch, a: exact_offdiag_average(ch, a, a),
        lambda ch, a: exact_ancilla_polarization(ch, a, a, "y"),
        lambda ch, a: oracle_report(ch, samples=1),
    ], ids=["fidelity", "offdiag", "ancilla", "report"])
    def test_design_sums_refuse_above_the_hard_cap(self, identity):
        """Every identity is a design sum, and the design sum alone refuses
        n = 6, above the oracle's hard cap: there is no cap to raise."""
        channel = channel_factory({"n": 6, "kind": "identity"})
        with pytest.raises(DenseCapError) as info:
            identity(channel, PauliLabel.identity(6))
        assert str(info.value) == "oracle design sum for n=6 exceeds the hard cap 5"
        assert info.traceback[-1].name == "_design_sum"


def label_pairs(n, rng):
    """Every label pair at n <= 2, and 200 sampled pairs above."""
    if n <= 2:
        labels = all_labels(n)
        return [(a, b) for a in labels for b in labels]
    return [(random_label(n, rng), random_label(n, rng)) for _ in range(200)]


class TestExactChiEntries:
    @pytest.mark.parametrize("kind", list(seven_kinds(1)))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_chi(self, n, kind):
        channel = channel_factory(seven_kinds(n)[kind])
        chi = exact_chi(channel)
        pairs = label_pairs(n, np.random.default_rng(n))
        got = exact_chi_entries(channel, pairs)
        want = [chi.entry(m, n_label) for m, n_label in pairs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_channel_input(self, n):
        """A Pauli weight map on random labels reads as its expansion does,
        on its own diagonal and on sampled pairs."""
        rng = np.random.default_rng(n + 40)
        channel = random_pauli_channel(n, rng, ops=2 * n + 1)
        pairs = [(a, a) for a in pauli_channel_labels(channel)] + label_pairs(n, rng)
        got = exact_chi_entries(channel, pairs)
        full = exact_chi(channel)
        want = [full.entry(m, n_label) for m, n_label in pairs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pauli_channel_with_a_repeated_label_and_a_zero_weight(self, n):
        """A weight map built in Python may name a label twice, and its
        weights add up as in the dense expansion; a zero weight reads 0."""
        z = 1 << n  # Z on qubit 0, packed x | z << n
        channel = PauliChannel(n, np.array([0, z, 1, z, 3]), np.array([0.5, 0.1, 0.2, 0.2, 0.0]))
        pairs = label_pairs(n, None)
        got = exact_chi_entries(channel, pairs)
        full = exact_chi(channel)
        want = [full.entry(m, n_label) for m, n_label in pairs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert got[pairs.index((L("Z" + "I" * (n - 1)),) * 2)] == 0.1 + 0.2

    def test_repeated_labels_and_order(self):
        channel = channel_factory(seven_kinds(2)["compose"])
        chi = exact_chi(channel)
        pairs = [(L("XZ"), L("II")), (L("II"), L("XZ")), (L("XZ"), L("XZ")), (L("II"), L("XZ"))]
        got = exact_chi_entries(channel, pairs)
        np.testing.assert_allclose(got, [chi.entry(m, n) for m, n in pairs], atol=1e-12)
        assert exact_chi_entries(channel, []) == []


# Per-state loops of the design sums, one apply_channel call per design state:
# the batched oracle must agree with them.

def _states(n):
    for J in range(2**n + 1):
        b = design_basis(n, J)
        for k in range(2**n):
            yield b[:, k]


def loop_average_fidelity(channel):
    d = 2**channel.n
    total = 0.0
    for v in _states(channel.n):
        out = apply_channel(channel, np.outer(v, v.conj()))
        total += float((v.conj() @ out @ v).real)
    return total / (d * (d + 1))


def loop_offdiag_average(channel, m, n_label):
    d = 2**channel.n
    em_dag = pauli_matrix(m).conj().T
    en = pauli_matrix(n_label)
    total = 0.0 + 0.0j
    for v in _states(channel.n):
        op = em_dag @ np.outer(v, v.conj()) @ en
        total += v.conj() @ apply_channel(channel, op) @ v
    return complex(total / (d * (d + 1)))


def loop_ancilla_polarization(channel, m, n_label, axis):
    sigma = np.array([[0, 1], [1, 0]] if axis == "x" else [[0, -1j], [1j, 0]], dtype=complex)
    mod = modified_channel_offdiag(channel, m, n_label)
    d = 2**channel.n
    anc_in = np.array([[1, 0], [0, 0]], dtype=complex)
    total = 0.0
    for v in _states(channel.n):
        p_psi = np.outer(v, v.conj())
        out = apply_channel(mod, np.kron(anc_in, p_psi))
        total += float(np.trace(np.kron(sigma, p_psi) @ out).real)
    return total / (d * (d + 1))


def loop_trace_identity_residual(channel, pairs):
    d = 2**channel.n
    worst = 0.0
    for m, n_label in pairs:
        op = pauli_matrix(m).conj().T @ pauli_matrix(n_label)
        val = complex(np.trace(apply_channel(channel, op)))
        worst = max(worst, abs(val - (d if m == n_label else 0.0)))
    return worst


def loop_design_average_survival(op1, op2):
    d = op1.shape[0]
    n = d.bit_length() - 1
    total = 0.0 + 0.0j
    for v in _states(n):
        total += (v.conj() @ op1 @ v) * (v.conj() @ op2 @ v)
    return complex(total / (d * (d + 1)))


class TestBatchedDesignSums:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_sums_match_per_state_loops(self, n):
        rng = np.random.default_rng(n + 100)
        channel = random_channel(n, rng)
        m, n_label = random_label(n, rng), random_label(n, rng)
        assert abs(exact_average_fidelity(channel) - loop_average_fidelity(channel)) < 1e-12
        mod = modified_channel_diag(channel, m)
        assert abs(exact_average_fidelity(mod) - loop_average_fidelity(mod)) < 1e-12
        assert abs(exact_offdiag_average(channel, m, n_label)
                   - loop_offdiag_average(channel, m, n_label)) < 1e-12
        for axis in ("x", "y"):
            assert abs(exact_ancilla_polarization(channel, m, n_label, axis)
                       - loop_ancilla_polarization(channel, m, n_label, axis)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_identity_residual_matches_per_pair_loop(self, n):
        rng = np.random.default_rng(n + 110)
        # A non-trace-preserving map, so the residual is far from 0.
        k = random_channel(n, rng)
        scaled = KrausSet(n, tuple(1.1 * a for a in k.operators))
        pairs = label_pairs(n, rng)
        for channel in (k, scaled):
            assert abs(trace_identity_residual(channel, pairs)
                       - loop_trace_identity_residual(channel, pairs)) < 1e-12
        if n <= 2:
            assert trace_identity_residual(scaled) == trace_identity_residual(scaled, pairs)
        assert trace_identity_residual(k, []) == 0.0

    def test_trace_identity_residual_in_chunks(self, monkeypatch):
        rng = np.random.default_rng(115)
        scaled = KrausSet(2, tuple(1.1 * a for a in random_channel(2, rng).operators))
        pairs = label_pairs(2, rng)
        whole = trace_identity_residual(scaled, pairs)
        monkeypatch.setattr(oracle_module, "_STACK_ENTRIES", 3 * 4**2)  # 3 pairs a chunk
        assert abs(trace_identity_residual(scaled, pairs) - whole) < 1e-12
        assert abs(whole - loop_trace_identity_residual(scaled, pairs)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_average_survival_matches_per_state_loop(self, n):
        rng = np.random.default_rng(n + 120)
        d = 2**n
        for _ in range(3):
            o1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert abs(design_average_survival(o1, o2) - loop_design_average_survival(o1, o2)) < 1e-12


def _product_design_sum(channel, left, right):
    """A design sum with its inputs formed as products L P_v R^dag, as the
    oracle formed them before its inputs were rank 1."""
    v = design_states(channel.n)
    proj = v[:, :, None] * v[:, None, :].conj()
    out = apply_channel(channel, left @ proj @ right.conj().T)
    return complex(np.einsum("si,sij,sj->", v.conj(), out, v)) / len(v)


_VERIFY_SPECS = [
    {"kind": "depolarizing", "p": 0.3},
    {"kind": "unitary", "generator": "X", "theta": 1.0471975511965976},
    {"kind": "amplitude_damping", "gamma": 0.25},
]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec", _VERIFY_SPECS, ids=lambda spec: spec["kind"])
def test_rank_one_design_sums_match_products(n, spec, monkeypatch):
    """The off-diagonal and ancilla sums of verify's three channels equal
    the sums of the L P_v R^dag products to 1e-15, and each is one
    apply_channel call on the D(D+1)-state stack: an oracle report with 3
    samples makes 3 fidelity calls and 5 calls per sampled pair."""
    spec = {**spec, "n": n}
    if "generator" in spec:
        spec["generator"] += "I" * (n - 1)
    channel, rng, d = channel_factory(spec), np.random.default_rng(n), 2**n
    for _ in range(3):
        m, n_label = random_label(n, rng), random_label(n, rng)
        em_dag, en_dag = pauli_matrix(m).conj().T, pauli_matrix(n_label).conj().T
        assert abs(exact_offdiag_average(channel, m, n_label)
                   - _product_design_sum(channel, em_dag, en_dag)) <= 1e-15
        for axis, c in (("x", 1), ("y", 1j)):
            g_plus, g_minus = ((en_dag + np.conj(b) * em_dag) / 2 for b in (c, -c))
            want = (_product_design_sum(channel, g_plus, g_plus).real
                    - _product_design_sum(channel, g_minus, g_minus).real)
            assert abs(exact_ancilla_polarization(channel, m, n_label, axis) - want) <= 1e-15
    shapes = []

    def spy(channel, rho):
        shapes.append(np.shape(rho))
        return apply_channel(channel, rho)

    monkeypatch.setattr(oracle_module, "apply_channel", spy)
    oracle_report(channel, samples=3, seed=n)
    assert shapes == [(d * (d + 1), d, d)] * 18


class TestOracleCosts:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_design_sum_maps_the_n_qubit_register(self, n, monkeypatch):
        """The ancilla identity is read through n-qubit maps: no stack passed
        to apply_channel is wider than D x D."""
        d = 2**n
        shapes = []

        def spy(channel, rho):
            shapes.append(np.shape(rho)[-2:])
            return apply_channel(channel, rho)

        monkeypatch.setattr(oracle_module, "apply_channel", spy)
        channel = channel_factory({"n": n, "kind": "amplitude_damping", "gamma": 0.25})
        oracle_report(channel, samples=2, seed=3)
        exact_ancilla_polarization(channel, L("X" * n), L("Z" * n), "y")
        assert shapes and set(shapes) == {(d, d)}

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_ancilla_polarization_runs_two_design_sums(self, axis, monkeypatch):
        """One axis is S(c) - S(-c): two design sums on the n-qubit register."""
        calls = []
        design_sum = oracle_module._design_sum

        def spy(*args, **kwargs):
            calls.append(args[0])
            return design_sum(*args, **kwargs)

        channel = channel_factory({"n": 2, "kind": "amplitude_damping", "gamma": 0.25})
        monkeypatch.setattr(oracle_module, "_design_sum", spy)
        exact_ancilla_polarization(channel, L("XZ"), L("YI"), axis)
        assert len(calls) == 2 and all(k.n == 2 for k in calls)

    @pytest.mark.parametrize("pairs", [None, [(L("XZ"), L("XZ")), (L("XZ"), L("II")),
                                              (L("II"), L("YY")), (L("YY"), L("XZ"))]])
    def test_trace_identity_residual_builds_each_label_once(self, pairs, monkeypatch):
        """One pauli_matrices call builds the matrix of every distinct label once."""
        calls = []

        def spy(n, xs, zs):
            calls.append([PauliLabel(n, x, z) for x, z in zip(xs, zs)])
            return pauli_matrices(n, xs, zs)

        channel = channel_factory({"n": 2, "kind": "amplitude_damping", "gamma": 0.25})
        want = trace_identity_residual(channel, pairs)
        monkeypatch.setattr(oracle_module, "pauli_matrices", spy)
        assert trace_identity_residual(channel, pairs) == want
        distinct = all_labels(2) if pairs is None else {a for pair in pairs for a in pair}
        assert len(calls) == 1 and sorted(calls[0], key=str) == sorted(distinct, key=str)

    def test_chi_warning_is_logged_by_exact_chi_alone(self, caplog):
        """Only building the whole chi matrix warns: the report at n=5 reads
        chi entries and logs nothing."""
        channel = channel_factory({"n": 5, "kind": "identity"})
        with caplog.at_level("WARNING", logger="chitomo.oracle"):
            exact_average_fidelity(channel)
            oracle_report(channel, samples=1)
            assert not caplog.records
            exact_chi(channel, max_n=5)
        warnings = [r for r in caplog.records if "chi matrix" in r.getMessage()]
        assert len(warnings) == 1
        assert warnings[0].getMessage() == "oracle at n=5 builds a 1024 x 1024 chi matrix"
