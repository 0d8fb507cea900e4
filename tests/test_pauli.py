"""Symplectic Pauli algebra against dense matrices and frozen cases."""

import re

import numpy as np
import pytest

from chitomo.pauli import (
    DenseCapError,
    MUB_QUBIT_CAP,
    MubClass,
    PauliLabel,
    all_labels,
    all_packed_labels,
    class_generators,
    commutation_columns,
    commutation_vector,
    gf2_apply,
    index_bit_tables,
    label_from_index,
    label_index,
    mub_class,
    mub_classes,
    packed_from_strings,
    pauli_actions,
    pauli_matrices,
    pauli_matrix,
    pauli_mul,
    solve_label_from_constraints,
    symplectic_product,
    _IRREDUCIBLE_POLY,
    _trace_masks,
)

from reference import _polymod, gf_mul, gf_trace, kron_pauli_basis


def L(s):
    return PauliLabel.from_string(s)


_KRON_FACTORS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_reference(a):
    """The tensor product of the single-qubit factors, qubit 0 leftmost."""
    m = np.ones((1, 1), dtype=complex)
    for i in range(a.n):
        m = np.kron(m, _KRON_FACTORS[(a.x_bits >> i) & 1, (a.z_bits >> i) & 1])
    return m


class TestLabelBasics:
    def test_string_round_trip(self):
        for s in ("I", "X", "Y", "Z", "XIZ", "YYXZ", "IIII"):
            assert L(s).to_string() == s
            assert str(L(s)) == s

    def test_parse_is_case_insensitive(self):
        assert L("xYz") == L("XYZ")

    def test_invalid_strings_rejected(self):
        with pytest.raises(ValueError):
            L("")
        with pytest.raises(ValueError):
            L("Q")
        with pytest.raises(ValueError):
            L("XB")

    @pytest.mark.parametrize("text, bad", [("X1", "1"), ("0", "0"), ("IX_Z", "_"), ("X 1", " ")])
    def test_digits_and_separators_rejected(self, text, bad):
        """The bit strings are read by int(), which would take 0, 1 and _:
        none of them may pass as a Pauli letter."""
        with pytest.raises(ValueError, match=re.escape(f"invalid Pauli character {bad!r}")):
            L(text)

    @pytest.mark.parametrize("text", ["ı", "ıIII", "Xı", " xı "])
    def test_non_ascii_letter_rejected(self, text):
        """Only the ASCII letters fold to upper case: str.upper reads the
        dotless i (U+0131) as I, and the parser refuses it."""
        with pytest.raises(ValueError, match=re.escape("invalid Pauli character 'ı'")):
            L(text)

    @pytest.mark.parametrize("value", [5, None, ["X"], b"X"])
    def test_non_strings_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"expected a Pauli string, got {value!r}")):
            PauliLabel.from_string(value)

    @pytest.mark.parametrize("n, x_bits, z_bits, message", [
        (0, 0, 0, "qubit count must be >= 1, got 0"),
        (1, 2, 0, "bit masks out of range for n=1"),
        (1, 0, -1, "bit masks out of range for n=1"),
    ])
    def test_malformed_label_rejected(self, n, x_bits, z_bits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PauliLabel(n, x_bits, z_bits)

    @pytest.mark.parametrize("idx", [-1, 4])
    def test_index_out_of_range_rejected(self, idx):
        with pytest.raises(ValueError, match=f"^index {idx} out of range for n=1$"):
            label_from_index(1, idx)

    def test_identity_label(self):
        ident = PauliLabel.identity(3)
        assert ident.x_bits == 0 and ident.z_bits == 0 and ident.packed == 0
        assert str(ident) == "III"

    def test_equality_ignores_nothing_but_bits(self):
        assert L("XZ") == PauliLabel(2, x_bits=0b01, z_bits=0b10)
        assert L("XZ") != L("ZX")

    def test_label_count_and_index_round_trip(self):
        labels = all_labels(2)
        assert len(labels) == 16
        assert len(set(labels)) == 16
        for i, a in enumerate(labels):
            assert label_index(a) == i
            assert label_from_index(2, i) == a

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_label_index_reads_the_string_in_base_4(self, n):
        """label_index reads the letters as base-4 digits I=0, X=1, Y=2, Z=3,
        qubit 0 first; label_from_index inverts it; both follow all_packed_labels."""
        digits = str.maketrans("IXYZ", "0123")
        for i, v in enumerate(all_packed_labels(n).tolist()):
            a = PauliLabel.from_packed(n, v)
            assert label_index(a) == int(a.to_string().translate(digits), 4) == i
            assert label_from_index(n, i) == a

    def test_canonical_ordering(self):
        assert [str(a) for a in all_labels(1)] == ["I", "X", "Y", "Z"]
        # qubit 0 is the most significant digit
        assert [str(a) for a in all_labels(2)[:5]] == ["II", "IX", "IY", "IZ", "XI"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_labels_in_index_order(self, n):
        packed = all_packed_labels(n)
        assert packed.dtype == np.int64
        assert packed.tolist() == [a.packed for a in all_labels(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_round_trip(self, n):
        """packed holds x_bits low and z_bits above them; from_packed inverts
        it, from a numpy integer too."""
        for a in all_labels(n):
            assert a.packed == a.x_bits | a.z_bits << n
            assert PauliLabel.from_packed(n, a.packed) == a
            b = PauliLabel.from_packed(n, np.int64(a.packed))
            assert b == a and type(b.x_bits) is type(b.z_bits) is int

    @pytest.mark.parametrize("v", [4, -1, 2**63])
    def test_packed_out_of_range_rejected(self, v):
        with pytest.raises(ValueError, match="^bit masks out of range for n=1$"):
            PauliLabel.from_packed(1, v)

    def test_packed_non_integer_rejected(self):
        with pytest.raises(TypeError):
            PauliLabel.from_packed(1, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_packed_from_strings(self, n):
        """Joined strings in index order pack to the canonical table."""
        joined = "".join(map(str, all_labels(n)))
        assert np.array_equal(packed_from_strings(n, joined), all_packed_labels(n))


class TestPauliMul:
    def test_identity_element(self):
        for s in ("I", "X", "Y", "Z"):
            label, theta = pauli_mul(L("I"), L(s))
            assert (str(label), theta) == (s, 0)

    def test_x_times_z(self):
        # X Z = -i Y
        label, theta = pauli_mul(L("X"), L("Z"))
        assert (str(label), theta) == ("Y", 3)

    def test_two_qubit_case(self):
        label, theta = pauli_mul(L("XZ"), L("ZZ"))
        assert (str(label), theta) == ("YI", 3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_phase_matches_dense_products(self, n):
        """matrix(a) @ matrix(b) == i**theta * matrix(c) for every pair."""
        for a in all_labels(n):
            for b in all_labels(n):
                c, theta = pauli_mul(a, b)
                np.testing.assert_allclose(
                    pauli_matrix(a) @ pauli_matrix(b),
                    1j**theta * pauli_matrix(c),
                    atol=1e-12,
                )

    def test_group_closure_and_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a, b, c = (label_from_index(n, int(rng.integers(0, 4**n))) for _ in range(3))
            ab, t_ab = pauli_mul(a, b)
            left, t_left = pauli_mul(ab, c)
            bc, t_bc = pauli_mul(b, c)
            right, t_right = pauli_mul(a, bc)
            assert left == right
            assert (t_ab + t_left) % 4 == (t_bc + t_right) % 4

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            pauli_mul(L("X"), L("XX"))


class TestSymplecticProduct:
    def test_frozen_cases(self):
        assert symplectic_product(L("X"), L("X")) == 0
        assert symplectic_product(L("X"), L("Z")) == 1
        assert symplectic_product(L("XZ"), L("ZX")) == 0

    def test_matches_dense_commutators(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a = label_from_index(n, int(rng.integers(0, 4**n)))
            b = label_from_index(n, int(rng.integers(0, 4**n)))
            ma, mb = pauli_matrix(a), pauli_matrix(b)
            commutes = np.allclose(ma @ mb, mb @ ma)
            assert symplectic_product(a, b) == (0 if commutes else 1)


class TestPauliMatrix:
    def test_single_qubit_matrices(self):
        np.testing.assert_array_equal(pauli_matrix(L("I")), np.eye(2))
        np.testing.assert_array_equal(pauli_matrix(L("Z")), np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(
            pauli_matrix(L("Y")), np.array([[0, -1j], [1j, 0]])
        )

    def test_tensor_order_qubit0_leftmost(self):
        np.testing.assert_array_equal(
            pauli_matrix(L("XZ")), np.kron(pauli_matrix(L("X")), pauli_matrix(L("Z")))
        )

    def test_hermitian_and_involutory(self):
        for a in all_labels(2):
            m = pauli_matrix(a)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)

    def test_orthonormality(self):
        """Tr[M_a M_b^dag] = D delta_ab over all pairs at n=2."""
        labels = all_labels(2)
        for a in labels:
            for b in labels:
                tr = np.trace(pauli_matrix(a) @ pauli_matrix(b).conj().T)
                assert abs(tr - (4.0 if a == b else 0.0)) < 1e-12

    def test_dense_cap(self):
        with pytest.raises(DenseCapError):
            pauli_matrix(PauliLabel.identity(7))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_kron_for_every_label(self, n):
        for a in all_labels(n):
            np.testing.assert_array_equal(pauli_matrix(a), kron_reference(a), err_msg=str(a))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_is_the_kronecker_basis(self, n):
        """Every packed label at once, in index order, equals the Kronecker
        products of the one-qubit pauli_matrix factors and, bit for bit up to
        the sign of a zero, kron_reference; pauli_matrix is its row; a
        per-label scale gives the bits of each matrix times its factor."""
        mats = pauli_matrices(n, all_packed_labels(n))
        np.testing.assert_array_equal(mats, kron_pauli_basis(n))
        for a, m in zip(all_labels(n), mats):
            assert np.array_equal((kron_reference(a) + 0).view(np.uint64),
                                  (m + 0).view(np.uint64)), str(a)  # + 0 turns -0 into 0
            assert np.array_equal(pauli_matrix(a).view(np.uint64), m.view(np.uint64)), str(a)
        scale = np.sqrt(np.random.default_rng(n).random(4**n))
        scaled = pauli_matrices(n, all_packed_labels(n), scale)
        assert np.array_equal(scaled.view(np.uint64), (scale[:, None, None] * mats).view(np.uint64))

    @pytest.mark.parametrize("n", [5, 6])
    def test_closed_form_matches_kron_for_sampled_labels(self, n):
        rng = np.random.default_rng(n)
        for idx in rng.integers(0, 4**n, size=100):
            a = label_from_index(n, int(idx))
            np.testing.assert_array_equal(pauli_matrix(a), kron_reference(a), err_msg=str(a))


def _pauli_action_reference(a):
    """One label's signed permutation, built on its own."""
    rev, parity, _ = index_bit_tables(a.n)
    src = np.arange(1 << a.n) ^ rev[a.x_bits]
    phase = 1j ** (a.x_bits & a.z_bits).bit_count()
    return src, phase * (1 - 2 * parity[rev[a.z_bits] & src])


def _assert_actions_bit_equal(n, idx):
    labels = [label_from_index(n, int(i)) for i in idx]
    src, w = pauli_actions(n, [a.packed for a in labels])
    assert src.shape == w.shape == (len(labels), 2**n)
    for a, s, v in zip(labels, src, w):
        ref_src, ref_w = _pauli_action_reference(a)
        np.testing.assert_array_equal(s, ref_src, err_msg=str(a))
        assert np.array_equal(v.view(np.uint64), ref_w.view(np.uint64)), str(a)


class TestPauliActions:
    """The batched signed permutations, bit for bit the per-label ones
    (signed zeros of the phases included)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_label(self, n):
        _assert_actions_bit_equal(n, range(4**n))

    @pytest.mark.parametrize("n", [5, 6])
    def test_sampled_labels(self, n):
        _assert_actions_bit_equal(n, np.random.default_rng(n).integers(0, 4**n, size=200))

    def test_dense_cap(self):
        with pytest.raises(DenseCapError):
            pauli_actions(7, [0])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bit_tables(self, n):
        rev, parity, popcount = index_bit_tables(n)
        c = range(2**n)
        assert list(popcount) == [bin(i).count("1") for i in c]
        assert list(parity) == [bin(i).count("1") & 1 for i in c]
        assert list(rev) == [int(format(i, f"0{n}b")[::-1], 2) for i in c]
        assert rev.dtype == parity.dtype == popcount.dtype == np.int64
        assert not (rev.flags.writeable or parity.flags.writeable or popcount.flags.writeable)


class TestGaloisField:
    """The GF(2^n) arithmetic underlying the MUB class construction."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_field_axioms_sampled(self, n):
        rng = np.random.default_rng(n)
        size = 2**n
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(0, size, size=3))
            assert gf_mul(gf_mul(a, b, n), c, n) == gf_mul(a, gf_mul(b, c, n), n)
            assert gf_mul(a, b ^ c, n) == gf_mul(a, b, n) ^ gf_mul(a, c, n)
            assert gf_mul(a, 1, n) == a
            assert gf_trace(a ^ b, n) == gf_trace(a, n) ^ gf_trace(b, n)

    def test_nonzero_elements_invertible(self):
        n = 4
        for a in range(1, 2**n):
            assert any(gf_mul(a, b, n) == 1 for b in range(1, 2**n))


class TestMubClasses:
    def test_single_qubit_axes(self):
        gens = [cls.generators for cls in mub_classes(1)]
        assert [str(g[0]) for g in gens] == ["Z", "X", "Y"]

    def test_class_count(self):
        for n in (1, 2, 3):
            assert len(mub_classes(n)) == 2**n + 1

    def test_computational_class_first(self):
        assert [str(g) for g in mub_classes(3)[0].generators] == ["ZII", "IZI", "IIZ"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_invariants(self, n):
        """Generators commute; generated groups are disjoint and cover."""
        seen = {}
        for cls in mub_classes(n):
            gens = cls.generators
            assert len(gens) == n
            for i in range(n):
                for j in range(i + 1, n):
                    assert symplectic_product(gens[i], gens[j]) == 0
            for mask in range(1, 2**n):
                label = PauliLabel.identity(n)
                for i in range(n):
                    if (mask >> i) & 1:
                        label, _ = pauli_mul(label, gens[i])
                assert label != PauliLabel.identity(n)  # independence
                assert label not in seen, f"{label} in classes {seen.get(label)}, {cls.J}"
                seen[label] = cls.J
        assert len(seen) == 4**n - 1  # cover

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_columns_match_trace_reference(self, n):
        """The trace-mask columns equal the n^2 field traces tr(c x^(s+t)),
        for every field element c up to n=8 and 300 sampled ones at n=12."""
        powers = [_polymod(1 << e, _IRREDUCIBLE_POLY[n]) for e in range(2 * n - 1)]

        def reference(c):
            return tuple(sum(gf_trace(gf_mul(c, powers[s + t], n), n) << s for s in range(n))
                         for t in range(n))

        rng = np.random.default_rng(n)
        elements = range(2**n) if n <= 8 else rng.choice(2**n, size=300, replace=False)
        for c in map(int, elements):
            assert tuple(int(g) >> n for g in class_generators(n)[c + 1]) == reference(c), c

    @pytest.mark.parametrize("n", range(1, MUB_QUBIT_CAP + 1))
    def test_trace_masks_match_field_traces(self, n):
        """Bit i of mask_e, from Newton's identities, is tr(x^(i+e)) computed
        by repeated squaring in the field."""
        traces = [gf_trace(_polymod(1 << m, _IRREDUCIBLE_POLY[n]), n) for m in range(3 * n - 2)]
        assert _trace_masks(n) == tuple(sum(traces[i + e] << i for i in range(n))
                                        for e in range(2 * n - 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_table_rows_are_the_classes(self, n):
        """Row J of the class table is mub_class(n, J)'s generators, packed,
        for every J up to n=8 and 300 sampled ones at n=12."""
        table = class_generators(n)
        assert table.shape == (2**n + 1, n) and table.dtype == np.int64
        rng = np.random.default_rng(n)
        js = range(2**n + 1) if n <= 8 else rng.choice(2**n + 1, size=300, replace=False)
        for j in map(int, js):
            packed = [g.packed for g in mub_class(n, j).generators]
            assert table[j].tolist() == packed, j

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            class_generators(3)[1, 0] = 0

    def test_on_demand_class_matches_list(self):
        for n in (1, 2, 3):
            for j, cls in enumerate(mub_classes(n)):
                assert mub_class(n, j) == cls

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            mub_classes(0)
        with pytest.raises(ValueError):
            mub_class(MUB_QUBIT_CAP + 1, 0)
        with pytest.raises(ValueError):
            mub_class(2, 6)


class TestCommutationVector:
    def test_identity_commutes_with_everything(self):
        for n in (1, 2, 3):
            for cls in mub_classes(n):
                assert commutation_vector(PauliLabel.identity(n), cls) == 0

    def test_frozen_cases(self):
        assert commutation_vector(L("X"), mub_class(1, 0)) == 1
        # X(x)I against {Z(x)I, I(x)Z}: anticommutes with the first only
        assert commutation_vector(L("XI"), mub_class(2, 0)) == 0b01

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            commutation_vector(L("X"), mub_class(2, 0))


class TestSolveLabelFromConstraints:
    def test_all_zero_gives_identity(self):
        for n in (1, 2, 3):
            label = solve_label_from_constraints(mub_class(n, 0), 0, mub_class(n, 1), 0)
            assert label == PauliLabel.identity(n)

    def test_single_qubit_case(self):
        label = solve_label_from_constraints(mub_class(1, 0), 1, mub_class(1, 1), 0)
        assert str(label) == "X"

    @pytest.mark.parametrize("n", [1, 2])
    def test_round_trip_exhaustive(self, n):
        """Any label is recovered from its vectors w.r.t. any two classes."""
        classes = mub_classes(n)
        for a in all_labels(n):
            for i, cls_a in enumerate(classes):
                for cls_b in classes[i + 1 :]:
                    pa = commutation_vector(a, cls_a)
                    pb = commutation_vector(a, cls_b)
                    assert solve_label_from_constraints(cls_a, pa, cls_b, pb) == a

    @pytest.mark.parametrize("n", [3, 8])
    def test_round_trip_sampled(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            a = label_from_index(n, int(rng.integers(0, 4**n)))
            ja, jb = rng.choice(2**n + 1, size=2, replace=False)
            cls_a, cls_b = mub_class(n, int(ja)), mub_class(n, int(jb))
            pa = commutation_vector(a, cls_a)
            pb = commutation_vector(a, cls_b)
            assert solve_label_from_constraints(cls_a, pa, cls_b, pb) == a

    def test_same_class_rejected(self):
        with pytest.raises(ValueError):
            solve_label_from_constraints(mub_class(2, 1), 0, mub_class(2, 1), 0)

    def test_singular_system_raises(self):
        cls = mub_class(2, 0)
        repeated = MubClass(1, (cls.generators[0],) * 2)
        with pytest.raises(RuntimeError):
            solve_label_from_constraints(cls, 0, repeated, 0)


class TestCommutationColumns:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_match_symplectic_products(self, n):
        classes = mub_classes(n)
        labels = all_labels(n)
        packed = np.array([a.packed for a in labels])
        got = gf2_apply(commutation_columns(n), packed[:, None])
        want = [
            [sum(symplectic_product(a, g) << i for i, g in enumerate(c.generators))
             for c in classes]
            for a in labels
        ]
        assert got.tolist() == want

    def test_selected_bases_are_rows_of_all(self):
        bases = np.array([4, 0, 2])
        assert np.array_equal(commutation_columns(3, bases), commutation_columns(3)[bases])
