"""The explicit MUB state vectors and their 2-design behaviour."""

import numpy as np
import pytest

from chitomo.mub import (
    design_average_survival,
    design_bases,
    design_basis,
    design_states,
)
from chitomo.oracle import haar_closed_form
from chitomo.pauli import (
    DenseCapError,
    PauliLabel,
    commutation_vector,
    index_bit_tables,
    label_from_index,
    mub_class,
    pauli_matrix,
)


class TestStateConstruction:
    def test_computational_base_is_j0(self):
        np.testing.assert_allclose(design_basis(1, 0)[:, 0], [1, 0], atol=1e-15)
        np.testing.assert_allclose(design_basis(1, 0)[:, 1], [0, 1], atol=1e-15)

    def test_x_base_plus_state(self):
        v = design_basis(1, 1)[:, 0]
        np.testing.assert_allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_generator_eigenvalue_labels(self, n):
        """P^J_i |psi^J_k> = (-1)^{k_i} |psi^J_k> for every state."""
        d = 2**n
        ks = np.arange(d)
        for j in range(d + 1):
            b = design_basis(n, j)
            for i, g in enumerate(mub_class(n, j).generators):
                signs = 1 - 2 * ((ks >> i) & 1)
                np.testing.assert_allclose(pauli_matrix(g) @ b, b * signs, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_norm_and_phase_convention(self, n):
        d = 2**n
        for j in range(d + 1):
            for k in range(d):
                v = design_basis(n, j)[:, k]
                assert abs(np.linalg.norm(v) - 1) < 1e-12
                first = v[np.argmax(np.abs(v) > 1e-8)]
                assert first.real > 0 and abs(first.imag) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_projector_reference(self, n):
        """Bit for bit the per-state construction: the first computational
        fiducial that survives the n sign projectors, normalized, with its
        first nonzero amplitude made real positive."""
        d = 2**n
        for j in range(d + 1):
            gens = [pauli_matrix(g) for g in mub_class(n, j).generators]
            reference = np.stack([_projected_fiducial(gens, k, d) for k in range(d)], axis=1)
            assert np.array_equal(design_basis(n, j), reference)

    def test_all_twenty_states_cross_unbiased_at_n2(self):
        states = [design_basis(2, j)[:, k] for j in range(5) for k in range(4)]
        for a in range(20):
            for b in range(20):
                if a // 4 == b // 4:
                    continue
                overlap = abs(np.vdot(states[a], states[b])) ** 2
                assert abs(overlap - 0.25) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bases_are_orthonormal(self, n):
        d = 2**n
        for j in range(d + 1):
            b = design_basis(n, j)
            np.testing.assert_allclose(b.conj().T @ b, np.eye(d), atol=1e-10)

    def test_base_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            design_basis(1, 3)
        with pytest.raises(ValueError):
            design_basis(2, -1)

    def test_dense_cap(self):
        with pytest.raises(DenseCapError):
            design_basis(7, 0)

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="^design states need n >= 1, got n=0$"):
            design_bases(0)

    def test_cache_holds_every_base_at_the_dense_cap(self):
        """One build per n holds all D+1 bases, read-only, and design_basis
        reads them without building again."""
        d = 2**6
        design_bases.cache_clear()
        for _ in range(2):
            for j in range(d + 1):
                design_basis(6, j)
        info = design_bases.cache_info()
        assert (info.hits, info.misses) == (2 * (d + 1) - 1, 1)
        bases = design_bases(6)
        assert bases.shape == (d + 1, d, d) and not bases.flags.writeable
        assert not design_basis(6, 5).flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_batched_build_matches_per_base_build(self, n):
        """Bit for bit (signed zeros included) the bases built one J at a time."""
        bases = design_bases(n)
        for j in range(2**n + 1):
            want = _per_base_reference(n, j)
            assert np.array_equal(bases[j].view(np.uint64), want.view(np.uint64)), j

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_states_are_the_base_columns_in_order(self, n):
        d = 2**n
        v = design_states(n)
        assert v.shape == (d * (d + 1), d) and not v.flags.writeable
        assert v.flags.f_contiguous
        for j in range(d + 1):
            np.testing.assert_array_equal(v[j * d:(j + 1) * d], design_basis(n, j).T)


def _per_base_reference(n, j):
    """Base j alone: the n projectors (I + g_i)/2 of class j, each applied as
    its signed permutation, to |0>, normalized, then a Z^k sign per column."""
    d = 2**n
    rev, parity, _ = index_bit_tables(n)
    if j == 0:
        return np.eye(d, dtype=complex)[rev]
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    for g in mub_class(n, j).generators:
        src = np.arange(d) ^ rev[g.x_bits]
        w = 1j ** (g.x_bits & g.z_bits).bit_count() * (1 - 2 * parity[rev[g.z_bits] & src])
        v = (v + w * v[src]) / 2
    v /= np.linalg.norm(v)
    return v[:, None] * (1 - 2 * parity[rev[:, None] & np.arange(d)])


def _projected_fiducial(gens, k, d):
    for fiducial in range(d):
        v = np.zeros(d, dtype=complex)
        v[fiducial] = 1.0
        for i, g in enumerate(gens):
            sign = -1.0 if (k >> i) & 1 else 1.0
            v = (v + sign * (g @ v)) / 2
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            v /= norm
            first = int(np.argmax(np.abs(v) > 1e-8))
            return v * (np.abs(v[first]) / v[first])
    raise AssertionError(f"no fiducial survives the projectors for k={k}")


class TestDesignAverage:
    def test_identity_pair(self):
        assert abs(design_average_survival(np.eye(2), np.eye(2)) - 1) < 1e-12

    def test_z_pair_single_qubit(self):
        z = np.diag([1.0, -1.0])
        assert abs(design_average_survival(z, z) - 1 / 3) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_haar_closed_form(self, n):
        rng = np.random.default_rng(n)
        d = 2**n
        for _ in range(20):
            o1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert abs(design_average_survival(o1, o2) - haar_closed_form(o1, o2)) < 1e-10

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            design_average_survival(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            design_average_survival(np.eye(2), np.eye(4))


class TestPauliAction:
    def test_x_flips_computational_bit(self):
        b = design_basis(1, 0)
        assert commutation_vector(PauliLabel.from_string("X"), mub_class(1, 0)) == 1
        np.testing.assert_allclose(pauli_matrix(PauliLabel.from_string("X")) @ b[:, 0], b[:, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pauli_moves_state_within_its_base(self, n):
        """P_a B_J[:, k] is, up to a phase, B_J[:, k XOR p_a(J)]: the identity
        every protocol reads its survivals and transitions from."""
        rng = np.random.default_rng(n + 40)
        d = 2**n
        ks = np.arange(d)
        for _ in range(24):
            j = int(rng.integers(0, d + 1))
            a = label_from_index(n, int(rng.integers(0, 4**n)))
            b = design_basis(n, j)
            target = b[:, ks ^ commutation_vector(a, mub_class(n, j))]
            overlaps = np.abs(np.sum(target.conj() * (pauli_matrix(a) @ b), axis=0))
            np.testing.assert_allclose(overlaps, 1, atol=1e-10)
