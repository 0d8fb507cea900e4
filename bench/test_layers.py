"""Layer benchmarks, kept out of the tier-1 suite.

    python -m pytest bench                        # timings (pytest-benchmark)
    python -m pytest bench --benchmark-disable    # each body once, as a smoke check
"""

import numpy as np
import pytest

from chitomo.channels import channel_factory
from chitomo.estimator import (
    EstimatorConfig,
    TripletRecord,
    estimate_diags_from_triplets,
    run_triplet_experiments,
    sieve_large_diagonals,
)
from chitomo.mub import design_basis
from chitomo.pauli import PauliLabel, commutation_vector, label_from_index, mub_class


def _all_bases(n):
    return [design_basis(n, j) for j in range(2**n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_design_basis_all_bases(benchmark, n):
    """Every base of n qubits from a cold cache."""
    bases = benchmark.pedantic(
        _all_bases, args=(n,), setup=design_basis.cache_clear, rounds=10, iterations=1
    )
    assert len(bases) == 2**n + 1


def test_estimate_diags_from_triplets(benchmark):
    """Eight labels read from one n=5, M=2000 triplet record."""
    spec = {"n": 5, "kind": "pauli_mixture",
            "weights": {"IIIII": 0.7, "XIZIY": 0.2, "ZZIII": 0.1}}
    record = run_triplet_experiments(channel_factory(spec), EstimatorConfig(M=2000, seed=5))
    rng = np.random.default_rng(5)
    labels = [label_from_index(5, int(i)) for i in rng.integers(0, 4**5, size=8)]
    estimates = benchmark(estimate_diags_from_triplets, record, labels)
    assert len(estimates) == 8 and all(est.M == 2000 for est in estimates)


def _synthetic_pauli_log(n, m_count, weights, seed):
    """Records of a Pauli channel drawn from commutation vectors alone:
    k' = k XOR p_a(J) for a label a drawn with its weight."""
    labels = [PauliLabel.from_string(a) for a in weights]
    rng = np.random.default_rng(seed)
    js = rng.integers(0, 2**n + 1, size=m_count)
    ks = rng.integers(0, 2**n, size=m_count)
    drawn = rng.choice(len(labels), size=m_count, p=list(weights.values()))
    k_primes = [k ^ commutation_vector(labels[a], mub_class(n, int(j)))
                for j, k, a in zip(js, ks, drawn)]
    return TripletRecord(n, js, ks, k_primes)


@pytest.mark.parametrize("n, m_count", [(5, 6000), (8, 3000)])
def test_sieve_large_diagonals(benchmark, n, m_count):
    """The sieve on a synthetic log of a 3-label Pauli channel."""
    weights = {"I" * n: 0.6, "X" + "I" * (n - 1): 0.25, "IZZ" + "I" * (n - 3): 0.15}
    record = _synthetic_pauli_log(n, m_count, weights, seed=n)
    found = benchmark(sieve_large_diagonals, record, 0.08)
    assert [str(label) for label, _ in found] == list(weights)
