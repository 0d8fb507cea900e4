"""Acceptance gate: one numbered check per guarantee the package makes.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Stated tolerances and runtime budgets are asserted inline.
"""

import json
import time

import numpy as np

from chitomo import cli
from chitomo.channels import channel_factory, matrix_to_json, modified_channel_diag
from chitomo.estimator import (
    EstimatorConfig,
    estimate_chi_diag,
    estimate_chi_offdiag,
    estimate_diags_from_triplets,
    run_triplet_experiments,
    sieve_large_diagonals,
)
from chitomo.mub import design_average_survival, design_basis
from chitomo.oracle import (
    exact_ancilla_polarization,
    exact_average_fidelity,
    exact_chi,
    exact_offdiag_average,
    haar_closed_form,
    random_label,
)
from chitomo.pauli import (
    PauliLabel,
    mub_classes,
    pauli_matrix,
    pauli_mul,
    symplectic_product,
)

_SUITE_START = time.perf_counter()


def _pass(num, description):
    print(f"ACCEPTANCE PASS {num:02d}: {description}")


def _dephasing_ops(n):
    z = pauli_matrix(PauliLabel.from_string("Z" * n))
    eye = np.eye(2**n)
    return [matrix_to_json(np.sqrt(0.9) * eye), matrix_to_json(np.sqrt(0.1) * z)]


def channel_suite(n):
    """One channel per factory kind, at the requested width."""
    specs = [
        {"n": n, "kind": "identity"},
        {"n": n, "kind": "depolarizing", "p": 0.3},
        {"n": n, "kind": "unitary", "generator": "X" * n, "theta": 1.0471975511965976},
        {
            "n": n,
            "kind": "pauli_mixture",
            "weights": {"I" * n: 0.7, "X" + "I" * (n - 1): 0.2, "Z" * n: 0.1},
        },
        {"n": n, "kind": "amplitude_damping", "gamma": 0.25},
        {"n": n, "kind": "kraus", "operators": _dephasing_ops(n)},
        {
            "n": n,
            "kind": "compose",
            "children": [
                {"n": n, "kind": "depolarizing", "p": 0.2},
                {"n": n, "kind": "unitary", "generator": "Y" * n, "theta": 0.7},
            ],
        },
    ]
    return [channel_factory(s) for s in specs]


def test_01_design_average_matches_haar():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for n in (1, 2, 3):
        d = 2**n
        for _ in range(20):
            op1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            op2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            diff = design_average_survival(op1, op2) - haar_closed_form(op1, op2)
            assert abs(diff) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(
        1,
        "state-design averages match the Haar second-moment closed form "
        f"(n=1..3, 20 random operator pairs each, tol 1e-9, {elapsed:.2f}s)",
    )


def test_02_mub_classes_and_overlaps():
    start = time.perf_counter()
    for n in range(1, 5):
        d = 2**n
        classes = mub_classes(n)
        assert len(classes) == d + 1
        covered = set()
        for cls in classes:
            gens = cls.generators
            for i in range(n):
                for j in range(i + 1, n):
                    assert symplectic_product(gens[i], gens[j]) == 0
            elements = set()
            for bits in range(d):
                acc = PauliLabel.identity(n)
                for idx in range(n):
                    if (bits >> idx) & 1:
                        acc, _ = pauli_mul(acc, gens[idx])
                elements.add((acc.x_bits, acc.z_bits))
            assert len(elements) == d
            nontrivial = elements - {(0, 0)}
            assert not covered & nontrivial
            covered |= nontrivial
        assert len(covered) == d * d - 1
        bases = [design_basis(n, J) for J in range(d + 1)]
        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                overlap = np.abs(bases[a].conj().T @ bases[b]) ** 2
                assert np.max(np.abs(overlap - 1.0 / d)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(
        2,
        "commuting classes pairwise commute, partition the Pauli group, and all "
        f"cross-base overlaps equal 1/D (n<=4, tol 1e-10, {elapsed:.2f}s)",
    )


def test_03_modified_channel_fidelity_extracts_diagonal():
    rng = np.random.default_rng(303)
    for n in (1, 2):
        d = 2**n
        for channel in channel_suite(n):
            chi = exact_chi(channel)
            for _ in range(10):
                m = random_label(n, rng)
                fid = exact_average_fidelity(modified_channel_diag(channel, m))
                target = (d * chi.entry(m, m).real + 1) / (d + 1)
                assert abs(fid - target) < 1e-9
    _pass(
        3,
        "average fidelity of the label-modified channel recovers every diagonal "
        "chi entry (all factory kinds, n<=2, 10 random labels each, tol 1e-9)",
    )


def test_04_offdiag_identities_both_realizations():
    rng = np.random.default_rng(404)
    for n in (1, 2):
        d = 2**n
        for channel in channel_suite(n):
            chi = exact_chi(channel)
            for _ in range(10):
                m = random_label(n, rng)
                nl = random_label(n, rng)
                entry = chi.entry(m, nl)
                delta = 1.0 if m == nl else 0.0
                target = (d * entry + delta) / (d + 1)
                assert abs(exact_offdiag_average(channel, m, nl) - target) < 1e-9
                px = exact_ancilla_polarization(channel, m, nl, "x")
                py = exact_ancilla_polarization(channel, m, nl, "y")
                assert abs(px - target.real) < 1e-9
                assert abs(py - d * entry.imag / (d + 1)) < 1e-9
    _pass(
        4,
        "direct and ancilla-assisted off-diagonal averages both recover chi_mn "
        "(real via sigma_x, imaginary via sigma_y; n<=2, tol 1e-9)",
    )


def test_05_sampled_estimates_within_five_sigma():
    start = time.perf_counter()
    depol = channel_factory({"n": 1, "kind": "depolarizing", "p": 0.2})
    rot = channel_factory(
        {"n": 1, "kind": "unitary", "generator": "X", "theta": float(np.pi / 2)}
    )
    z = PauliLabel.from_string("Z")
    ident = PauliLabel.from_string("I")
    x = PauliLabel.from_string("X")
    chi_zz = exact_chi(depol).entry(z, z).real
    chi_ix = exact_chi(rot).entry(ident, x)
    hits_diag = hits_off = 0
    for seed in range(200):
        est = estimate_chi_diag(depol, z, EstimatorConfig(M=100_000, seed=seed))
        hits_diag += abs(est.value - chi_zz) < 5 * est.std_error
        est = estimate_chi_offdiag(rot, ident, x, EstimatorConfig(M=100_000, seed=seed))
        hits_off += abs(est.value - chi_ix) < 5 * est.std_error
    assert hits_diag >= 196
    assert hits_off >= 196
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(
        5,
        f"sampled estimates landed within 5 sigma of the oracle in {hits_diag}/200 "
        f"(diagonal) and {hits_off}/200 (off-diagonal) seeded runs at M=1e5 "
        f"({elapsed:.1f}s)",
    )


def test_06_error_scales_as_inverse_sqrt_m():
    depol = channel_factory({"n": 1, "kind": "depolarizing", "p": 0.2})
    z = PauliLabel.from_string("Z")
    small = [
        estimate_chi_diag(depol, z, EstimatorConfig(M=1000, seed=s)).std_error
        for s in range(50)
    ]
    big = [
        estimate_chi_diag(depol, z, EstimatorConfig(M=4000, seed=s)).std_error
        for s in range(50)
    ]
    ratio = float(np.mean(big) / np.mean(small))
    assert 0.375 <= ratio <= 0.625
    _pass(
        6,
        f"standard error shrinks as 1/sqrt(M): mean ratio {ratio:.3f} between "
        "M=4000 and M=1000 over 50 seeds (expected 0.5)",
    )


def test_07_triplet_record_reproduces_direct_estimates():
    weights = {"II": 0.6, "XI": 0.25, "ZZ": 0.15}
    mix = channel_factory({"n": 2, "kind": "pauli_mixture", "weights": weights})
    triplets = run_triplet_experiments(mix, EstimatorConfig(M=100_000, seed=11))
    for text, weight in weights.items():
        m = PauliLabel.from_string(text)
        (value,), (error,) = estimate_diags_from_triplets(triplets, [m])
        direct = estimate_chi_diag(mix, m, EstimatorConfig(M=100_000, seed=12))
        combined = float(np.hypot(error, direct.std_error))
        assert abs(value - direct.value) < 5 * combined
        assert abs(value - weight) < 5 * error

    def timed(m_count):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            record = run_triplet_experiments(mix, EstimatorConfig(M=m_count, seed=13))
            for text in weights:
                estimate_diags_from_triplets(record, [PauliLabel.from_string(text)])
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = max(timed(25_000), 1e-4)
    t_large = timed(100_000)
    assert t_large / t_small < 10.0
    _pass(
        7,
        "triplet-record estimates match the direct estimator within combined "
        f"5 sigma; cost for a 4x longer record grew {t_large / t_small:.1f}x "
        "(linear budget 10x)",
    )


def test_08_sieve_recovers_sparse_support():
    start = time.perf_counter()
    weights = {"IIII": 0.6, "XIII": 0.25, "ZZII": 0.15}
    mix = channel_factory({"n": 4, "kind": "pauli_mixture", "weights": weights})
    expected = set(weights)
    successes = 0
    for seed in range(20):
        triplets = run_triplet_experiments(mix, EstimatorConfig(M=2000, seed=seed))
        labels, _, _, stats = sieve_large_diagonals(triplets, 0.08)
        assert stats["pairs_processed"] <= 2000 * 2001 // 2
        if {str(PauliLabel.from_packed(4, a)) for a in labels} == expected:
            successes += 1
    assert successes >= 19
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(
        8,
        f"sieve recovered the exact 3-label support in {successes}/20 seeded runs "
        f"at n=4, M=2000, threshold 0.08, within the pair budget ({elapsed:.1f}s)",
    )


def test_09_fidelity_floor_for_orthogonal_label():
    for n, text in ((1, "X"), (2, "XZ")):
        ident = channel_factory({"n": n, "kind": "identity"})
        d = 2**n
        est = estimate_chi_diag(
            ident, PauliLabel.from_string(text), EstimatorConfig(M=100_000, seed=21)
        )
        f_hat = (d * est.value + 1) / (d + 1)
        sigma_f = d * est.std_error / (d + 1)
        assert sigma_f > 0
        assert abs(f_hat - 1 / (d + 1)) < 5 * sigma_f
    _pass(
        9,
        "identity-channel fidelity under an orthogonal label concentrates at the "
        "1/(D+1) floor within 5 sigma at M=1e5 (n=1 and n=2)",
    )


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_timestamp(text):
    doc = json.loads(text)
    doc.get("manifest", {}).pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


def test_10_cli_runs_are_reproducible(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    dep.write_text(json.dumps({"n": 1, "kind": "depolarizing", "p": 0.2}))
    mix = tmp_path / "mix.json"
    mix.write_text(
        json.dumps(
            {
                "n": 4,
                "kind": "pauli_mixture",
                "weights": {"IIII": 0.6, "XIII": 0.25, "ZZII": 0.15},
            }
        )
    )
    log = tmp_path / "mix.log"
    log_bytes = []
    for name in ("a.log", "b.log"):
        path = tmp_path / name
        code, _, _ = _cli(
            capsys, "triplets", "--channel", str(mix), "--M", "1500",
            "--seed", "7", "--out", str(path),
        )
        assert code == 0
        log_bytes.append(path.read_bytes())
    assert log_bytes[0] == log_bytes[1]
    log.write_bytes(log_bytes[0])

    json_commands = [
        ("estimate-diag", "--channel", str(dep), "--m", "Z", "--M", "2000",
         "--seed", "5"),
        ("estimate-offdiag", "--channel", str(dep), "--m", "I", "--n-label", "Z",
         "--M", "2000", "--seed", "5"),
        ("diag-from-log", "--log", str(log), "--m", "IIII,XIII",
         "--channel", str(mix)),
        ("sieve", "--log", str(log), "--threshold", "0.08", "--channel", str(mix)),
    ]
    for argv in json_commands:
        first = _cli(capsys, *argv)
        second = _cli(capsys, *argv)
        assert first[0] == second[0] == 0
        assert _strip_timestamp(first[1]) == _strip_timestamp(second[1])

    verify_runs = [_cli(capsys, "verify", "--n", "1") for _ in range(2)]
    assert verify_runs[0] == verify_runs[1]
    assert verify_runs[0][0] == 0
    _pass(
        10,
        "every CLI subcommand run twice with identical flags and seed produced "
        "byte-identical output apart from the report timestamp",
    )


def test_11_suite_finishes_quickly():
    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 600.0
    _pass(11, f"acceptance checks completed in {elapsed:.1f}s (budget 600s)")
