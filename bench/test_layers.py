"""Layer benchmarks, kept out of the tier-1 suite.

    python -m pytest bench                        # timings (pytest-benchmark)
    python -m pytest bench --benchmark-disable    # each body once, as a smoke check
"""

import contextlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from chitomo import cli
from chitomo.channels import apply_channel, channel_factory, superoperator
from chitomo.estimator import (
    EstimatorConfig,
    TripletRecord,
    estimate_chi_diag,
    estimate_chi_offdiag,
    estimate_diags_from_triplets,
    read_triplet_log,
    run_triplet_experiments,
    sieve_large_diagonals,
    write_triplet_log,
)
from chitomo.mub import design_bases, design_states
from chitomo.oracle import (
    exact_ancilla_polarization,
    exact_chi,
    exact_chi_entries,
    oracle_report,
)
from chitomo.pauli import (
    PauliLabel,
    all_labels,
    all_packed_labels,
    class_generators,
    commutation_vector,
    index_bit_tables,
    label_from_index,
    label_index,
    mub_class,
    mub_classes,
    pauli_actions,
    pauli_matrix,
    solve_label_from_constraints,
)


def _cold_design_caches():
    design_bases.cache_clear()
    class_generators.cache_clear()
    index_bit_tables.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_design_bases(benchmark, n):
    """Every base of n qubits in one batch, from cold caches."""
    bases = benchmark.pedantic(
        design_bases, args=(n,), setup=_cold_design_caches, rounds=10, iterations=1
    )
    assert bases.shape == (2**n + 1, 2**n, 2**n)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_index_bit_tables(benchmark, n):
    """The (rev, parity, popcount) tables over the 2^n indices, from a cold cache."""
    rev, _, _ = benchmark.pedantic(index_bit_tables, args=(n,),
                                   setup=index_bit_tables.cache_clear, rounds=50, iterations=1)
    assert len(rev) == 2**n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pauli_actions_all_labels(benchmark, n):
    """The signed permutations of all 4^n labels as one table."""
    src, w = benchmark(pauli_actions, n, all_packed_labels(n))
    assert src.shape == w.shape == (4**n, 2**n)


def test_solve_label_from_constraints(benchmark):
    """100 labels of n=8 recovered from their commutation vectors in two classes."""
    rng = np.random.default_rng(8)
    labels = [label_from_index(8, int(i)) for i in rng.integers(0, 4**8, size=100)]
    a, b = mub_class(8, 3), mub_class(8, 200)
    cases = [(commutation_vector(m, a), commutation_vector(m, b)) for m in labels]
    found = benchmark(lambda: [solve_label_from_constraints(a, p, b, q) for p, q in cases])
    assert found == labels


# One call of each subcommand, as the parser sees it.
_ARGV = {
    "estimate-diag": ["--channel", "c.json", "--m", "XI", "--M", "1000", "--seed", "3"],
    "estimate-offdiag": ["--channel", "c.json", "--m", "XI", "--n-label", "ZZ", "--epsilon",
                         "0.05"],
    "triplets": ["--channel", "c.json", "--M", "2000", "--seed", "1", "--out", "t.log"],
    "diag-from-log": ["--log", "t.log", "--m", "II,XI", "--m", "ZZ", "--channel", "c.json"],
    "sieve": ["--log", "t.log", "--threshold", "0.05"],
    "verify": ["--n", "2", "--verify-level", "full"],
}


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_cli_argument_parsing(benchmark, command):
    """Parsing one well-formed command as main() does: the flag table's
    exact-match path, with no argparse parser built."""
    argv = [command, *_ARGV[command]]
    args = benchmark(cli._parse_exact, argv)
    assert args == cli.build_parser().parse_args(argv)


def test_cli_argument_parsing_fallback(benchmark):
    """Parsing an abbreviated flag (--eps) as main() does: the exact-match
    path declines, and argparse builds the whole parser and parses."""
    argv = ["estimate-diag", "--channel", "c.json", "--m", "XI", "--eps", "0.05"]
    args = benchmark(lambda: cli._parse_exact(argv) or cli.build_parser().parse_args(argv))
    assert args.epsilon == 0.05


def _cold_package_caches():
    """Clear every lru cache of the package, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("chitomo."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """An n=2 depolarizing spec and an M=2000 triplet log of it."""
    work = tmp_path_factory.mktemp("cli")
    spec = work / "dep.json"
    spec.write_text(json.dumps({"n": 2, "kind": "depolarizing", "p": 0.2}))
    log = work / "t.log"
    cli.main(["triplets", "--channel", str(spec), "--M", "2000", "--seed", "1", "--out", str(log)])
    return {"spec": str(spec), "log": str(log), "out": str(work / "out.log")}


_COMMAND_ARGV = {
    "estimate-diag": ["--channel", "{spec}", "--m", "XI", "--M", "2000", "--seed", "3"],
    "estimate-offdiag": ["--channel", "{spec}", "--m", "XI", "--n-label", "ZZ", "--M", "2000",
                         "--seed", "3"],
    "triplets": ["--channel", "{spec}", "--M", "2000", "--seed", "1", "--out", "{out}"],
    "diag-from-log": ["--log", "{log}", "--m", "II,XI", "--m", "ZZ", "--channel", "{spec}"],
    "sieve": ["--log", "{log}", "--threshold", "0.05", "--channel", "{spec}"],
    "verify": ["--n", "2"],
}


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_cli_command(benchmark, cli_inputs, command):
    """One command end to end through cli.main at n=2: parsing, spec and log
    reads, the protocol, the report's JSON on captured stdout or the log
    written, each round from cold package caches."""
    argv = [command, *(arg.format(**cli_inputs) for arg in _COMMAND_ARGV[command])]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            return cli.main(argv), out.getvalue()

    code, out = benchmark.pedantic(run, setup=_cold_package_caches, rounds=20, iterations=1)
    assert code == 0 and (out or command == "triplets")


def _cold_class_caches():
    mub_class.cache_clear()
    class_generators.cache_clear()
    index_bit_tables.cache_clear()


@pytest.mark.parametrize("n", [5, 8, 12])
def test_mub_classes(benchmark, n):
    """All D+1 commuting classes of n qubits from cold caches."""
    classes = benchmark.pedantic(
        mub_classes, args=(n,), setup=_cold_class_caches, rounds=5, iterations=1
    )
    assert len(classes) == 2**n + 1


@pytest.mark.parametrize("n", [5, 8, 12])
def test_class_generators(benchmark, n):
    """The packed generators of all D+1 classes as one table, from cold caches."""
    table = benchmark.pedantic(
        class_generators, args=(n,), setup=_cold_class_caches, rounds=5, iterations=1
    )
    assert table.shape == (2**n + 1, n)


def _random_record(n, m_count, seed):
    rng = np.random.default_rng(seed)
    d = 2**n
    return TripletRecord(n, *(rng.integers(0, top, size=m_count) for top in (d + 1, d, d)))


def test_write_triplet_log(benchmark, tmp_path):
    """An n=6, M=2e5 record written as a triplet log."""
    record = _random_record(6, 200_000, seed=6)
    path = tmp_path / "t.log"
    benchmark(write_triplet_log, path, record, 6, "ab" * 32)
    assert path.stat().st_size > 200_000 * 16


def test_read_triplet_log(benchmark, tmp_path):
    """An n=6, M=2e5 triplet log read back into columns."""
    record = _random_record(6, 200_000, seed=6)
    path = tmp_path / "t.log"
    write_triplet_log(path, record, 6, "ab" * 32)
    loaded, _ = benchmark(read_triplet_log, path)
    assert loaded == record


def test_write_triplet_log_n12(benchmark, tmp_path):
    """An n=12, M=2e5 record written as a triplet log."""
    record = _random_record(12, 200_000, seed=12)
    path = tmp_path / "t.log"
    benchmark(write_triplet_log, path, record, 12, "ab" * 32)
    assert path.stat().st_size > 200_000 * 28


def test_read_triplet_log_n12(benchmark, tmp_path):
    """An n=12, M=2e5 triplet log read back into columns."""
    record = _random_record(12, 200_000, seed=12)
    path = tmp_path / "t.log"
    write_triplet_log(path, record, 12, "ab" * 32)
    loaded, _ = benchmark(read_triplet_log, path)
    assert loaded == record


def test_read_triplet_log_log_sieve_shape(benchmark, tmp_path):
    """An n=5, M=6000 triplet log, the size of the log-sieve workload's
    synthetic log, read back into columns.  A read takes a few hundred
    microseconds, so each round times 20 reads, after one warm-up round,
    and the row to cite is its min: the median moves with the machine's
    load by more than a read's changes do."""
    record = _random_record(5, 6000, seed=5)
    path = tmp_path / "t.log"
    write_triplet_log(path, record, 5, "ab" * 32)
    loaded, _ = benchmark.pedantic(read_triplet_log, args=(path,), rounds=15, iterations=20,
                                   warmup_rounds=1)
    assert loaded == record


def test_triplet_log_peak_memory(tmp_path):
    """tracemalloc peaks per record of writing and reading an n=12, M=1e6
    log: the writer holds one slice, less than the file; the reader holds
    the file's bytes (30.7 B per record), its int64 columns (24 B) and one
    slice, under 150 B."""
    m_count = 1_000_000
    record = _random_record(12, m_count, seed=13)
    path = tmp_path / "t.log"

    def peak_per_record(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1] / m_count
        finally:
            tracemalloc.stop()

    write_peak = peak_per_record(write_triplet_log, path, record, 12, "ab" * 32)
    assert write_peak < path.stat().st_size / m_count
    del record
    assert peak_per_record(read_triplet_log, path) < 150


def test_estimate_diags_from_triplets(benchmark):
    """Eight labels read from one n=5, M=2000 triplet record."""
    spec = {"n": 5, "kind": "pauli_mixture",
            "weights": {"IIIII": 0.7, "XIZIY": 0.2, "ZZIII": 0.1}}
    record = run_triplet_experiments(channel_factory(spec), EstimatorConfig(M=2000, seed=5))
    rng = np.random.default_rng(5)
    labels = [label_from_index(5, int(i)) for i in rng.integers(0, 4**5, size=8)]
    estimates = benchmark(estimate_diags_from_triplets, record, labels)
    assert len(estimates) == 8 and all(est.M == 2000 for est in estimates)


def test_estimate_diags_from_triplets_n12(benchmark):
    """64 labels read from one random n=12, M=3000 record: about 2,100 bases present."""
    record = _random_record(12, 3000, seed=12)
    rng = np.random.default_rng(12)
    labels = [label_from_index(12, int(i)) for i in rng.integers(0, 4**12, size=64)]
    estimates = benchmark(estimate_diags_from_triplets, record, labels)
    assert len(estimates) == 64 and all(est.M == 3000 for est in estimates)


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


def _mixture_spec(n, count):
    """An equal-weight Pauli mixture over the first `count` labels."""
    return {"n": n, "kind": "pauli_mixture",
            "weights": {str(a): 1 / count for a in all_labels(n)[:count]}}


def _protocol_channel(kind, n):
    if kind == "depolarizing":
        return channel_factory({"n": n, "kind": "depolarizing", "p": 0.3})
    if kind == "amplitude_damping":
        return channel_factory({"n": n, "kind": "amplitude_damping", "gamma": 0.3})
    return channel_factory({"n": n, "kind": "pauli_mixture", "weights": {
        "I" * n: 0.85, "X" + "I" * (n - 1): 0.07, "Z" * n: 0.05, "IY" + "I" * (n - 2): 0.03}})


_PROTOCOL_CASES = [(protocol, kind, n) for kind, n in [("depolarizing", 2), ("depolarizing", 4),
                                                       ("depolarizing", 5), ("mixture", 6),
                                                       ("amplitude_damping", 4)]
                   for protocol in ("diag", "offdiag", "triplets")]
_PROTOCOL_CASES += [("diag", "depolarizing", 6), ("offdiag", "depolarizing", 6),
                    ("triplets", "depolarizing", 6)]
# The dense diagonal and off-diagonal readouts above n = 4.
_PROTOCOL_CASES += [(protocol, "amplitude_damping", n) for n in (5, 6)
                    for protocol in ("diag", "offdiag")]


@pytest.mark.parametrize("protocol, kind, n", _PROTOCOL_CASES)
def test_sampled_protocol(benchmark, protocol, kind, n):
    """One sampled protocol at M=2000 on a depolarizing channel (4^n labels)
    or a 4-label Pauli mixture, whose weights every protocol reads, or on an
    amplitude damping channel (2^n Kraus operators), which every protocol
    reads dense.  Each round times 3 calls, after one warm-up round that
    fills the per-n caches, and the row to cite is its min."""
    channel, cfg = _protocol_channel(kind, n), EstimatorConfig(M=2000, seed=n)
    m, n_label = label_from_index(n, 5), label_from_index(n, 9)
    run = {"diag": lambda: estimate_chi_diag(channel, m, cfg),
           "offdiag": lambda: estimate_chi_offdiag(channel, m, n_label, cfg),
           "triplets": lambda: run_triplet_experiments(channel, cfg)}[protocol]
    result = benchmark.pedantic(run, rounds=5, iterations=3, warmup_rounds=1)
    assert (len(result) if protocol == "triplets" else result.M) == 2000


def test_estimate_chi_diag_mixture_cold(benchmark):
    """The diagonal of a 64-label n=4 Pauli mixture at M=2000, the survival
    workload's estimate-diag, with the per-n caches cleared before each round."""
    channel, cfg = channel_factory(_mixture_spec(4, 64)), EstimatorConfig(M=2000, seed=4)
    m = label_from_index(4, 27)
    est = benchmark.pedantic(estimate_chi_diag, args=(channel, m, cfg),
                             setup=_cold_design_caches, rounds=50, iterations=1)
    assert est.M == 2000


@pytest.mark.parametrize("protocol", ["diag", "offdiag"])
def test_sampled_protocol_many_experiments(benchmark, protocol):
    """One estimate at n=1, M=1e5, the shape of the acceptance suite's
    5-sigma check: Philox draws, the state table and the outcome draw are
    the cost, the channel's readout is negligible."""
    depol = channel_factory({"n": 1, "kind": "depolarizing", "p": 0.2})
    rot = channel_factory({"n": 1, "kind": "unitary", "generator": "X", "theta": np.pi / 2})
    z, ident, x = (PauliLabel.from_string(s) for s in "ZIX")
    cfg = EstimatorConfig(M=100_000, seed=3)
    run = {"diag": lambda: estimate_chi_diag(depol, z, cfg),
           "offdiag": lambda: estimate_chi_offdiag(rot, ident, x, cfg)}[protocol]
    assert benchmark(run).M == 100_000


def test_pauli_matrix_all_labels(benchmark):
    """All 256 dense Pauli matrices of n=4."""
    labels = all_labels(4)
    mats = benchmark(lambda: [pauli_matrix(a) for a in labels])
    assert len(mats) == 256


def test_channel_factory_mixture(benchmark):
    """A 64-label Pauli mixture at n=4, held as its labels and weights."""
    channel = benchmark(channel_factory, _mixture_spec(4, 64))
    assert len(channel.labels) == 64


def test_channel_factory_small_mixture(benchmark):
    """A 3-label Pauli mixture at n=3, the size of most hand-written specs."""
    channel = benchmark(channel_factory, _mixture_spec(3, 3))
    assert len(channel.labels) == 3


def test_label_round_trip(benchmark):
    """Every n=4 label through to_string, from_string, label_index and label_from_index."""
    labels = all_labels(4)

    def round_trip():
        return [label_from_index(4, label_index(PauliLabel.from_string(a.to_string())))
                for a in labels]

    assert benchmark(round_trip) == labels


def test_channel_factory_depolarizing_n6(benchmark):
    """A depolarizing channel at n=6: 4096 labels and weights, no operators."""
    channel = benchmark(channel_factory, {"n": 6, "kind": "depolarizing", "p": 0.3})
    assert len(channel.labels) == 4096


def test_pauli_channel_operators_mixture(benchmark):
    """The dense expansion of a 64-label n=4 mixture: 32 fresh channels per
    round, so that a round lasts milliseconds, each freed after its expansion,
    so that the round does not time page faults of 32 live expansions.  30
    rounds of one call each, after one warm-up round; the row to cite is its min."""
    spec = _mixture_spec(4, 64)

    def expand(channels):
        return [channels.pop().operators.shape for _ in range(32)]

    shapes = benchmark.pedantic(expand, rounds=30, iterations=1, warmup_rounds=1,
                                setup=lambda: (([channel_factory(spec) for _ in range(32)],), {}))
    assert shapes == [(64, 16, 16)] * 32


@pytest.mark.parametrize("n", [3, 4])
def test_apply_channel_design_stack(benchmark, n):
    """A depolarizing channel (4^n Kraus operators) on all D(D+1) design projectors."""
    v = design_states(n)
    stack = v[:, :, None] * v[:, None, :].conj()
    channel = channel_factory({"n": n, "kind": "depolarizing", "p": 0.3})
    out = benchmark(apply_channel, channel, stack)
    assert out.shape == stack.shape


@pytest.mark.parametrize("n", [3, 4])
def test_superoperator_depolarizing(benchmark, n):
    """The D^2 x D^2 superoperator of a depolarizing channel (4^n Kraus operators)."""
    channel = channel_factory({"n": n, "kind": "depolarizing", "p": 0.3})
    sop = benchmark(superoperator, channel)
    assert sop.shape == (4**n, 4**n)


@pytest.mark.parametrize("how", ["entries", "full"])
def test_oracle_one_pair(benchmark, how):
    """One chi entry of a 64-label n=4 mixture: exact_chi_entries, or all of exact_chi."""
    channel = channel_factory(_mixture_spec(4, 64))
    m, n_label = label_from_index(4, 5), label_from_index(4, 9)
    if how == "entries":
        value = benchmark(lambda: exact_chi_entries(channel, [(m, n_label)])[0])
    else:
        value = benchmark(lambda: exact_chi(channel).entry(m, n_label))
    assert abs(value) < 1e-12


def test_oracle_one_diagonal_fresh_channel(benchmark):
    """One diagonal chi entry of a 64-label n=4 mixture built fresh each
    round, as estimate-diag reads its oracle column once per channel: no
    round reads a dense expansion that an earlier round cached."""
    spec, m = _mixture_spec(4, 64), label_from_index(4, 27)
    value = benchmark.pedantic(lambda channel: exact_chi_entries(channel, [(m, m)])[0],
                               setup=lambda: ((channel_factory(spec),), {}),
                               rounds=200, iterations=1)
    assert value == 1 / 64


@pytest.mark.parametrize("kind, n", [("depolarizing", 3), ("depolarizing", 4),
                                     ("amplitude_damping", 5)])
def test_exact_chi(benchmark, kind, n):
    """The whole chi of exact_chi, every label's Pauli expansion and the
    chi sum, for 4^n or 2^n Kraus operators expanded before the timing."""
    channel = _protocol_channel(kind, n)
    assert len(channel.operators) == (4**n if kind == "depolarizing" else 2**n)
    chi = benchmark.pedantic(exact_chi, args=(channel,), kwargs={"max_n": 5},
                             rounds=5, iterations=1)
    assert abs(np.trace(chi.mat) - 1) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_report(benchmark, n):
    """The full identity report of verify --verify-level full, for one channel."""
    channel = channel_factory({"n": n, "kind": "depolarizing", "p": 0.3})
    rep = benchmark.pedantic(oracle_report, args=(channel,), kwargs={"samples": 3},
                             rounds=10, iterations=1)
    assert rep.max_residual < 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_ancilla_identity(benchmark, n):
    """The ancilla polarization identity (sigma_x) of one depolarizing pair."""
    channel = channel_factory({"n": n, "kind": "depolarizing", "p": 0.3})
    m, n_label = label_from_index(n, 5), label_from_index(n, 9)
    px = benchmark(exact_ancilla_polarization, channel, m, n_label, "x")
    assert abs(px) < 1e-12
