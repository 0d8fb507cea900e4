"""Round-trip invariants and the command-line contract, checked on
generated inputs."""

import contextlib
import copy
import gc
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chitomo import cli  # noqa: E402
from chitomo.channels import channel_spec_sha256  # noqa: E402
from chitomo.estimator import (  # noqa: E402
    TripletLogError,
    TripletRecord,
    read_triplet_log,
    write_triplet_log,
)
from chitomo.pauli import (  # noqa: E402
    MUB_QUBIT_CAP,
    commutation_vector,
    label_from_index,
    label_index,
    mub_class,
    solve_label_from_constraints,
)


@st.composite
def records(draw):
    n = draw(st.integers(1, MUB_QUBIT_CAP))
    d = 2**n
    m_count = draw(st.integers(1, 40))
    columns = (
        draw(st.lists(st.integers(0, top), min_size=m_count, max_size=m_count))
        for top in (d, d - 1, d - 1)
    )
    return TripletRecord(n, *columns)


@settings(max_examples=30, deadline=None)
@given(record=records(), seed=st.integers(-(2**63), 2**63 - 1))
def test_log_write_read_round_trip(tmp_path_factory, record, seed):
    """The writer's bytes are the record formatted line by line, and the
    reader gives the record back."""
    path = tmp_path_factory.mktemp("logs") / "t.log"
    write_triplet_log(path, record, seed, "ab" * 32)
    n = record.n
    bits = [format(v, f"0{n}b")[::-1] for v in range(2**n)]  # bit 0 first
    lines = [f"{j}\t{bits[k]}\t{bits[kp]}\n"
             for j, k, kp in zip(record.J.tolist(), record.k.tolist(), record.k_prime.tolist())]
    header = f"# seqpt-triplets v1 n={n} seed={seed} M={len(record)} channel={'ab' * 32}\n"
    assert path.read_bytes() == (header + "".join(lines)).encode()
    loaded, meta = read_triplet_log(path)
    assert loaded == record
    assert meta == {"n": record.n, "seed": seed, "M": len(record), "channel": "ab" * 32}
    assert all(col.dtype == np.int64 for col in (loaded.J, loaded.k, loaded.k_prime))


# Bytes that no field of a record line may hold; a lone CR, form feed and
# \x1c were line separators to Python's universal newlines.
_FOREIGN = [b"x", b" ", b"+", b"_", b"\t", b"\r", b"\x0c", b"\x1c", b"\xff", "é".encode()]


@settings(max_examples=40, deadline=None)
@given(record=records(), data=st.data())
def test_corrupted_log_line_named(tmp_path_factory, record, data):
    """Corrupting one record line of a valid log makes the reader name that line."""
    path = tmp_path_factory.mktemp("logs") / "t.log"
    write_triplet_log(path, record, 0, "ab" * 32)
    lines = path.read_bytes().split(b"\n")
    i = data.draw(st.integers(1, len(record)), label="line index")
    line = lines[i]
    how = data.draw(st.sampled_from(["insert", "drop-last", "blank"]), label="corruption")
    if how == "insert":  # anywhere but the end, where a CR would read as CRLF
        at = data.draw(st.integers(0, len(line) - 1), label="position")
        line = line[:at] + data.draw(st.sampled_from(_FOREIGN), label="byte") + line[at:]
    elif how == "drop-last":
        line = line[:-1]
    else:
        line = b""
    lines[i] = line
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(TripletLogError, match=f"^line {i + 1}: "):
        read_triplet_log(path)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, MUB_QUBIT_CAP))
def test_label_index_round_trip(data, n):
    idx = data.draw(st.integers(0, 4**n - 1))
    label = label_from_index(n, idx)
    assert label.n == n
    assert label_index(label) == idx


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, MUB_QUBIT_CAP))
def test_label_recovered_from_two_bases(data, n):
    """Two commutation vectors from distinct bases pin down the label: two cosets meet once."""
    label = label_from_index(n, data.draw(st.integers(0, 4**n - 1)))
    j_a, j_b = data.draw(st.lists(st.integers(0, 2**n), min_size=2, max_size=2, unique=True))
    class_a, class_b = mub_class(n, j_a), mub_class(n, j_b)
    p_a, p_b = commutation_vector(label, class_a), commutation_vector(label, class_b)
    assert solve_label_from_constraints(class_a, p_a, class_b, p_b) == label


# ---------------------------------------------------------------------------
# The command-line contract on mutated inputs

# One valid document of each kind, small enough that every command on it is quick.
_SPECS = [
    {"n": 1, "kind": "identity"},
    {"n": 2, "kind": "depolarizing", "p": 0.2},
    {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.7, "xi": 0.2, "ZZ": 0.1}},
    {"n": 1, "kind": "unitary", "generator": "Y", "theta": 0.7},
    {"n": 1, "kind": "unitary", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
    {"n": 2, "kind": "amplitude_damping", "gamma": 0.25},
    {"n": 1, "kind": "kraus", "operators": [[[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
                                            [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]]]},
    {"n": 1, "kind": "compose", "children": [{"n": 1, "kind": "depolarizing", "p": 0.2},
                                             {"n": 1, "kind": "identity"}]},
]
# Values of another type or range put in place of a spec's value, and raw
# JSON text put there: integers past the float range and past Python's
# integer-string limit, and the constants that strict JSON lacks.
_ODD_VALUES = [None, True, "X", "ı", "", [], {}, -1, 0, 7, 0.5, 1e308, [[1, 0]], {"n": 1}]
_RAW_VALUES = ["1" + "0" * 400, "1" * 5000, "1e400", "NaN", "-Infinity"]
_INSERTED = [b"x", b" ", b"\x00", b"\xff", b"\n", b"\r", b"\t", b"0", b"1", b"9", b"-", b",",
             b"[", b"}", b'"', "ı".encode()]
# Argument values and flags put in, or in place of others: values out of
# range, labels, and the paths of the run's files ({spec}, {log}, {out}) or
# of none.
_VALUES = ["", "-1", "0", "2", "-0.5", ".5", "1e400", "nan", "inf", "9" * 30, "ıI", "X", "XYZ",
           "exact", "full", "{spec}", "{log}", "{out}", "{dir}", "{dir}/missing"]
_FLAGS = ["--M", "--m", "--eps", "--seed", "--mode", "--out", "--channel", "--log", "--n-label",
          "--threshold", "--verify-level"]
_TOKENS = [*_VALUES, *_FLAGS, "-", "--", "--M=3", "--m=Z", "sieve", "verify"]


def _slots(doc):
    """(container, key) of every value inside a JSON document, depth first."""
    if not isinstance(doc, (dict, list)):
        return []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [slot for key, value in items for slot in [(doc, key), *_slots(value)]]


def _mutate_bytes(data, blob: bytes, start: int = 0) -> bytes:
    """blob with one byte at or after start flipped, a few bytes deleted or
    inserted there, or its tail cut."""
    how = data.draw(st.sampled_from(["flip", "delete", "insert", "truncate"]), label="bytes")
    at = data.draw(st.integers(min(start, len(blob) - 1), len(blob) - 1), label="at")
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    if how == "delete":
        return blob[:at] + blob[at + data.draw(st.integers(1, 8)):]
    if how == "insert":
        return blob[:at] + data.draw(st.sampled_from(_INSERTED)) + blob[at:]
    return blob[:at]


def _mutate_spec(data, spec: dict, how: str) -> bytes:
    """The spec's JSON text with one value dropped, replaced by an odd value
    or raw text, or wrapped in a list; or the document nested in compose
    specs; or its bytes mutated."""
    raw, slots = None, _slots(spec)
    if how == "raw":  # raw text goes where a number is
        slots = [(container, key) for container, key in slots
                 if type(container[key]) in (int, float)]
    if how in ("drop", "replace", "raw", "wrap"):
        container, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        if how == "drop":
            del container[key]
        elif how == "replace":
            container[key] = data.draw(st.sampled_from(_ODD_VALUES))
        elif how == "raw":
            container[key], raw = "\0raw", data.draw(st.sampled_from(_RAW_VALUES))
        else:
            container[key] = [container[key]]
    text = json.dumps(spec)
    if raw is not None:
        text = text.replace('"\\u0000raw"', raw)
    if how == "nest":  # as text: json.dumps would run out of recursion first
        depth = data.draw(st.sampled_from([1, 3, 600, 1200]), label="depth")
        outer = '{"n": %d, "kind": "compose", "children": [' % spec["n"]
        text = outer * depth + text + "]}" * depth
    return _mutate_bytes(data, text.encode()) if how == "bytes" else text.encode()


def _mutate_argv(data, argv: list[str], edits: list[str]) -> list[str]:
    """argv with a flag's value replaced, a flag and value appended, or one
    token dropped, repeated, replaced, inserted or swapped; once or twice,
    each edit drawn from edits."""
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        how = data.draw(st.sampled_from(edits), label="argv")
        values = [i for i, token in enumerate(argv[1:], 1) if not token.startswith("--")]
        i = data.draw(st.integers(0, len(argv) - 1), label="token")
        if how == "value" and values:
            argv[data.draw(st.sampled_from(values))] = data.draw(st.sampled_from(_VALUES))
        elif how == "flag":
            argv += [data.draw(st.sampled_from(_FLAGS)), data.draw(st.sampled_from(_VALUES))]
        elif how == "drop" and len(argv) > 1:
            del argv[i]
        elif how == "repeat":
            argv.insert(i, argv[i])
        elif how in ("replace", "insert"):
            argv[i:i + (how == "replace")] = [data.draw(st.sampled_from(_TOKENS))]
        elif how == "swap":
            j = data.draw(st.integers(0, len(argv) - 1), label="other token")
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def _run_cli(argv, cwd):
    """cli.main's exit code and what it wrote, run in cwd, where a mutated
    relative path lands; an argparse error exits through SystemExit, flagged
    by the second value.

    The garbage collector is off for the call: a command runs in its own
    process, but here a collection could run the finalizers of the test
    framework's garbage inside the decoder's deepest frames, where they
    fail for want of stack and print "Exception ignored" on stderr."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    gc.disable()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv), False, out.getvalue(), err.getvalue()
    except SystemExit as exc:
        return exc.code, True, out.getvalue(), err.getvalue()
    finally:
        gc.enable()
        os.chdir(home)


_ARGV_EDITS = {"values": ["value", "flag"],
               "tokens": ["drop", "repeat", "replace", "insert", "swap"]}


@pytest.mark.parametrize("source, how", [
    *(("spec", how) for how in ("drop", "replace", "raw", "wrap", "nest", "bytes")),
    ("log", "header"), ("log", "lines"), ("argv", "values"), ("argv", "tokens")])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_contract_on_mutated_inputs(source, how, data):
    """Valid spec documents, triplet logs and argv, mutated in the way named,
    then run through cli.main: every exit code is documented; an error other
    than argparse's is one JSON line on stderr; a success writes strict JSON,
    a log or the verify table; nothing raises, and no warning is issued."""
    spec = copy.deepcopy(data.draw(st.sampled_from(_SPECS), label="base spec"))
    n = spec["n"]
    m_count = data.draw(st.integers(1, 12), label="M")
    record = TripletRecord(n, *(data.draw(st.lists(st.integers(0, top), min_size=m_count,
                                                   max_size=m_count))
                                for top in (2**n, 2**n - 1, 2**n - 1)))
    label = "X" * n
    commands = {
        "spec": [["estimate-diag", "--channel", "{spec}", "--m", label, "--M", "5"],
                 ["estimate-offdiag", "--channel", "{spec}", "--m", "I" * n, "--n-label", label,
                  "--M", "5"],
                 ["estimate-diag", "--channel", "{spec}", "--m", label, "--mode", "exact"],
                 ["triplets", "--channel", "{spec}", "--M", "5", "--out", "{out}"],
                 ["diag-from-log", "--log", "{log}", "--m", label, "--channel", "{spec}"]],
        "log": [["diag-from-log", "--log", "{log}", "--m", f"{label},{'Z' * n}"],
                ["diag-from-log", "--log", "{log}", "--m", label, "--channel", "{spec}"],
                ["sieve", "--log", "{log}", "--threshold", "0.2"],
                ["sieve", "--log", "{log}", "--threshold", "0.2", "--channel", "{spec}"]],
    }
    commands["argv"] = [*commands["spec"], *commands["log"], ["verify", "--n", "1"]]
    argv = list(data.draw(st.sampled_from(commands[source]), label="command"))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = {"spec": f"{tmp}/spec.json", "log": f"{tmp}/t.log", "out": f"{tmp}/out",
                 "dir": tmp}
        Path(paths["spec"]).write_bytes(json.dumps(spec).encode())
        write_triplet_log(paths["log"], record, 3, channel_spec_sha256(spec))
        if source == "spec":
            Path(paths["spec"]).write_bytes(_mutate_spec(data, spec, how))
        elif source == "log":
            log = Path(paths["log"])
            blob = log.read_bytes()
            start = 0 if how == "header" else blob.index(b"\n") + 1
            log.write_bytes(_mutate_bytes(data, blob, start))
        else:
            argv = _mutate_argv(data, argv, _ARGV_EDITS[how])
        argv = [token.format(**paths) for token in argv]
        code, by_argparse, out, err = _run_cli(argv, tmp)
        assert code in range(7) and "Traceback" not in err
        if by_argparse:
            assert code == 2 and "usage: chitomo" in err
        elif code:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert set(_strict_json(err)) == {"error", "message"}
        else:
            assert err == ""
            args = cli.build_parser().parse_args(argv)
            if args.command == "verify":
                assert out.splitlines()[-1].endswith(f"checks passed (n={args.n}, "
                                                     f"{args.verify_level})")
            elif args.command == "triplets":
                record, meta = read_triplet_log(Path(tmp, args.out))
                assert out == "" and meta["M"] == len(record)
            elif args.out:
                assert out == "" and "rows" in _strict_json(Path(tmp, args.out).read_text())
            else:
                assert out.count("\n") == 1 and "rows" in _strict_json(out)
