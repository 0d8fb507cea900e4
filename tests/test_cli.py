"""The command-line front-end: reports, logs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chitomo import cli, pauli
from chitomo.channels import (
    PauliChannel,
    channel_factory,
    channel_spec_sha256,
    matrix_to_json,
    read_channel_spec,
)
from chitomo.estimator import TripletRecord, write_triplet_log
from chitomo.oracle import exact_chi
from chitomo.pauli import PauliLabel


def L(s):
    return PauliLabel.from_string(s)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path), spec


@pytest.fixture
def specs(tmp_path):
    out = {}
    out["ident2"] = write_spec(tmp_path, "ident2.json", {"n": 2, "kind": "identity"})
    out["dep"] = write_spec(
        tmp_path, "dep.json", {"n": 1, "kind": "depolarizing", "p": 0.2}
    )
    out["rot"] = write_spec(
        tmp_path,
        "rot.json",
        {"n": 1, "kind": "unitary", "generator": "X", "theta": 1.5707963267948966},
    )
    out["mix4"] = write_spec(
        tmp_path,
        "mix4.json",
        {
            "n": 4,
            "kind": "pauli_mixture",
            "weights": {"IIII": 0.6, "XIII": 0.25, "ZZII": 0.15},
        },
    )
    return out


class TestEstimateDiag:
    def test_exact_mode_identity(self, capsys, specs):
        path, _ = specs["ident2"]
        code, out, _ = run(
            capsys, "estimate-diag", "--channel", path, "--m", "II", "--mode", "exact",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert abs(row["value_re"] - 1.0) < 1e-9
        assert row["std_error"] == 0.0
        assert row["z_score"] == 0.0

    def test_sampled_with_oracle_row(self, capsys, specs):
        path, spec = specs["dep"]
        code, out, _ = run(
            capsys, "estimate-diag", "--channel", path, "--m", "Z",
            "--M", "20000", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        row = report["rows"][0]
        assert row["protocol"] == "diag" and row["m"] == "Z"
        assert abs(row["oracle_re"] - 0.05) < 1e-12
        assert abs(row["value_re"] - 0.05) < 5 * row["std_error"]
        assert abs(row["z_score"]) < 5
        assert report["manifest"]["channel_sha256"] == channel_spec_sha256(spec)

    def test_epsilon_derives_m(self, capsys, specs):
        path, _ = specs["dep"]
        code, out, _ = run(
            capsys, "estimate-diag", "--channel", path, "--m", "Z", "--epsilon", "0.1"
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["M"] == 25

    def test_out_flag_writes_file(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "estimate-diag", "--channel", path, "--m", "Z", "--M", "50",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["rows"][0]["m"] == "Z"

    def test_report_is_one_json_line(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        argv = ("estimate-diag", "--channel", path, "--m", "Z", "--M", "50")
        out_path = tmp_path / "report.json"
        _, out, _ = run(capsys, *argv)
        run(capsys, *argv, "--out", str(out_path))
        for text in (out, out_path.read_text()):
            assert text.endswith("}\n") and text.count("\n") == 1
            assert json.loads(text)["rows"] == json.loads(out)["rows"]

    def test_invalid_label_exits_3(self, capsys, specs):
        path, _ = specs["dep"]
        code, _, err = run(
            capsys, "estimate-diag", "--channel", path, "--m", "Q", "--M", "10"
        )
        assert code == 3
        assert json.loads(err)["error"] == "invalid_label"

    def test_malformed_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(
            capsys, "estimate-diag", "--channel", str(bad), "--m", "Z", "--M", "10"
        )
        assert code == 2
        assert json.loads(err)["error"] == "malformed_input"

    def test_dense_cap_exits_4(self, capsys, tmp_path):
        path, _ = write_spec(tmp_path, "big.json", {"n": 7, "kind": "identity"})
        code, _, err = run(
            capsys, "estimate-diag", "--channel", path, "--m", "I" * 7, "--M", "10"
        )
        assert code == 4
        assert json.loads(err)["error"] == "dense_cap"

    def test_labels_are_read_before_the_sampling_flags(self, capsys, specs):
        """estimate-offdiag reads the spec, --m, --n-label, then the sampling
        flags: a bad --n-label exits 3 even beside a refused --M 0."""
        path, _ = specs["dep"]
        code, _, err = run(capsys, "estimate-offdiag", "--channel", path, "--m", "X",
                           "--n-label", "Q", "--M", "0")
        assert code == 3 and json.loads(err)["error"] == "invalid_label"
        code, _, err = run(capsys, "estimate-offdiag", "--channel", path, "--m", "X",
                           "--n-label", "Z", "--M", "0")
        assert code == 2 and json.loads(err)["error"] == "bad_arguments"

    def test_missing_sample_size_exits_2(self, capsys, specs):
        path, _ = specs["dep"]
        code, _, err = run(capsys, "estimate-diag", "--channel", path, "--m", "Z")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["estimate-diag", "--m", "Z", "--M", "100"],
        ["estimate-offdiag", "--m", "Z", "--n-label", "X", "--epsilon", "0.1"],
    ], ids=["diag-M", "offdiag-epsilon"])
    def test_sample_size_with_exact_mode_exits_2(self, capsys, specs, argv):
        """Exact mode takes every design state once: a sample size is refused,
        not ignored."""
        code, out, err = run(capsys, *argv, "--channel", specs["dep"][0], "--mode", "exact")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad_arguments"


class TestEstimateOffdiag:
    def test_exact_mode_identity_pair(self, capsys, specs):
        path, _ = specs["ident2"]
        code, out, _ = run(
            capsys, "estimate-offdiag", "--channel", path, "--m", "II",
            "--n-label", "XI", "--mode", "exact",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert abs(row["value_re"]) < 1e-9 and abs(row["value_im"]) < 1e-9

    def test_rotation_imaginary_part(self, capsys, specs):
        path, _ = specs["rot"]
        code, out, _ = run(
            capsys, "estimate-offdiag", "--channel", path, "--m", "I",
            "--n-label", "X", "--M", "20000", "--seed", "3",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["protocol"] == "offdiag" and row["n_label"] == "X"
        assert abs(row["value_im"] - 0.5) < 5 * row["std_error"]
        assert abs(row["oracle_im"] - 0.5) < 1e-12

    def test_equal_labels_accepted(self, capsys, specs):
        path, _ = specs["dep"]
        code, out, _ = run(
            capsys, "estimate-offdiag", "--channel", path, "--m", "Z",
            "--n-label", "Z", "--M", "20000", "--seed", "5",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert abs(row["value_re"] - 0.05) < 5 * row["std_error"]

    def test_six_qubit_mixture_within_five_sigma(self, capsys, tmp_path):
        weights = {"IIIIII": 0.7, "XIIIII": 0.12, "ZZIIII": 0.1, "IIYIXZ": 0.08}
        path, _ = write_spec(
            tmp_path, "mix6.json", {"n": 6, "kind": "pauli_mixture", "weights": weights}
        )
        for m, n_label, want in (("XIIIII", "XIIIII", 0.12), ("IIIIII", "ZZIIII", 0.0)):
            code, out, _ = run(
                capsys, "estimate-offdiag", "--channel", path, "--m", m,
                "--n-label", n_label, "--M", "2000", "--seed", "4",
            )
            assert code == 0
            row = json.loads(out)["rows"][0]
            assert complex(row["oracle_re"], row["oracle_im"]) == want
            value = complex(row["value_re"], row["value_im"])
            assert 0 < row["std_error"] < 0.05
            assert abs(value - want) < 5 * row["std_error"]


class TestTripletsAndLogs:
    def test_identity_log_preserves_state(self, capsys, specs, tmp_path):
        path, spec = specs["ident2"]
        log = tmp_path / "t.log"
        code, _, _ = run(
            capsys, "triplets", "--channel", path, "--M", "10", "--seed", "1",
            "--out", str(log),
        )
        assert code == 0
        lines = log.read_text().splitlines()
        assert lines[0] == (
            f"# seqpt-triplets v1 n=2 seed=1 M=10 channel={channel_spec_sha256(spec)}"
        )
        assert len(lines) == 11
        for line in lines[1:]:
            _, k, kp = line.split("\t")
            assert k == kp

    @pytest.mark.parametrize("spec", [
        {"kind": "identity", "n": 1},
        {"p": 0.25, "kind": "depolarizing", "n": 1},
        {"weights": {"Z": 0.25, "I": 0.75}, "n": 1, "kind": "pauli_mixture"},
        {"theta": 0.5, "generator": "Y", "n": 1, "kind": "unitary"},
        {"n": 1, "kind": "amplitude_damping", "gamma": 0.5},
        {"n": 1, "kind": "kraus", "operators": [matrix_to_json(np.eye(2))]},
        {"n": 1, "kind": "compose", "children": [{"n": 1, "kind": "identity"},
                                                 {"kind": "depolarizing", "p": 1, "n": 1}]},
    ], ids=lambda spec: spec["kind"])
    def test_spec_hashed_from_its_canonical_bytes(self, capsys, tmp_path, spec):
        """Every command that reads a spec file reports the hash of the spec's
        canonical bytes, whatever the file's key order and spacing."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec, indent=3))
        digest, log = channel_spec_sha256(spec), tmp_path / "t.log"
        assert read_channel_spec(path) == (spec, digest)
        code, out, _ = run(capsys, "estimate-diag", "--channel", str(path), "--m", "X",
                           "--M", "5")
        assert code == 0 and json.loads(out)["manifest"]["channel_sha256"] == digest
        assert run(capsys, "triplets", "--channel", str(path), "--M", "5", "--seed", "3",
                   "--out", str(log))[0] == 0
        header = f"# seqpt-triplets v1 n=1 seed=3 M=5 channel={digest}\n".encode()
        assert log.read_bytes().startswith(header)
        code, out, _ = run(capsys, "diag-from-log", "--log", str(log), "--m", "I",
                           "--channel", str(path))
        assert code == 0 and json.loads(out)["manifest"]["channel_sha256"] == digest

    def test_diag_from_log_with_oracle(self, capsys, specs, tmp_path):
        path, _ = specs["mix4"]
        log = tmp_path / "m.log"
        assert run(
            capsys, "triplets", "--channel", path, "--M", "3000", "--seed", "2",
            "--out", str(log),
        )[0] == 0
        code, out, _ = run(
            capsys, "diag-from-log", "--log", str(log), "--m", "IIII,XIII",
            "--m", "ZZII", "--channel", path,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["m"] for r in rows] == ["IIII", "XIII", "ZZII"]
        for row, weight in zip(rows, (0.6, 0.25, 0.15)):
            assert row["protocol"] == "triplet_diag"
            assert abs(row["oracle_re"] - weight) < 1e-12
            assert abs(row["value_re"] - weight) < 5 * row["std_error"]

    def test_diag_from_log_without_channel_has_no_oracle(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        log = tmp_path / "d.log"
        run(capsys, "triplets", "--channel", path, "--M", "100", "--seed", "3",
            "--out", str(log))
        code, out, _ = run(capsys, "diag-from-log", "--log", str(log), "--m", "Z")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["oracle_re"] is None and row["z_score"] is None

    def test_hash_mismatch_exits_5(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        other, _ = specs["rot"]
        log = tmp_path / "h.log"
        run(capsys, "triplets", "--channel", path, "--M", "50", "--seed", "4",
            "--out", str(log))
        code, _, err = run(
            capsys, "diag-from-log", "--log", str(log), "--m", "Z", "--channel", other
        )
        assert code == 5
        assert json.loads(err)["error"] == "hash_mismatch"

    def test_negative_seed_round_trip(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        log = tmp_path / "neg.log"
        code, _, _ = run(
            capsys, "triplets", "--channel", path, "--M", "200", "--seed", "-3",
            "--out", str(log),
        )
        assert code == 0
        code, out, _ = run(capsys, "diag-from-log", "--log", str(log), "--m", "I,Z")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["seed"] == -3
        assert [r["m"] for r in report["rows"]] == ["I", "Z"]

    def test_truncated_log_exits_2(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        log = tmp_path / "t.log"
        run(capsys, "triplets", "--channel", path, "--M", "50", "--seed", "5",
            "--out", str(log))
        truncated = tmp_path / "trunc.log"
        truncated.write_text("".join(log.read_text().splitlines(True)[:5]))
        code, _, err = run(capsys, "diag-from-log", "--log", str(truncated), "--m", "Z")
        assert code == 2
        assert json.loads(err)["error"] == "malformed_input"


class TestLogsAtAndAboveDenseCap:
    """A --channel spec is built for a log of any n the factory builds, up to
    the dense cap (n=6), before its hash is checked, and the report has
    oracle columns; above the cap (n=8) the spec is not built, only its hash
    is checked against the log, and the report has no oracle columns."""

    @pytest.fixture(params=[6, 8])
    def log(self, request, tmp_path):
        n, d = request.param, 2**request.param
        rng = np.random.default_rng(n)
        spec_path, spec = write_spec(tmp_path, "ident.json", {"n": n, "kind": "identity"})
        ks = rng.integers(0, d, size=300)
        record = TripletRecord(n, rng.integers(0, d + 1, size=300), ks, ks)
        log = tmp_path / "ident.log"
        write_triplet_log(log, record, 0, channel_spec_sha256(spec))
        return n, str(log), spec_path

    @pytest.mark.parametrize(
        "argv",
        [["diag-from-log", "--m", "I{rest},X{rest}"], ["sieve", "--threshold", "0.5"]],
        ids=["diag-from-log", "sieve"],
    )
    def test_matching_spec_reports_oracle_up_to_dense_cap(self, capsys, monkeypatch,
                                                          tmp_path, log, argv):
        n, log, spec_path = log
        argv = [arg.format(rest="I" * (n - 1)) for arg in argv]
        built, factory = [], cli.channel_factory
        monkeypatch.setattr(cli, "channel_factory",
                            lambda spec: built.append(spec["kind"]) or factory(spec))
        code, out, _ = run(capsys, *argv, "--log", log, "--channel", spec_path)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["m"] == "I" * n and rows[0]["value_re"] == 1.0
        if n <= pauli.DENSE_QUBIT_CAP:
            assert [r["oracle_re"] for r in rows] == [1.0, 0.0][:len(rows)]
            assert all(r["z_score"] is not None for r in rows)
        else:
            assert all(r["oracle_re"] is None and r["z_score"] is None for r in rows)
        other, _ = write_spec(tmp_path, "dep.json", {"n": n, "kind": "depolarizing", "p": 0.1})
        code, _, err = run(capsys, *argv, "--log", log, "--channel", other)
        assert code == 5
        assert json.loads(err)["error"] == "hash_mismatch"
        # A malformed spec is refused before its hash where it is built.
        bad, _ = write_spec(tmp_path, "bad.json", {"n": n, "kind": "depolarizing", "p": 2})
        code, _, err = run(capsys, *argv, "--log", log, "--channel", bad)
        assert (code, json.loads(err)["error"]) == (
            (2, "malformed_input") if n <= pauli.DENSE_QUBIT_CAP else (5, "hash_mismatch"))
        assert built == (["identity", "depolarizing", "depolarizing"]
                         if n <= pauli.DENSE_QUBIT_CAP else [])


class TestSieveCommand:
    def test_recovers_mixture_support(self, capsys, specs, tmp_path):
        path, _ = specs["mix4"]
        log = tmp_path / "s.log"
        run(capsys, "triplets", "--channel", path, "--M", "2000", "--seed", "9",
            "--out", str(log))
        code, out, _ = run(
            capsys, "sieve", "--log", str(log), "--threshold", "0.08",
            "--channel", path,
        )
        assert code == 0
        report = json.loads(out)
        assert [r["m"] for r in report["rows"]] == ["IIII", "XIII", "ZZII"]
        values = [r["value_re"] for r in report["rows"]]
        assert values == sorted(values, reverse=True)
        assert report["sieve_stats"]["pairs_processed"] <= 2000 * 2001 // 2

    def test_single_base_log_exits_6(self, capsys, tmp_path):
        log = tmp_path / "single.log"
        log.write_text(
            f"# seqpt-triplets v1 n=1 seed=0 M=2 channel={'0' * 64}\n0\t0\t0\n0\t1\t1\n"
        )
        code, _, err = run(capsys, "sieve", "--log", str(log), "--threshold", "0.5")
        assert code == 6
        assert json.loads(err)["error"] == "single_base"


def _log_with_header(tmp_path, name, n, m_count, body=""):
    log = tmp_path / name
    log.write_text(
        f"# seqpt-triplets v1 n={n} seed=0 M={m_count} channel={'0' * 64}\n{body}"
    )
    return str(log)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "0"],
        ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "-5"],
        ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--epsilon", "0"],
        ["estimate-offdiag", "--channel", "{dep}", "--m", "Z", "--n-label", "X",
         "--epsilon", "2"],
        ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--epsilon", "1e-160"],
        ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "100000000000000000000"],
        ["triplets", "--channel", "{dep}", "--M", str(2**63), "--out", "{out}"],
        ["triplets", "--channel", "{dep}", "--out", "{out}"],
        ["triplets", "--channel", "{dep}", "--M", "0", "--out", "{out}"],
        ["sieve", "--log", "{log}", "--threshold", "0"],
        ["verify", "--n", "0"],
        ["diag-from-log", "--log", "{m0}", "--m", "Z"],
        ["diag-from-log", "--log", "{n13}", "--m", "I" * 13],
        ["diag-from-log", "--log", "{n0}", "--m", "I"],
        ["diag-from-log", "--log", "{huge_n}", "--m", "I"],
        ["sieve", "--log", "{log}", "--threshold", "inf"],
        ["sieve", "--log", "{log}", "--threshold", "1e400"],
    ],
)
def test_bad_arguments_and_logs_exit_2(capsys, specs, tmp_path, argv):
    log = tmp_path / "ok.log"
    run(capsys, "triplets", "--channel", specs["dep"][0], "--M", "20", "--out", str(log))
    paths = {
        "dep": specs["dep"][0],
        "out": str(tmp_path / "new.log"),
        "log": str(log),
        "m0": _log_with_header(tmp_path, "m0.log", 1, 0),
        "n13": _log_with_header(
            tmp_path, "n13.log", 13, 1, "0\t" + "0" * 13 + "\t" + "0" * 13 + "\n"
        ),
        "n0": _log_with_header(tmp_path, "n0.log", 0, 1, "0\t\t\n"),
        "huge_n": _log_with_header(tmp_path, "huge.log", "1" * 5000, 1, "0\t0\t0\n"),
    }
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert json.loads(err)["error"] in ("bad_arguments", "malformed_input")


@pytest.mark.parametrize("out", ["missing/report.out", "."], ids=["missing-dir", "a-dir"])
@pytest.mark.parametrize("argv", [
    ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "50"],
    ["triplets", "--channel", "{dep}", "--M", "50"],
], ids=["estimate-diag", "triplets"])
def test_unwritable_out_exits_2(capsys, specs, tmp_path, argv, out):
    """An --out that cannot be opened for writing is a bad argument named in
    a one-line JSON error, not a traceback."""
    out_path = str(tmp_path / out)
    code, stdout, err = run(capsys, *(a.format(dep=specs["dep"][0]) for a in argv),
                            "--out", out_path)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "bad_arguments" and repr(out_path) in error["message"]
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("size", [["--M", "1000000000000000"], ["--epsilon", "1e-8"]],
                         ids=["M", "epsilon"])
@pytest.mark.parametrize("argv", [
    ["estimate-diag", "--channel", "{dep}", "--m", "Z"],
    ["estimate-offdiag", "--channel", "{dep}", "--m", "Z", "--n-label", "X"],
    ["triplets", "--channel", "{dep}", "--out", "{out}"],
], ids=["estimate-diag", "estimate-offdiag", "triplets"])
def test_sample_size_beyond_memory_exits_4(capsys, specs, tmp_path, argv, size):
    """A sample size below 2**63 whose draws numpy cannot allocate (10^15
    int64 values and more, beyond any address space) exits 4 with one JSON
    line, and triplets writes no log."""
    out = tmp_path / "t.log"
    code, stdout, err = run(capsys, *(a.format(dep=specs["dep"][0], out=out) for a in argv),
                            *size)
    assert code == 4 and stdout == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "out_of_memory"
    assert not out.exists()


class _ClosedStdout:
    """A stdout whose reader has gone: every write fails as a closed pipe's does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


_CLOSED_STDOUT_ERROR = '{"error": "bad_arguments", "message": "cannot write stdout: Broken pipe"}\n'
_STDOUT_COMMANDS = [["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "50"],
                    ["verify", "--n", "1"]]


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=["estimate-diag", "verify"])
def test_closed_stdout_exits_2(capsys, monkeypatch, specs, argv):
    """A report or verify table whose stdout is closed is a bad_arguments
    error on stderr, not a traceback."""
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = cli.main([a.format(dep=specs["dep"][0]) for a in argv])
    assert code == 2 and capsys.readouterr().err == _CLOSED_STDOUT_ERROR


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=["estimate-diag", "verify"])
def test_closed_stdout_pipe_exits_2(specs, argv, unbuffered):
    """A child whose stdout pipe has no reader prints the one-line JSON error
    and nothing else: no traceback, and no "Exception ignored" at exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from chitomo import cli; sys.exit(cli.main())",
             *(a.format(dep=specs["dep"][0]) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2 and proc.stderr == _CLOSED_STDOUT_ERROR


def test_closed_stdout_pipe_in_process_points_at_null(capsys, monkeypatch, specs):
    """In this process, on a stdout that is a real pipe with no reader: the
    report fails to write, and the pipe's descriptor is pointed at the null
    device, so closing the stdout flushes what it still buffers without a
    second error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["estimate-diag", "--channel", specs["dep"][0], "--m", "Z", "--M", "50"])
        null, fd = os.stat(os.devnull), os.fstat(write_end)
        assert (fd.st_dev, fd.st_ino, fd.st_rdev) == (null.st_dev, null.st_ino, null.st_rdev)
    assert code == 2 and capsys.readouterr().err == _CLOSED_STDOUT_ERROR


@pytest.mark.parametrize("second", ["xi", " xi "])
def test_mixture_keys_naming_one_label_exit_2(capsys, tmp_path, second):
    path, _ = write_spec(tmp_path, "dup.json", {
        "n": 2, "kind": "pauli_mixture", "weights": {"II": 0.5, "XI": 0.5, second: 0.5}})
    code, _, err = run(capsys, "estimate-diag", "--channel", path, "--m", "XI", "--M", "10")
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "malformed_input"
    assert f"'XI' and {second!r}" in error["message"]


def test_kraus_spec_incomplete_in_spectral_norm_exits_2(capsys, tmp_path):
    """Each entry of sum A^dag A - I is 9e-7, within 1e-6, but a state's outcome
    mass is off by up to its spectral norm, D times that, so the spec is refused."""
    d, c = 4, 9e-7
    op = np.eye(d) + (np.sqrt(1 + c * d) - 1) / d * np.ones((d, d))  # sqrt(I + c 11^T)
    path, _ = write_spec(tmp_path, "k.json", {"n": 2, "kind": "kraus", "operators": [
        matrix_to_json(op)]})
    out = str(tmp_path / "t.log")
    code, _, err = run(capsys, "triplets", "--channel", path, "--M", "2000", "--seed", "1",
                       "--out", out)
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


def test_compose_past_the_entry_cap_exits_4(capsys, tmp_path, monkeypatch):
    """Three depolarizing children at n = 4 would compose 256**3 operators of
    16 x 16: refused with exit 4 before any child is expanded."""
    def refuse(*args):
        raise AssertionError("a Pauli child expanded into dense operators")

    monkeypatch.setattr(PauliChannel, "operators", property(refuse))
    child = {"n": 4, "kind": "depolarizing", "p": 0.1}
    path, _ = write_spec(tmp_path, "c.json", {"n": 4, "kind": "compose",
                                              "children": [child] * 3})
    code, out, err = run(capsys, "estimate-diag", "--channel", path, "--m", "XIII",
                         "--M", "10")
    assert (code, out, err.count("\n")) == (4, "", 1)
    assert json.loads(err) == {"error": "dense_cap", "message": (
        "compose would build 16777216 Kraus operators of 16x16, more than 16777216 "
        "entries in all")}


def test_compose_of_kraus_children_incomplete_as_a_whole_exits_2(capsys, tmp_path):
    """Each child sqrt(I + c 11^T) passes its own check (deviation 9e-7), but
    their composition is off by 1.8e-6, which the composed set's check refuses."""
    d, c = 4, 2.25e-7
    op = np.eye(d) + (np.sqrt(1 + c * d) - 1) / d * np.ones((d, d))
    child = {"n": 2, "kind": "kraus", "operators": [matrix_to_json(op)]}
    path, _ = write_spec(tmp_path, "k.json", {"n": 2, "kind": "compose",
                                              "children": [child, child]})
    out = str(tmp_path / "t.log")
    code, _, err = run(capsys, "triplets", "--channel", path, "--M", "2000", "--seed", "1",
                       "--out", out)
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "malformed_input"
    assert error["message"].startswith("composed Kraus set not complete (deviation 1.8")


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 1, "kind": "pauli_mixture", "weights": {"I": NaN, "X": 1.0}}',
        '{"n": 1, "kind": "unitary", "generator": "X", "theta": NaN}',
        '{"n": 1, "kind": "kraus", "operators": [[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]]}',
        '{"n": 1, "kind": "unitary", "generator": "X", "theta": Infinity}',
        '{"n": 1, "kind": "unitary", "generator": "Z", "theta": 1e400}',
    ],
    ids=["nan-weight", "nan-theta", "nan-kraus-entry", "infinity-theta", "overflowing-theta"],
)
def test_non_finite_spec_numbers_exit_2(capsys, tmp_path, text):
    """json.load accepts NaN, Infinity and overflowing literals; the CLI must not."""
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, _, err = run(capsys, "estimate-diag", "--channel", str(spec), "--m", "X", "--M", "50")
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize(
    "operators",
    [[np.eye(4)], [np.eye(2) / np.sqrt(2), np.eye(4) / np.sqrt(2)]],
    ids=["wrong-shape", "mixed-shapes"],
)
def test_misshapen_kraus_spec_exits_2(capsys, tmp_path, operators):
    """A kraus spec whose operators are not all D x D is malformed input."""
    spec = {"n": 1, "kind": "kraus", "operators": [matrix_to_json(a) for a in operators]}
    path, _ = write_spec(tmp_path, "k.json", spec)
    code, _, err = run(capsys, "estimate-diag", "--channel", path, "--m", "X", "--M", "50")
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize(
    "spec",
    [
        {"n": True, "kind": "identity"},
        {"n": 1, "kind": "depolarizing", "p": True},
        {"n": 1, "kind": "unitary", "generator": "X", "theta": False},
        {"n": 1, "kind": "amplitude_damping", "gamma": True},
        {"n": 1, "kind": "pauli_mixture", "weights": {"X": True}},
        {"n": 1, "kind": "kraus", "operators": [[[[True, 0], [0, 0]], [[0, 0], [True, False]]]]},
        {"n": 1, "kind": "unitary", "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ],
    ids=["n", "p", "theta", "gamma", "weight", "kraus-entry", "unitary-entry"],
)
def test_boolean_spec_numbers_exit_2(capsys, tmp_path, spec):
    """JSON true and false are not numbers, although Python's bool is an int."""
    path, _ = write_spec(tmp_path, "spec.json", spec)
    code, _, err = run(capsys, "estimate-diag", "--channel", path, "--m", "X", "--M", "50")
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize("generator", [5, None, ["X"]], ids=["number", "null", "list"])
def test_non_string_generator_exits_2(capsys, tmp_path, generator):
    """A unitary generator that is not a string is malformed input: one JSON
    line naming the value, no traceback."""
    path, _ = write_spec(tmp_path, "u.json", {"n": 1, "kind": "unitary",
                                              "generator": generator, "theta": 1.0})
    code, out, err = run(capsys, "estimate-diag", "--channel", path, "--m", "X", "--M", "50")
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "malformed_input"
    assert error["message"] == f"expected a Pauli string, got {generator!r}"


@pytest.mark.parametrize("spec, message", [
    ({"n": 1, "kind": "kraus", "operators": [[]]}, "Kraus operator 0 must be two-dimensional"),
    ({"n": 1, "kind": "compose", "children": [1]}, "channel spec must be a JSON object"),
    ({"n": 1, "kind": "unitary", "matrix": [[[1, 0]]]}, "unitary matrix must be 2x2"),
    ({"n": 2, "kind": "unitary", "generator": "X", "theta": 1.0},
     "generator has wrong qubit count"),
], ids=["kraus-empty-operator", "compose-child-not-object", "unitary-1x1", "generator-qubits"])
def test_malformed_spec_message_exits_2(capsys, tmp_path, spec, message):
    """A spec the factory refuses is malformed input: one JSON line with the
    factory's message, no traceback."""
    path, _ = write_spec(tmp_path, "spec.json", spec)
    argv = ["estimate-diag", "--channel", path, "--m", "X" * spec["n"], "--M", "50"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "malformed_input", "message": message}


_HUGE = 10**400  # past the float range, but within Python's integer-string limit


@pytest.mark.parametrize("spec, message", [
    ({"n": 1, "kind": "unitary", "generator": "X", "theta": _HUGE},
     "unitary generator needs a finite numeric 'theta'"),
    ({"n": 1, "kind": "pauli_mixture", "weights": {"X": _HUGE}}, "weight for 'X' must be >= 0"),
    ({"n": 1, "kind": "kraus", "operators": [[[[_HUGE, 0], [0, 0]], [[0, 0], [1, 0]]]]},
     "Kraus operator 0 is not a nested [re, im] array"),
    ({"n": 1, "kind": "kraus", "operators": [[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]]},
     "Kraus set not complete (deviation nan)"),
    ({"n": 1, "kind": "unitary", "matrix": [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]]},
     "matrix is not unitary (deviation nan)"),
], ids=["theta-integer", "weight-integer", "kraus-integer", "kraus-1e308", "unitary-1e308"])
@pytest.mark.filterwarnings("error")
def test_spec_number_out_of_float_range_exits_2(capsys, tmp_path, spec, message):
    """An integer past the float range is no number, and a float whose square
    overflows fails the completeness check: one JSON line each, with no
    traceback and no overflow warning on stderr."""
    path, _ = write_spec(tmp_path, "spec.json", spec)
    code, out, err = run(capsys, "estimate-diag", "--channel", path, "--m", "X", "--M", "50")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "malformed_input", "message": message}


def _nested_compose(depth):
    """A compose spec nested depth levels deep, as text: json.dumps would run
    out of recursion on it before the reader does."""
    return ('{"n": 1, "kind": "compose", "children": [' * depth + '{"n": 1, "kind": "identity"}'
            + "]}" * depth)


def test_deeply_nested_compose_exits_2(capsys, tmp_path):
    """A compose spec nested 400 to 1,000 deep is malformed input at every
    depth, whichever refuses it first: the decoder's recursion, the hash's,
    or the compose depth cap; one JSON line and no traceback each."""
    path = tmp_path / "deep.json"
    for depth in range(400, 1001, 10):
        path.write_text(_nested_compose(depth))
        code, out, err = run(capsys, "estimate-diag", "--channel", str(path), "--m", "X",
                             "--M", "5")
        assert code == 2 and out == "" and err.count("\n") == 1, depth
        assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize("text", ["[" * 1000 + "]" * 1000,
                                  '{"n": ' + "1" * 5000 + ', "kind": "identity"}'],
                         ids=["array-1000-deep", "n-5000-digits"])
def test_undecodable_spec_exits_2(capsys, tmp_path, text):
    """JSON too deep for the decoder's recursion, or an integer too long for
    Python's integer-string limit, is malformed input."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, out, err = run(capsys, "estimate-diag", "--channel", str(path), "--m", "X", "--M", "5")
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "malformed_input"
    assert error["message"].startswith("channel spec is not valid JSON: ")


@pytest.mark.parametrize("spec, flags, code", [
    ({"n": 4, "kind": "identity"}, ["--m", "ıIII"], 3),
    ({"n": 4, "kind": "identity"}, ["--m", "IIII", "--n-label", "ıIII"], 3),
    ({"n": 4, "kind": "pauli_mixture", "weights": {"IIII": 0.5, "ıXII": 0.5}},
     ["--m", "IIII"], 2),
    ({"n": 4, "kind": "unitary", "generator": "ıXII", "theta": 1.0}, ["--m", "IIII"], 2),
], ids=["m", "n-label", "weight-key", "generator"])
def test_non_ascii_label_letter_refused(capsys, tmp_path, spec, flags, code):
    """str.upper reads the dotless i (U+0131) as I; a label takes the letters
    IXYZ in either ASCII case only, so the dotless i is an invalid label on
    the command line and a malformed spec in a weight key or generator."""
    path, _ = write_spec(tmp_path, "spec.json", spec)
    command = "estimate-offdiag" if "--n-label" in flags else "estimate-diag"
    got, out, err = run(capsys, command, "--channel", path, *flags, "--M", "5")
    assert got == code and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == ("invalid_label" if code == 3 else "malformed_input")
    assert "invalid Pauli character 'ı'" in error["message"]


def test_label_of_another_qubit_count_exits_3(capsys, specs):
    code, out, err = run(capsys, "estimate-diag", "--channel", specs["dep"][0], "--m", "XX",
                         "--M", "50")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "invalid_label",
                               "message": "label 'XX' has 2 qubits, expected 1"}


def test_empty_log_exits_2(capsys, tmp_path):
    log = tmp_path / "empty.log"
    log.write_bytes(b"")
    code, out, err = run(capsys, "diag-from-log", "--log", str(log), "--m", "Z")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "malformed_input", "message": "empty triplet log"}


@pytest.mark.parametrize("target", ["log", "log-header", "spec"])
def test_undecodable_files_exit_2(capsys, specs, tmp_path, target):
    """A 0xFF byte in a log's bit field or header, or in a spec string, is malformed input."""
    if target.startswith("log"):
        log = tmp_path / "t.log"
        run(capsys, "triplets", "--channel", specs["dep"][0], "--M", "20", "--out", str(log))
        data = log.read_bytes()
        if target == "log":
            log.write_bytes(data[:-2] + b"\xff\n")  # the last bit of the last record
        else:
            log.write_bytes(data.replace(b"seed=", b"seed\xff=", 1))
        argv = ["diag-from-log", "--log", str(log), "--m", "Z"]
    else:
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"n": 1, "kind": "unitary", "generator": "X\xff", "theta": 1.0}')
        argv = ["estimate-diag", "--channel", str(spec), "--m", "X", "--M", "50"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


def test_utf8_spec_reads_under_an_ascii_locale(tmp_path):
    """A spec is decoded as UTF-8 whatever the locale's encoding: a non-ASCII
    string in it is read in a process whose locale is C and UTF-8 mode off."""
    spec = tmp_path / "spec.json"
    spec.write_bytes('{"n": 1, "kind": "identity", "note": "é"}'.encode())
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from chitomo import cli; sys.exit(cli.main())",
         "estimate-diag", "--channel", str(spec), "--m", "X", "--M", "50"],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
             "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"][0]["oracle_re"] == 0.0


# One valid call of each subcommand and one with an = form (WELL_FORMED), then
# argv that argparse refuses, helps or answers with its version.
PARSER_CORPUS = [
    ["estimate-diag", "--channel", "c.json", "--m", "XI", "--M", "100", "--seed", "3"],
    ["estimate-offdiag", "--channel", "c.json", "--m", "I", "--n-label", "X",
     "--epsilon", "0.1", "--mode", "exact"],
    ["triplets", "--channel", "c.json", "--M", "50", "--out", "t.log"],
    ["diag-from-log", "--log", "t.log", "--m", "II", "--m", "XI,ZZ", "--channel", "c.json"],
    ["sieve", "--log", "t.log", "--threshold", "0.05"],
    ["verify", "--n", "2", "--verify-level", "full", "--seed", "-4"],
    ["estimate-diag", "--channel", "c.json", "--m=XI", "--M", "10"],
    ["estimate-diag", "--channel", "c.json", "--m", "X", "--eps", "0.1"],
    ["triplets", "--channel", "c.json", "--M", "10", "--epsilon", "0.1", "--out", "t.log"],
    ["sieve", "--log", "t.log"],
    ["verify", "--n", "2", "--bogus"],
    ["verify", "--n", "two"],
    ["estimate", "--m", "X"],
    [],
    ["-h"],
    ["--version"],
    ["estimate-diag", "-h"],
]
PARSER_IDS = ["estimate-diag", "estimate-offdiag", "triplets", "diag-from-log", "sieve",
              "verify", "m-equals", "abbreviated-eps", "m-and-epsilon", "missing-flag",
              "unknown-flag", "bad-int", "unknown-subcommand", "empty", "help", "version",
              "subcommand-help"]
WELL_FORMED = PARSER_CORPUS[:7]


def _parse(parser, argv, capsys):
    try:
        args, code = parser.parse_args(argv), 0
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=PARSER_IDS)
    def test_main_parses_well_formed_argv_without_argparse(self, monkeypatch, capsys, argv):
        """main() builds no parser for a well-formed argv and runs argparse's
        Namespace; for anything else it builds the whole parser exactly once."""
        expected = _parse(cli.build_parser(), argv, capsys)[3]
        built, parsed, ran = [], [], []

        class Stop(Exception):
            """Stops main before it parses with argparse or runs a command."""

        def build_parser(*args, **kwargs):
            built.append((args, kwargs))
            raise Stop

        def run_command(args):
            ran.append(args)
            raise Stop

        parse_exact = cli._parse_exact

        def parse_exact_then_stop(argv):
            args = parse_exact(argv)
            if args is not None:
                parsed.append(dict(vars(args)))
                args.func = run_command
            return args

        monkeypatch.setattr(cli, "build_parser", build_parser)
        monkeypatch.setattr(cli, "_parse_exact", parse_exact_then_stop)
        with pytest.raises(Stop):
            cli.main(argv)
        if argv in WELL_FORMED:
            assert built == [] and parsed == [vars(expected)] and len(ran) == 1
        else:
            assert built == [((), {})] and parsed == ran == []

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=PARSER_IDS)
    def test_main_answers_as_the_whole_parser(self, monkeypatch, capsys, argv):
        """main() ends with the whole parser's exit code, stdout and stderr,
        and hands the command argparse's Namespace, whichever path parses."""
        ran = []

        def run_command(args):
            ran.append(args)
            return cli.EXIT_OK

        for _, defaults, _ in cli._COMMANDS.values():
            monkeypatch.setitem(defaults, "func", run_command)
        code, out, err, args = _parse(cli.build_parser(), argv, capsys)
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err)
        assert ran == ([] if args is None else [args])

    def test_subcommand_names_match_the_full_parser(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert tuple(sub.choices) == cli.SUBCOMMANDS

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_every_flag_prints_help(self, command):
        """Every flag in the command's table has a non-empty help line, and
        the subcommand's parser shows it."""
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        shown = {a.option_strings[0]: a.help for a in sub.choices[command]._actions}
        for flag, opts in cli._COMMANDS[command][2]:
            assert opts.get("help", "").strip() and shown[flag] == opts["help"], flag


# Values drawn for a flag: well formed for its converter or choices (a plain
# negative number included), or odd: refused, read otherwise by argparse, or
# left to it by the fast path.
_WELL_FORMED_VALUES = {
    int: st.integers(-10**6, 10**6).map(str),
    float: st.floats(min_value=0).map(repr) | st.sampled_from(["-.5", "-0.5", "-4", "nan"]),
    str: st.sampled_from(["XI", "c.json", "II,XI", "", "a=b", " x", "-4", "-.5"]),
}
_ODD_VALUES = (st.sampled_from(["-5 ", "-1e3", "-4.", "-.5e1", "-inf", "-", "--", "-h", "--m",
                                "-x", "-٤"])
               | st.sampled_from(["two", "Exact", "", "4.", "0x10", "1_000", " 7"]))


@st.composite
def _argv(draw):
    """An argv drawn from the flag table, and whether it is well formed: a
    valid call, repeats and --M with --epsilon included, given up to two
    defects (an odd value, a dropped flag, an abbreviated, unknown or help
    flag, a stray word, a cut last token or a bad command)."""
    command = draw(st.sampled_from(cli.SUBCOMMANDS))
    flags = cli._COMMANDS[command][2]
    well_formed, pieces, groups = True, [], set()
    for flag, opts in flags:
        if not opts.get("required") and draw(st.booleans()):
            continue
        if opts.get("group") in groups:
            well_formed = False
        groups.add(opts.get("group", flag))
        for _ in range(draw(st.integers(1, 2))):
            values = _WELL_FORMED_VALUES[opts.get("type", str)]
            pieces.append((flag, draw(st.sampled_from(opts["choices"]) if "choices" in opts
                                      else values)))
    abbreviations = [flag[:k] for flag, _ in flags for k in range(3, len(flag))]
    argv_defects = []
    for defect in draw(st.lists(st.sampled_from(["value", "value", "value", "drop", "extra", "argv"]),
                                max_size=2)):
        well_formed = False
        if defect == "extra" or not pieces:
            pieces.append(draw(st.sampled_from([
                (draw(st.sampled_from(abbreviations)), draw(_WELL_FORMED_VALUES[str])),
                ("--bogus", "1"), ("--",), ("-h",), ("--help",), ("--version",), ("stray",)])))
        elif defect == "value":
            flag = draw(st.sampled_from(sorted({piece[0] for piece in pieces})))
            i = draw(st.sampled_from([i for i, piece in enumerate(pieces) if piece[0] == flag]))
            pieces[i] = (flag, draw(_ODD_VALUES))
        elif defect == "drop":
            del pieces[draw(st.integers(0, len(pieces) - 1))]
        else:
            argv_defects.append(draw(st.sampled_from(["cut", "estimate", "-h", "--version"])))
    argv = [command]
    for piece in draw(st.permutations(pieces)):
        if len(piece) == 2 and draw(st.booleans()):
            piece = (f"{piece[0]}={piece[1]}",)
        argv.extend(piece)
    for defect in argv_defects:
        argv = argv[:-1] if defect == "cut" else [defect, *argv[defect == "estimate":]]
    return argv, well_formed


@settings(max_examples=300, deadline=None)
@given(case=_argv())
@example(case=(["verify", "--n", "2", "--verify-level", "fast"], False))
@example(case=(["estimate-diag", "--channel", "c.json", "--m", "-x", "--M", "5"], False))
@example(case=(["estimate-diag", "--channel", "c.json", "--m", "X", "--epsilon", "-1e3"], False))
@example(case=(["sieve", "--log", "t.log", "--threshold", "-.5"], True))
@example(case=(["sieve", "--log", "t.log", "--threshold", "-4."], False))
@example(case=(["verify", "--n", "-4", "--seed", "-5 "], False))
@example(case=(["triplets", "--channel", "c.json", "--M", "5", "--epsilon", "0.1",
                "--out", "t.log"], False))
@example(case=(["estimate-offdiag", "--channel", "", "--m", "I", "--n", "X", "--M=7"], False))
@example(case=(["diag-from-log", "--log", "t.log", "--m", "I", "--m=X", "--"], False))
@example(case=(["verify", "--n"], False))
def test_exact_parse_declines_or_matches_argparse(case):
    """The fast path reads a well-formed argv as argparse does and declines
    whatever argparse refuses, helps with or answers with its version."""
    argv, well_formed = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            expected = None
    got = cli._parse_exact(argv)
    if got is None:
        assert not well_formed
    else:
        assert expected is not None
        # repr compares nan equal to nan, and tells 1 from 1.0 and -0.0 from 0.0
        assert repr(sorted(vars(got).items())) == repr(sorted(vars(expected).items()))


class TestOracleColumns:
    def test_every_command_matches_exact_chi(self, capsys, tmp_path):
        """Oracle columns of all four reporting commands equal entries of exact_chi."""
        spec = {"n": 2, "kind": "compose", "children": [
            {"n": 2, "kind": "pauli_mixture", "weights": {"II": 0.8, "XZ": 0.2}},
            {"n": 2, "kind": "unitary", "generator": "YI", "theta": 0.6}]}
        path, _ = write_spec(tmp_path, "c.json", spec)
        chi = exact_chi(channel_factory(spec))
        log = str(tmp_path / "c.log")
        run(capsys, "triplets", "--channel", path, "--M", "3000", "--seed", "2", "--out", log)
        commands = [
            ["estimate-diag", "--channel", path, "--m", "XZ", "--M", "200"],
            ["estimate-offdiag", "--channel", path, "--m", "II", "--n-label", "YI",
             "--M", "200"],
            ["estimate-offdiag", "--channel", path, "--m", "YI", "--n-label", "XZ",
             "--mode", "exact"],
            ["diag-from-log", "--log", log, "--channel", path, "--m", "II,XZ,YI", "--m", "ZY"],
            ["sieve", "--log", log, "--channel", path, "--threshold", "0.05"],
        ]
        checked = 0
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            rows = json.loads(out)["rows"]
            assert rows
            for row in rows:
                m = PauliLabel.from_string(row["m"])
                n_label = m if row["n_label"] is None else PauliLabel.from_string(row["n_label"])
                want = chi.entry(m, n_label)
                if row["n_label"] is None:
                    want = complex(want.real)
                got = complex(row["oracle_re"], row["oracle_im"])
                assert abs(got - want) < 1e-12, (argv[0], row["m"])
                checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("spec", [
        {"n": 2, "kind": "identity"},
        {"n": 3, "kind": "depolarizing", "p": 0.3},
        {"n": 4, "kind": "pauli_mixture",
         "weights": {"IIII": 0.5, "XIII": 0.2, "ZZII": 0.1, "YXZI": 0.2}},
    ], ids=lambda spec: spec["kind"])
    def test_pauli_commands_expand_no_operator(self, capsys, tmp_path, monkeypatch, spec):
        """Every command on a Pauli spec runs without its dense operators, and
        a diagonal row's oracle is the spec's weight exactly, 0.0 off the map."""
        def refuse(*args):
            raise AssertionError("a Pauli channel expanded into dense operators")

        n, d = spec["n"], 2 ** spec["n"]
        if spec["kind"] == "identity":
            weights = {"I" * n: 1.0}
        elif spec["kind"] == "depolarizing":  # the factory's arithmetic
            weights = {str(a): spec["p"] / d**2 for a in pauli.all_labels(n)}
            weights["I" * n] = 1 - spec["p"] + spec["p"] / d**2
        else:
            weights = spec["weights"]
        monkeypatch.setattr(PauliChannel, "operators", property(refuse))
        path, _ = write_spec(tmp_path, "p.json", spec)
        log = str(tmp_path / "p.log")
        m, n_label, absent = "X" + "I" * (n - 1), "Z" * 2 + "I" * (n - 2), "Y" * n
        commands = [
            ["estimate-diag", "--channel", path, "--m", m, "--M", "300"],
            ["estimate-diag", "--channel", path, "--m", absent, "--mode", "exact"],
            ["estimate-offdiag", "--channel", path, "--m", m, "--n-label", n_label,
             "--M", "300"],
            ["triplets", "--channel", path, "--M", "2000", "--seed", "3", "--out", log],
            ["diag-from-log", "--log", log, "--channel", path, "--m", f"{m},{absent}",
             "--m", "I" * n],
            ["sieve", "--log", log, "--channel", path, "--threshold", "0.02"],
        ]
        diagonal = 0
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)
            for row in json.loads(out)["rows"] if out else []:
                if row["n_label"] is None:
                    assert row["oracle_re"] == weights.get(row["m"], 0.0), (argv[0], row["m"])
                    diagonal += 1
                else:
                    assert row["oracle_re"] == row["oracle_im"] == 0.0
        assert diagonal >= 6


class TestReports:
    def test_every_command_writes_one_report_layout(self, capsys, tmp_path):
        """The four estimating commands report config, rows and manifest in
        that order (the sieve adds sieve_stats); a diagonal row's oracle is
        real, an off-diagonal row's keeps its imaginary part."""
        spec = {"n": 2, "kind": "unitary", "generator": "YX", "theta": 0.7}
        path, _ = write_spec(tmp_path, "u.json", spec)
        log = str(tmp_path / "u.log")
        run(capsys, "triplets", "--channel", path, "--M", "2000", "--seed", "4", "--out", log)
        offdiag = exact_chi(channel_factory(spec)).entry(PauliLabel.from_string("II"),
                                                         PauliLabel.from_string("YX"))
        assert abs(offdiag.imag) > 0.3
        commands = {
            "estimate-diag": ["--channel", path, "--m", "YX", "--M", "200"],
            "estimate-offdiag": ["--channel", path, "--m", "II", "--n-label", "YX",
                                 "--M", "200"],
            "diag-from-log": ["--log", log, "--channel", path, "--m", "II,YX"],
            "sieve": ["--log", log, "--channel", path, "--threshold", "0.05"],
        }
        for command, argv in commands.items():
            code, out, _ = run(capsys, command, *argv)
            assert code == 0
            report = json.loads(out)
            keys = ["config", "rows", "manifest"] + (["sieve_stats"] if command == "sieve" else [])
            assert list(report) == keys, command
            assert report["manifest"]["command"] == command
            assert report["rows"], command
            for row in report["rows"]:
                if row["n_label"] is None:
                    assert row["oracle_im"] == 0.0, command
                else:
                    assert abs(row["oracle_im"] - offdiag.imag) < 1e-12


class TestReportRows:
    """cli._report's rows and scores from label columns, with
    exact_chi_entries patched to return the given oracle values."""

    @staticmethod
    def report(capsys, monkeypatch, protocol, m, n_label, values, errors, sample_count,
               oracles, config=None):
        monkeypatch.setattr(cli, "exact_chi_entries", lambda channel, m, n_label: oracles)
        channel = channel_factory({"n": 1, "kind": "identity"})
        packed = [L(a).packed for a in m]
        n_packed = None if n_label is None else [L(a).packed for a in n_label]
        assert cli._report("estimate-diag", config or {}, protocol, 1, packed, n_packed,
                           np.array(values), np.array(errors), sample_count, channel,
                           None, None) == 0
        return json.loads(capsys.readouterr().out)

    def test_empty(self, capsys, monkeypatch, specs):
        path, _ = specs["dep"]  # an estimate's config echo: the EstimatorConfig's fields
        report = json.loads(run(capsys, "estimate-diag", "--channel", path, "--m", "Z",
                                "--M", "5", "--seed", "-2")[1])
        assert report["config"] == {"M": 5, "epsilon": None, "seed": -2, "mode": "sampled",
                                    "enumerate_design": False}
        assert report["manifest"]["config"] == report["config"]
        report = self.report(capsys, monkeypatch, "diag", [], None, [], [], 0, [], {"seed": 0})
        assert report["config"] == {"seed": 0} and report["rows"] == []

    def test_diag_row_with_oracle(self, capsys, monkeypatch):
        row, = self.report(capsys, monkeypatch, "diag", ["Z"], None, [0.052], [0.002], 1000,
                           [0.05 + 0.3j])["rows"]
        assert row == {"protocol": "diag", "m": "Z", "n_label": None, "value_re": 0.052,
                       "value_im": 0.0, "std_error": 0.002, "M": 1000, "oracle_re": 0.05,
                       "oracle_im": 0.0, "z_score": row["z_score"]}
        assert abs(row["z_score"] - 1.0) < 1e-12

    def test_complex_row_uses_magnitude_z(self, capsys, monkeypatch):
        row, = self.report(capsys, monkeypatch, "offdiag", ["I"], ["X"], [0.1 + 0.2j], [0.05],
                           100, [0.1 + 0.1j])["rows"]
        assert (row["n_label"], row["oracle_re"], row["oracle_im"]) == ("X", 0.1, 0.1)
        assert abs(row["z_score"] - 2.0) < 1e-12

    def test_exact_row_scores_zero(self, capsys, monkeypatch):
        row, = self.report(capsys, monkeypatch, "diag", ["I"], None, [1.0], [0.0], 6,
                           [1.0])["rows"]
        assert row["z_score"] == 0.0

    def test_exact_row_missing_oracle_scores_null(self, capsys, monkeypatch):
        row, = self.report(capsys, monkeypatch, "diag", ["I"], None, [0.5], [0.0], 6,
                           [1.0])["rows"]
        assert row["z_score"] is None  # written as null: the report is strict JSON

    def test_sampled_rows_report_no_zero_error(self, capsys, tmp_path):
        """estimate-diag on the n = 4 identity, --m XIII --M 5: at 7 of seeds
        1-12 no experiment survives and all five values are -1/16.  Their
        error is then the largest spread a diagonal experiment allows,
        (D+1)/(2D), over sqrt(M), and every z-score is finite."""
        path, _ = write_spec(tmp_path, "id4.json", {"n": 4, "kind": "identity"})
        equal = 0
        for seed in range(1, 13):
            code, out, _ = run(capsys, "estimate-diag", "--channel", path, "--m", "XIII",
                               "--M", "5", "--seed", str(seed))
            row, = json.loads(out)["rows"]
            assert code == 0 and row["std_error"] > 0 and row["z_score"] is not None
            if row["value_re"] == -1 / 16:
                equal += 1
                assert row["std_error"] == pytest.approx(17 / 32 / math.sqrt(5))
                assert row["z_score"] == pytest.approx(-1 / 16 / row["std_error"])
        assert equal == 7


class TestVerify:
    def test_quick_single_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert "4/4 checks passed" in out

    def test_full_two_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--verify-level", "full")
        assert code == 0
        assert "16/16 checks passed" in out
        assert "FAIL" not in out

    def test_full_three_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--verify-level", "full")
        assert code == 0
        assert "16/16 checks passed" in out
        rows = out.splitlines()[:-1]
        assert len(rows) == 16 and all(line.startswith("ok  ") for line in rows)

    def test_negative_seed_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--verify-level", "full",
                           "--seed", "-1")
        assert code == 0
        assert "16/16 checks passed" in out

    @pytest.mark.parametrize("fault", ["repeated-class", "anticommuting-generators"])
    def test_faulty_class_table_fails(self, capsys, monkeypatch, fault):
        """The class check reads the class table: a repeated class, or a class
        whose generators anticommute (Z_1 and X_1), fails it alone."""
        table = cli.class_generators(2).copy()
        if fault == "repeated-class":
            table[2] = table[1]
        else:
            table[0, 1] = 1  # X on qubit 0 in place of Z on qubit 1
        for module in (cli, pauli):
            monkeypatch.setattr(module, "class_generators", lambda n: table)
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 1
        assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == ["mub"]

    def test_above_cap_exits_4(self, capsys):
        """Each level names the cap that refuses it."""
        code, _, err = run(capsys, "verify", "--n", "7")
        assert code == 4
        assert json.loads(err) == {"error": "dense_cap", "message":
                                   "verify level 'quick': n=7 exceeds the dense-simulation cap 6"}
        code, _, err = run(capsys, "verify", "--n", "5", "--verify-level", "full")
        assert code == 4
        assert json.loads(err) == {"error": "dense_cap", "message":
                                   "verify level 'full': n=5 exceeds the oracle cap 4"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_checks_the_design_identity_once(self, capsys, n):
        code, out, _ = run(capsys, "verify", "--n", str(n), "--verify-level", "full")
        assert code == 0
        assert f"16/16 checks passed (n={n}, full)" in out
        assert "design identity" not in out
        assert out.count("design average matches Haar closed form") == 1


SEED_ARGV = {
    "estimate-diag": ["estimate-diag", "--channel", "{dep}", "--m", "Z", "--M", "50"],
    "estimate-diag-exact": ["estimate-diag", "--channel", "{dep}", "--m", "Z",
                            "--mode", "exact"],
    "estimate-offdiag": ["estimate-offdiag", "--channel", "{dep}", "--m", "Z",
                         "--n-label", "X", "--M", "50"],
    "triplets": ["triplets", "--channel", "{dep}", "--M", "50", "--out", "{out}"],
    "verify": ["verify", "--n", "1"],
}


@pytest.mark.parametrize("command", sorted(SEED_ARGV))
@pytest.mark.parametrize(
    "seed, code",
    [(-(2**63), 0), (2**63 - 1, 0), (-(2**63) - 1, 2), (2**63, 2), (2**64 - 1, 2)],
)
def test_seed_range(capsys, specs, tmp_path, command, seed, code):
    """--seed is a signed 64-bit integer for every command; outside, exit 2."""
    paths = {"dep": specs["dep"][0], "out": str(tmp_path / "t.log")}
    argv = [arg.format(**paths) for arg in SEED_ARGV[command]]
    got, _, err = run(capsys, *argv, "--seed", str(seed))
    assert got == code
    if code:
        assert json.loads(err)["error"] == "bad_arguments"
        assert not (tmp_path / "t.log").exists()


def strip_timestamp(report_text):
    doc = json.loads(report_text)
    doc.get("manifest", {}).pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, capsys, specs):
        path, _ = specs["dep"]
        argv = ["estimate-diag", "--channel", path, "--m", "X", "--M", "400", "--seed", "6"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == second[0] == 0
        assert strip_timestamp(first[1]) == strip_timestamp(second[1])

    def test_triplet_logs_byte_identical(self, capsys, specs, tmp_path):
        path, _ = specs["dep"]
        logs = []
        for name in ("a.log", "b.log"):
            log = tmp_path / name
            run(capsys, "triplets", "--channel", path, "--M", "200", "--seed", "8",
                "--out", str(log))
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]


def test_no_command_imports_numpy_ma(tmp_path):
    """A fresh process runs every subcommand once without importing numpy.ma,
    which costs milliseconds at first use (np.unique imports it unless asked
    for one of its return_* arrays)."""
    spec, _ = write_spec(tmp_path, "mix.json", {"n": 2, "kind": "pauli_mixture",
                                                "weights": {"II": 0.7, "XI": 0.2, "ZZ": 0.1}})
    log = str(tmp_path / "t.log")
    argvs = [["estimate-diag", "--channel", spec, "--m", "XI", "--M", "200"],
             ["estimate-offdiag", "--channel", spec, "--m", "XI", "--n-label", "ZZ", "--M", "200"],
             ["triplets", "--channel", spec, "--M", "500", "--seed", "1", "--out", log],
             ["diag-from-log", "--log", log, "--m", "XI", "--channel", spec],
             ["sieve", "--log", log, "--threshold", "0.05", "--channel", spec],
             ["verify", "--n", "2", "--verify-level", "full"]]
    assert sorted(argv[0] for argv in argvs) == sorted(cli.SUBCOMMANDS)
    script = ("import contextlib, io, json, sys\n"
              "from chitomo import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
