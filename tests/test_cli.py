"""The command-line front-end: reports, logs, exit codes, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chitomo import cli, pauli
from chitomo.channels import (
    channel_factory,
    channel_spec_sha256,
    matrix_to_json,
    read_channel_spec,
)
from chitomo.estimator import TripletRecord, write_triplet_log
from chitomo.oracle import exact_chi
from chitomo.pauli import PauliLabel


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
            assert row["oracle_re"] is None
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


class TestLogsAboveDenseCap:
    """Above the oracle cap a --channel spec is not built, within the dense cap
    (n=6) or beyond it (n=8): only its hash is checked against the log, and
    the report has no oracle columns."""

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
    def test_matching_spec_reports_without_oracle(self, capsys, monkeypatch, tmp_path, log,
                                                  argv):
        n, log, spec_path = log
        argv = [arg.format(rest="I" * (n - 1)) for arg in argv]
        built = []
        monkeypatch.setattr(cli, "channel_factory", lambda spec: built.append(spec))
        code, out, _ = run(capsys, *argv, "--log", log, "--channel", spec_path)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["m"] == "I" * n and rows[0]["value_re"] == 1.0
        assert all(r["oracle_re"] is None and r["z_score"] is None for r in rows)
        other, _ = write_spec(tmp_path, "dep.json", {"n": n, "kind": "depolarizing", "p": 0.1})
        code, _, err = run(capsys, *argv, "--log", log, "--channel", other)
        assert code == 5
        assert json.loads(err)["error"] == "hash_mismatch"
        assert built == []


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


class TestVerify:
    def test_quick_single_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert "4/4 checks passed" in out

    def test_full_two_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--verify-level", "full")
        assert code == 0
        assert "19/19 checks passed" in out
        assert "FAIL" not in out

    def test_full_three_qubit(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--verify-level", "full")
        assert code == 0
        assert "19/19 checks passed" in out
        rows = out.splitlines()[:-1]
        assert len(rows) == 19 and all(line.startswith("ok  ") for line in rows)

    def test_negative_seed_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--verify-level", "full",
                           "--seed", "-1")
        assert code == 0
        assert "19/19 checks passed" in out

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
        code, _, err = run(capsys, "verify", "--n", "7")
        assert code == 4
        assert json.loads(err)["error"] == "dense_cap"
        assert run(capsys, "verify", "--n", "5", "--verify-level", "full")[0] == 4


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
