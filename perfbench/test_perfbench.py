"""Self-check of the benchmark: every workload once at its smallest size.

Run from the repository root with ``python3 -m pytest perfbench``.  It keeps
the benchmark from rotting: each workload must run, check its outputs, and
print exactly the metrics BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import ERROR, WRONG, check_command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def smoke(workload: str, trace: int):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, lines = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # The only failure allowed is the negative-seed round trip of many-small.
    failed = [line for line in lines if "FAILED" in line]
    assert len(failed) <= 1 and all("negseed.log" in line for line in failed), failed
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = smoke(workload, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    layer_self = [v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1]
    assert all(v >= 0 for v in layer_self)
    # Every command's time is covered by its root span, up to timer overhead.
    assert 0 <= metrics["trace.unattributed_s"] < 0.01 * sum(layer_self)
    assert metrics["channels.apply_channel.calls"] > 0
    if workload == "survival":
        assert metrics["pauli.commutation_vector.calls"] == 0
        # The channel is simulated once per distinct design state, which the
        # benchmark counts by replaying the estimator's draws.
        assert metrics["estimator.distinct_states"] == metrics["channels.apply_channel.calls"]
    if workload == "log-sieve":
        assert metrics["pauli.commutation_vector.calls"] > 0
        assert metrics["estimator.sieve.candidates"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _verdict(expect_exit, exit_code, stdout="", stderr="", kind="exit"):
    cmd = {"expect_exit": expect_exit, "check": {"kind": kind}}
    record = {"exit": exit_code, "stdout": stdout, "stderr": stderr}
    verdict = check_command(cmd, record, refs=None)
    return verdict and verdict[0]


def test_check_command_verdicts():
    error = '{"error": "malformed_input", "message": "bad header"}\n'
    verify_fail = "ok   a residual 0.0 (tol 1e-9)\nFAIL b residual 1.0 (tol 1e-9)\n1/2 checks passed\n"
    # A verify FAIL exits 1 and is a wrong output, not an exit-code error.
    assert _verdict(0, 1, stdout=verify_fail, kind="verify") == WRONG
    assert _verdict(0, 0, stdout="2/2 checks passed (n=2, quick)", kind="verify") is None
    # A crash: non-zero exit with a traceback instead of the JSON error.
    assert _verdict(0, 1, stderr="Traceback (most recent call last):\nValueError: x\n") == WRONG
    assert _verdict(2, 2, stderr="usage: chitomo ...\nerror: bad flag\n") == WRONG
    # A report with NaN is not strict JSON.
    assert _verdict(0, 0, stdout='{"rows": [{"value_re": NaN}]}', kind="rows") == WRONG
    # A malformed input that is accepted.
    assert _verdict(3, 0, stdout='{"rows": []}') == WRONG
    # A documented refusal with its JSON report: right code passes, wrong
    # code is an error that leaves the outputs correct.
    assert _verdict(2, 2, stderr=error) is None
    assert _verdict(0, 2, stderr=error) == ERROR
