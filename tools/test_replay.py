"""The same-output replay reproduces its own records and names a difference."""

import json
import subprocess
import sys
from pathlib import Path

import replay

SCRIPT = Path(replay.__file__)


def test_replay_is_reproducible_and_diff_names_a_change(tmp_path, capsys):
    files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in files:  # each run in a fresh process
        subprocess.run([sys.executable, SCRIPT, "--out", path, "--seed", "5", "--small"],
                       check=True, capture_output=True)
    assert files[0].read_bytes() == files[1].read_bytes()
    records = [json.loads(line) for line in files[0].read_text().splitlines()]
    sections = {r["id"].split(":")[0] for r in records}
    assert sections == {"plan", "verify", "exact_chi", "logs"}
    kinds = ("identity", "depolarizing", "pauli_mixture", "unitary", "amplitude_damping",
             "kraus", "compose")
    assert [r["id"] for r in records if r["id"].startswith("exact_chi:")] == [
        *(f"exact_chi:{kind}:{n}" for n in range(1, 5) for kind in kinds),
        "exact_chi:amplitude_damping:5"]
    # the logs section, n = 2 alone when small: a log, then two reports with oracle columns
    assert [r["id"] for r in records if r["id"].startswith("logs:")] == [
        f"logs:{channel}:{command}" for channel in (*(f"{kind}:2" for kind in kinds),
                                                     "amplitude_damping:6")
        for command in ("triplets", "sieve", "diag-from-log")]
    for r in records[-24:]:
        assert r["exit"] == 0 and (r["out_file"] if r["id"].endswith(":triplets") else
                                   "rows[0].oracle_re" in r["stdout_fields"])
    logs = [r for r in records if r.get("out_file")]  # the triplet logs are read
    assert logs and all(r["out_file_blocks"] for r in logs)
    log = next(r for r in logs if len(r["out_file_blocks"]) == 4)  # log-sieve's 2,001 lines
    reports = [bool(r.get("stdout_fields")) for r in records]
    assert any(reports) and not all(reports)  # verify and exact_chi records hold none
    # every other stdout, verify's table among them, is digested line by line
    commands = [r for r in records if "stdout" in r]
    assert all((r["stdout_fields"] is None) == (r["stdout_lines"] is not None) for r in commands)
    table = next(r for r in records if r["id"].startswith("verify:"))
    assert len(table["stdout_lines"]) >= 7
    assert replay.main(["--diff", *map(str, files)]) == 0
    assert capsys.readouterr().out == "0 differing records\n"

    records[3]["stdout"] = "0" * 64
    # a moved oracle value: the stdout digest and one row field's
    moved = next(r for r in records if "rows[0].oracle_re" in (r.get("stdout_fields") or {}))
    moved["stdout"] = "1" * 64
    moved["stdout_fields"]["rows[0].oracle_re"] = "0" * 16
    # a log whose lines 513-1024 moved
    log["out_file"] = "2" * 64
    log["out_file_blocks"][1] = "0" * 16
    # a verify table whose line 7 moved
    table["stdout"] = "3" * 64
    table["stdout_lines"][6] = "0" * 16
    altered = tmp_path / "altered.jsonl"
    altered.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
    assert replay.main(["--diff", str(files[0]), str(altered)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *sorted([f"{records[3]['id']}: stdout differ", f"{records[-1]['id']}: id differ",
                 f"{moved['id']}: stdout, rows[0].oracle_re differ",
                 f"{log['id']}: out_file, out_file lines 513-1024 differ",
                 f"{table['id']}: stdout, stdout line 7 differ"]),
        "5 differing records",
    ]


def test_first_differing_block_names_its_lines():
    text = b"".join(b"%d\n" % i for i in range(1100))
    blocks = replay._line_blocks(text)
    assert len(blocks) == 3 and replay._line_blocks(text.replace(b"\n", b"\r\n")) != blocks
    edited = replay._line_blocks(text.replace(b"\n700\n", b"\n7\n"))
    assert replay._first_block(blocks, edited) == "out_file lines 513-1024"
    assert replay._first_block(blocks, blocks[:2]) == "out_file lines 1025-1536"


def test_first_differing_stdout_line_is_named():
    record = {"id": "verify:3:0", "stdout": "a", "stdout_fields": None,
              "stdout_lines": replay._line_blocks(b"".join(b"row %d\n" % i for i in range(9)), 1)}
    assert len(record["stdout_lines"]) == 9
    moved = {**record, "stdout": "b", "stdout_lines": [*record["stdout_lines"]]}
    moved["stdout_lines"][6] = "0" * 16
    assert replay._differing(record, moved) == ["stdout", "stdout line 7"]
    shorter = {**record, "stdout": "b", "stdout_lines": record["stdout_lines"][:4]}
    assert replay._differing(record, shorter) == ["stdout", "stdout line 5"]
    # a field that a record written before it existed lacks is not compared
    older = {key: value for key, value in record.items() if key != "stdout_lines"}
    assert replay._differing(older, record) == []
    assert replay._differing(older, moved) == ["stdout"]
