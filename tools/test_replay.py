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
    assert sections == {"plan", "verify", "exact_chi"}
    assert any(r.get("out_file") for r in records)  # the triplet logs are read
    assert replay.main(["--diff", *map(str, files)]) == 0
    assert capsys.readouterr().out == "0 differing records\n"

    records[3]["stdout"] = "0" * 64
    altered = tmp_path / "altered.jsonl"
    altered.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
    assert replay.main(["--diff", str(files[0]), str(altered)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *sorted([f"{records[3]['id']}: stdout differ", f"{records[-1]['id']}: id differ"]),
        "2 differing records",
    ]
