"""Same-output replay: digests of what the ``chitomo`` commands print, to
compare two trees record by record.

Usage, from the repository root:

    python tools/replay.py --out A.jsonl --seed 11 --seed 12
    python tools/replay.py --diff A.jsonl B.jsonl

Three sections, one JSON line per record:

* ``plan``: every command of the three benchmark plans
  (``perfbench/workloads.py``) at each seed, run in order through
  ``chitomo.cli.main`` in this process with the package caches cleared
  first, as a benchmark worker runs them (``perfbench/worker.py``);
* ``verify``: ``verify --verify-level full`` at n = 1-4, seeds 0 and 12;
* ``exact_chi``: the oracle's chi of one channel of each spec kind at
  n = 1-4, and of the amplitude damping one at n = 5, as a uint64 view.

A command's record holds its argv, exit code and the sha256 of its stdout,
its stderr and the file it writes with ``--out`` (a triplet log), if any.
When stdout is a JSON report, ``stdout_fields`` adds a digest of each
top-level value and of each row field, keyed as ``manifest`` or
``rows[0].oracle_re``; any other stdout (``verify``'s table) gets
``stdout_lines``, a digest of each line; ``out_file_blocks`` adds a digest
of each block of 512 lines of the ``--out`` file.  Report timestamps and
the work directory are masked first.  ``--diff`` names each record and field
that differ, a report's row fields among them, the first differing line of
a non-JSON stdout (``stdout line 7``) and the first differing line range of
an ``--out`` file (``out_file lines 513-1024``), and exits 1 if any do.  A
field that only one of the two records holds, as in a file written before
that field existed, is not compared; the whole-output digests always are.
BLAS runs on one thread, since a product's last bits may depend on the
thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import chitomo.cli as cli  # noqa: E402
from chitomo.channels import channel_factory  # noqa: E402
from chitomo.oracle import exact_chi  # noqa: E402
from worker import package_caches, run_command  # noqa: E402
from workloads import WORKLOADS, _small_specs, build_plan, write_inputs  # noqa: E402

VERIFY_SEEDS = (0, 12)
BLOCK_LINES = 512
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mask(data: bytes, work: str) -> bytes:
    """data with the work directory and report timestamps replaced by fixed
    strings."""
    return _TIMESTAMP.sub(b'"timestamp": "-"', data.replace(work.encode(), b"<work>"))


def _report_fields(stdout: bytes) -> dict[str, str] | None:
    """The first 16 hex digits of the sha256 of each top-level value of a
    JSON report and of each field of its rows; None for any other stdout."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(report, dict):
        return None
    values = [(key, value) for key, value in report.items() if key != "rows"]
    values += [(f"rows[{i}].{field}", value) for i, row in enumerate(report.get("rows", []))
               for field, value in row.items()]
    return {key: _sha256(json.dumps(value, sort_keys=True).encode())[:16]
            for key, value in values}


def _line_blocks(data: bytes, lines_per_block: int = BLOCK_LINES) -> list[str]:
    """The first 16 hex digits of the sha256 of each block of lines_per_block
    lines of data, line ends included."""
    lines = data.splitlines(keepends=True)
    return [_sha256(b"".join(lines[i:i + lines_per_block]))[:16]
            for i in range(0, len(lines), lines_per_block)]


def _first_difference(a: list[str], b: list[str]) -> int:
    """The index of the first entry that differs between a and b, or the
    shorter length if one is a prefix of the other."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _first_block(a: list[str], b: list[str]) -> str:
    """The line range of the first block that differs between a and b."""
    i = _first_difference(a, b)
    return f"out_file lines {i * BLOCK_LINES + 1}-{(i + 1) * BLOCK_LINES}"


def _command_record(record_id: str, argv: list[str], work: str) -> dict:
    for cache in package_caches():
        cache.cache_clear()
    code, out, err, _ = run_command(cli, argv)
    out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout = _mask(out.encode(), work)
    written = _mask(out_file.read_bytes(), work) if out_file and out_file.is_file() else None
    fields = _report_fields(stdout)
    return {
        "id": record_id,
        "argv": [a.replace(work, "<work>") for a in argv],
        "exit": code,
        "stdout": _sha256(stdout),
        "stdout_fields": fields,
        "stdout_lines": _line_blocks(stdout, 1) if fields is None else None,
        "stderr": _sha256(_mask(err.encode(), work)),
        "out_file": None if written is None else _sha256(written),
        "out_file_blocks": None if written is None else _line_blocks(written),
    }


def replay(seeds: list[int], small: bool = False):
    """Yield the records of the plans at each seed, then of the verify and
    exact_chi sections."""
    for seed in seeds:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                plan = build_plan(name, seed, work, small=small)
                write_inputs(plan, work)
                for i, cmd in enumerate(plan["commands"]):
                    yield _command_record(f"plan:{name}:{seed}:{i}", cmd["argv"], str(work))
    with tempfile.TemporaryDirectory() as work:
        for n in range(1, 5):
            for seed in VERIFY_SEEDS:
                argv = ["verify", "--n", str(n), "--verify-level", "full", "--seed", str(seed)]
                yield _command_record(f"verify:{n}:{seed}", argv, work)
    specs = [(kind, n, spec) for n in range(1, 5)
             for kind, spec in _small_specs(random.Random(f"replay:{n}"), n).items()]
    specs.append(("amplitude_damping", 5,
                  _small_specs(random.Random("replay:5"), 5)["amplitude_damping"]))
    for kind, n, spec in specs:
        chi = np.ascontiguousarray(exact_chi(channel_factory(spec), max_n=n).mat)
        yield {"id": f"exact_chi:{kind}:{n}", "sha256": _sha256(chi.view(np.uint64).tobytes())}


def _differing(a: dict, b: dict) -> list[str]:
    """The fields that both records hold and that differ, in name order;
    where both hold report fields, the report's differing fields in report
    order instead, where both hold stdout lines, the first differing line,
    and where both hold --out file blocks, the first differing line range."""
    differ = []
    for f in sorted(a.keys() & b.keys()):
        fa, fb = a[f], b[f]
        if f == "stdout_fields" and fa and fb:
            differ += [key for key in {**fa, **fb} if fa.get(key) != fb.get(key)]
        elif f == "stdout_lines" and fa is not None and fb is not None:
            differ += [f"stdout line {_first_difference(fa, fb) + 1}"] if fa != fb else []
        elif f == "out_file_blocks" and fa and fb:
            differ += [_first_block(fa, fb)] if fa != fb else []
        elif fa != fb:
            differ.append(f)
    return differ


def diff(path_a: Path, path_b: Path) -> dict[str, list[str]]:
    """The fields that differ, by record id; a record that only one file
    holds differs in its id."""
    a, b = ({r["id"]: r for r in map(json.loads, p.read_text().splitlines())}
            for p in (path_a, path_b))
    fields = {rid: ["id"] for rid in a.keys() ^ b.keys()}
    for rid in a.keys() & b.keys():
        if differ := _differing(a[rid], b[rid]):
            fields[rid] = differ
    return dict(sorted(fields.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="replay", description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the records here, one JSON line each")
    mode.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                      help="compare two record files")
    parser.add_argument("--seed", type=int, action="append",
                        help="plan seed (repeatable; default 11 and 12)")
    parser.add_argument("--small", action="store_true", help="the small plans")
    args = parser.parse_args(argv)
    if args.diff:
        differ = diff(*args.diff)
        for rid, fields in differ.items():
            print(f"{rid}: {', '.join(fields)} differ")
        print(f"{len(differ)} differing records")
        return 1 if differ else 0
    with args.out.open("w") as fh:
        for count, record in enumerate(replay(args.seed or [11, 12], args.small), 1):
            fh.write(json.dumps(record) + "\n")
    print(f"{count} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
