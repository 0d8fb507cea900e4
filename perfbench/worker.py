"""Run one pass of a workload's commands in this process, one thread,
through ``chitomo.cli.main``.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json TRACE

Before each command the worker clears the package's function caches, as a
fresh ``chitomo`` process would start with none.  The result file holds
every command's exit code, output and time, the process's peak resident
memory, and with TRACE=1 the span aggregates of each command.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def package_caches() -> list:
    """The package's lru caches, found before any tracer wraps them."""
    return [
        obj
        for name, module in sys.modules.items()
        if name.startswith("chitomo.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def run_command(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and seconds of one command; an uncaught
    exception exits 1 with its traceback, as it would from the shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _kernel_once(a) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(20):
        np.einsum("ij,jk->ik", a, a @ a)
    np.ones(1 << 17, dtype=complex).sum()
    return time.perf_counter() - start


def kernel_time() -> float:
    """Median time of a fixed calibration kernel: interpreter work, small
    complex matrix products and a fresh 2 MiB array, like the commands.
    One untimed run first, so a fresh process is measured warm."""
    a = np.random.default_rng(0).normal(size=(24, 24)) * (1 + 1j)
    _kernel_once(a)
    return statistics.median(_kernel_once(a) for _ in range(3))


def run_pass(cli, commands, caches, tracer) -> dict:
    """Run the commands once; each record carries the mean kernel time
    measured just before and just after the command."""
    records = []
    wall = 0.0
    before = kernel_time()
    for cmd in commands:
        for cache in caches:
            cache.cache_clear()
        code, out, err, elapsed = run_command(cli, cmd["argv"])
        after = kernel_time()
        wall += elapsed
        record = {"exit": code, "stdout": out, "stderr": err, "s": elapsed,
                  "kernel_s": (before + after) / 2}
        before = after
        if tracer is not None:
            record["edges"], record["counts"] = tracer.take()
        records.append(record)
    return {"traced": tracer is not None, "wall_s": wall, "commands": records}


def main() -> int:
    plan_path, result_path, trace = sys.argv[1:4]
    sys.path.insert(0, str(ROOT / "src"))
    import chitomo.cli as cli

    plan = json.loads(Path(plan_path).read_text())
    caches = package_caches()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_pass(cli, plan["commands"], caches, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
