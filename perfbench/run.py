"""Benchmark of the chitomo command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload survival --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Each workload (``workloads.py``) is a list of ``chitomo`` commands drawn
from the seed.  The list runs in passes, each pass in a fresh worker process
that calls ``chitomo.cli.main`` for one command after another in one thread
(a closed loop), until the next pass would end after ``--seconds``.  A fresh
process per pass keeps every pass as cold as the first: in one long-lived
process the allocator warms up and later passes run faster than any real
``chitomo`` invocation.  Set-up time is the median of several fresh
processes.  Every command's output is checked against references computed
here (``checks.py``).  Metrics (``metrics.py``) are reported under the names
and units BENCHMARK.json declares.

Times are reported in reference seconds.  On the shared machine this was
tuned on, the speed of a core changed by up to 1.6x, for seconds or for
minutes, as neighbours came and went, and raw timings of the same work
spread by 12-34% (quartile distance over median) across runs.  So the worker
times a fixed calibration kernel before and after every command, and each
command's time is scaled by KERNEL_REF_S over the kernel's time around it:
the time the command would take on a core that runs the kernel in
KERNEL_REF_S.  Over ten seeded runs per workload this cut the spread to
3-7% while raw seconds moved by up to 1.5x.  Each command's time is then
its median over the passes; commands are kept short so that a run repeats
each many times.  Raw seconds are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
fastest traced one (``tracer.py``), with the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  ``failed``
counts commands that failed any check; ``correct`` is false when a command
failed in any way other than refusing an input with a documented error code
and JSON error report (``checks.py``): a wrong value, a verify FAIL, a
report that is not strict JSON, a crash or an accepted malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import ERROR, References, check_command
from metrics import KERNEL_REF_S, LAYERS, command_layers, end_to_end, per_layer, raw_wall_s
from workloads import WORKLOADS, build_plan, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
PROCESS_TIMEOUT_S = 120
# One BLAS thread, so a run uses one core whatever the machine has idle.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _run(args: list) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S, env={**os.environ, **THREAD_ENV})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[1]).name} exceeded {PROCESS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[1]).name} failed:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(spec_paths: list[str]) -> float:
    """Median time, in reference seconds, for a fresh process to import
    chitomo and build the channels."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), *spec_paths]
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, kernel_s = map(float, _run(probe).stdout.split())
        times.append(elapsed * KERNEL_REF_S / kernel_s)
    return statistics.median(times)


def run_passes(plan_path: Path, result_path: Path, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would end after `seconds`; with tracing,
    untraced and traced passes alternate and at least one of each runs."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        begun = time.perf_counter()
        _run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
              "1" if traced else "0"])
        longest = max(longest, time.perf_counter() - begun)
        passes.append(json.loads(result_path.read_text()))
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + longest > seconds:
            break
    return {"passes": passes, "measured_s": time.perf_counter() - start}


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool,
                 scratch: Path) -> dict:
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    plan = build_plan(name, seed, work, small=small)
    write_inputs(plan, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    refs = References(plan)
    setup_s = measure_setup(sorted(str(work / f"{key}.json") for key in plan["specs"]))
    run = run_passes(plan_path, work / "pass.json", seconds, trace)
    passes = run["passes"]

    failures = []
    for one in passes:
        for cmd, rec in zip(plan["commands"], one["commands"]):
            verdict = check_command(cmd, rec, refs)
            if verdict is not None:
                failures.append((*verdict, cmd))
    peak_rss_mb = max(p["peak_rss_mb"] for p in passes if not p["traced"])
    return {
        "name": name,
        "plan": plan,
        "passes": passes,
        "measured_s": run["measured_s"],
        "kraus": refs.kraus,
        "end_to_end": end_to_end(plan, passes, setup_s, peak_rss_mb),
        "per_layer": per_layer(plan, passes) if trace else None,
        "attempted": len(passes) * len(plan["commands"]),
        "failures": failures,
        "correct": all(kind == ERROR for kind, _, _ in failures),
    }


def environment() -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "chitomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Output

def print_report(run: dict, seed: int, env: dict, units: dict, trace: bool) -> None:
    name = run["name"]
    untraced = sum(not p["traced"] for p in run["passes"])
    info = {"workload": name, "seed": seed, **env, "passes": untraced,
            "traced_passes": len(run["passes"]) - untraced,
            "measured_s": round(run["measured_s"], 3)}
    print("info " + json.dumps(info))
    commands = len(run["plan"]["commands"])
    for metric, value in run["end_to_end"].items():
        note = f"reference seconds, median of {untraced} passes"
        if metric.startswith("op_p"):
            note = f"over {commands} commands, each the median of {untraced} passes"
        elif metric == "setup_s":
            note = f"reference seconds, median of {SETUP_REPEATS} fresh processes"
        elif metric == "peak_rss_mb":
            note = "largest over the passes"
        elif metric == "experiments_per_s":
            note = "per reference second"
        print(f"{name:>10} {metric:<22} {value:16.6f} {units.get(metric, 's'):<5} {note}")
    print(f"{name:>10} {'raw_wall_s':<22} {raw_wall_s(run['passes']):16.6f} {'s':<5} "
          "measured, median of the passes")
    failed = len(run["failures"])
    print(f"{name:>10} {'fail_frac':<22} {failed / run['attempted']:16.6f} "
          f"{'':<5} {failed} failed / {run['attempted']} attempted")
    seen = set()
    for kind, reason, cmd in run["failures"]:
        argv = " ".join(Path(a).name if "/" in a else a for a in cmd["argv"])
        if (argv, reason) not in seen:
            seen.add((argv, reason))
            print(f"{name:>10} FAILED ({kind}) chitomo {argv}: {reason}")
    if not trace:
        return
    for metric, value in run["per_layer"].items():
        print(f"{name:>10} {metric:<42} {value:16.6f} {units.get(metric, '')}")
    # Traced time per layer, summed over the traced passes, by subcommand,
    # n, M and Kraus count.
    groups: dict[tuple, list] = {}
    for one in run["passes"]:
        if one["traced"]:
            for cmd, rec in zip(run["plan"]["commands"], one["commands"]):
                key = (cmd["sub"], cmd["n"], str(cmd["M"]), str(run["kraus"].get(cmd["channel"])))
                agg = groups.setdefault(key, [0, 0.0, *[0.0] * len(LAYERS)])
                agg[0] += 1
                agg[1] += rec["s"]
                for i, value in enumerate(command_layers(rec).values()):
                    agg[2 + i] += value
    print(f"{name:>10} {'subcommand':<16} {'n':>2} {'M':>6} {'kraus':>5} {'cmds':>5} "
          f"{'wall_s':>9} " + " ".join(f"{layer + '_s':>11}" for layer in LAYERS))
    for (sub, n, m, kraus), agg in sorted(groups.items()):
        print(f"{name:>10} {sub:<16} {n:>2} {m:>6} {kraus:>5} {agg[0]:>5} {agg[1]:9.4f} "
              + " ".join(f"{v:11.4f}" for v in agg[2:]))


def result_line(runs: list[dict], declared: list[dict], trace: bool) -> dict:
    """The JSON result: the declared metrics, prefixed by workload if several."""
    metrics = {}
    for run in runs:
        values = run["per_layer"] if trace else run["end_to_end"]
        for metric in declared:
            key = metric["name"] if len(runs) == 1 else f"{run['name']}.{metric['name']}"
            metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(len(run["failures"]) for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the chitomo command line.")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the benchmark's self-check")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if not (SRC / "chitomo" / "__init__.py").is_file():
        print(f"perfbench: no chitomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chitomo

    if Path(chitomo.__file__).resolve().parent != (SRC / "chitomo").resolve():
        print(f"perfbench: chitomo was imported from {chitomo.__file__}", file=sys.stderr)
        return 2
    logging.getLogger("chitomo").setLevel(logging.ERROR)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch_root = ROOT / ".perfbench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        env = environment()
        runs = []
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.smoke, scratch)
            print_report(run, args.seed, env, units, bool(args.trace))
            runs.append(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result_line(runs, declared, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
