"""End-to-end and per-layer metrics computed from the passes of one run.

A pass is one run of a workload's command list in a fresh worker process.
End-to-end times are in reference seconds: a command's measured time scaled
by KERNEL_REF_S over the time the calibration kernel took around it (see
worker.kernel_time), i.e. its time on a core that runs the kernel in
KERNEL_REF_S.  Each command's time is its median over the untraced passes.
The per-layer metrics are raw times from the fastest traced pass, so its
layer times add up to its wall time.
"""

from __future__ import annotations

import json
import math
import statistics

from checks import log_states
from tracer import LAYERS

SUBCOMMANDS = ("estimate-diag", "estimate-offdiag", "triplets", "diag-from-log", "sieve")
# The calibration kernel's time on an unloaded core of the 2-vCPU Xeon
# (Sapphire Rapids, KVM) machine the benchmark was tuned on.
KERNEL_REF_S = 1.5e-3

PROTOCOLS = ("estimate_chi_diag", "estimate_chi_offdiag", "run_triplet_experiments",
             "estimate_diag_from_triplets", "sieve_large_diagonals")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def command_times(plan: dict, passes: list[dict], traced: bool = False) -> list[float]:
    """Each command's median over the untraced (or traced) passes of its
    time at the reference core speed."""
    chosen = [p for p in passes if p["traced"] == traced]
    return [statistics.median(p["commands"][i]["s"] * KERNEL_REF_S / p["commands"][i]["kernel_s"]
                              for p in chosen)
            for i in range(len(plan["commands"]))]


def raw_wall_s(passes: list[dict]) -> float:
    """Median measured wall time of the untraced passes' commands."""
    return statistics.median(p["wall_s"] for p in passes if not p["traced"])


def end_to_end(plan: dict, passes: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics, plus the total time of each subcommand."""
    commands = plan["commands"]
    times = command_times(plan, passes)
    sampled = [i for i, c in enumerate(commands) if c["experiments"] > 0]
    values = {
        "wall_s": sum(times),
        "setup_s": setup_s,
        "experiments_per_s": sum(commands[i]["experiments"] for i in sampled)
        / sum(times[i] for i in sampled),
        "op_p50_s": percentile(times, 0.5),
        "op_p90_s": percentile(times, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    for sub in SUBCOMMANDS:
        if any(c["sub"] == sub for c in commands):
            values[sub.replace("-", "_") + "_s"] = sum(
                t for c, t in zip(commands, times) if c["sub"] == sub)
    return values


def functions(edges: dict) -> dict[str, list]:
    """Per-function [calls, total_s, self_s] from 'parent>function' edges."""
    out: dict[str, list] = {}
    for edge, values in edges.items():
        agg = out.setdefault(edge.split(">", 1)[1], [0, 0.0, 0.0])
        for i in range(3):
            agg[i] += values[i]
    return out


def command_layers(record: dict) -> dict[str, float]:
    """Self time per layer of one traced command.

    The cli layer gets the command's time not covered by any other layer, so
    the layers add up to the command's traced wall time."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, self_s) in functions(record["edges"]).items():
        layers[key.split(".", 1)[0]] += self_s
    layers["cli"] = record["s"] - sum(v for k, v in layers.items() if k != "cli")
    return layers


def _replayed_states(cmd: dict) -> int:
    """Distinct (J, k) the estimator sampled for a sampled estimate-diag or
    estimate-offdiag command, from the estimator's own sampler replayed with
    the command's seed.  The off-diagonal protocol's two campaigns share
    states, so it counts their union."""
    from chitomo import estimator

    argv = cmd["argv"]
    seed = int(argv[argv.index("--seed") + 1])
    tags = ((estimator._TAG_DIAG,) if cmd["sub"] == "estimate-diag"
            else (estimator._TAG_OFFDIAG_X, estimator._TAG_OFFDIAG_Y))
    states = set()
    for tag in tags:
        js, ks = estimator._sample_states(estimator._campaign_rng(seed, tag), cmd["n"], cmd["M"])
        states.update(zip(js.tolist(), ks.tolist()))
    return len(states)


def distinct_states(plan: dict) -> dict[int, int]:
    """Distinct design states per sampled command: counted in the triplet log
    it wrote, or in the estimator's replayed draws."""
    states = {}
    for i, cmd in enumerate(plan["commands"]):
        if cmd["experiments"] == 0:
            continue
        if cmd["sub"] == "triplets":
            try:
                states[i] = log_states(cmd["check"]["path"], cmd["n"], cmd["M"])
            except (OSError, ValueError):
                states[i] = 0
        else:
            states[i] = _replayed_states(cmd)
    return states


def per_layer(plan: dict, passes: list[dict]) -> dict:
    fastest = min((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
    values = _per_layer_pass(plan["commands"], fastest, distinct_states(plan))
    # In reference seconds, so that the machine's speed cancels.
    values["trace.overhead_s"] = (sum(command_times(plan, passes, traced=True))
                                  - sum(command_times(plan, passes)))
    return values


def _per_layer_pass(commands: list, run: dict, states: dict) -> dict:
    funcs: dict[str, list] = {}
    counts: dict[str, float] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for rec in run["commands"]:
        unattributed += rec["s"] - sum(agg[2] for agg in rec["edges"].values())
        for key, agg in functions(rec["edges"]).items():
            tot = funcs.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                tot[i] += agg[i]
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for layer, value in command_layers(rec).items():
            layers[layer] += value

    def calls(key):
        return funcs.get(key, [0])[0]

    def total(*keys):
        return sum(funcs.get(k, [0, 0.0])[1] for k in keys)

    sieve = dict.fromkeys(("total_pairs", "pairs_processed", "candidates"), 0)
    heavy = 0
    for cmd, rec in zip(commands, run["commands"]):
        if cmd["sub"] == "sieve" and rec["exit"] == 0:
            report = json.loads(rec["stdout"])
            for name in sieve:
                sieve[name] += report["sieve_stats"][name]
            heavy += len(report["rows"])
    sampled = [i for i, c in enumerate(commands) if c["experiments"] > 0]
    experiments = sum(commands[i]["experiments"] for i in sampled)
    sampled_s = sum(run["commands"][i]["s"] for i in sampled)
    distinct = sum(states[i] for i in sampled)
    return {
        "channels.apply_channel.calls": calls("channels.apply_channel"),
        "channels.apply_channel.s": total("channels.apply_channel"),
        "channels.modified_channel.s": total("channels.modified_channel_diag",
                                             "channels.modified_channel_offdiag"),
        "channels.channel_factory.s": total("channels.channel_factory"),
        "channels.kraus_ops": counts.get("channels.kraus_ops", 0),
        "mub.design_basis.calls": calls("mub.design_basis"),
        "mub.design_basis.s": total("mub.design_basis"),
        "mub.base_probabilities.calls": calls("mub.base_probabilities"),
        "mub.base_probabilities.s": total("mub.base_probabilities"),
        "pauli.commutation_vector.calls": calls("pauli.commutation_vector"),
        "pauli.commutation_vector.s": total("pauli.commutation_vector"),
        "pauli.solve_label_from_constraints.calls": calls("pauli.solve_label_from_constraints"),
        "pauli.solve_label_from_constraints.s": total("pauli.solve_label_from_constraints"),
        **{f"estimator.sieve.{name}": value for name, value in sieve.items()},
        "estimator.sieve.useful_ratio": heavy / sieve["candidates"] if sieve["candidates"] else 0.0,
        **{f"estimator.{p}.self_s": funcs.get(f"estimator.{p}", [0, 0.0, 0.0])[2]
           for p in PROTOCOLS},
        "estimator.experiments": experiments,
        "estimator.distinct_states": distinct,
        "estimator.s_per_experiment": sampled_s / experiments if experiments else 0.0,
        "estimator.s_per_distinct_state": sampled_s / distinct if distinct else 0.0,
        "estimator.log_io.s": total("estimator.write_triplet_log", "estimator.read_triplet_log"),
        "estimator.log_bytes": counts.get("estimator.log_bytes", 0),
        "oracle.exact_chi.calls": calls("oracle.exact_chi"),
        "oracle.exact_chi.s": total("oracle.exact_chi"),
        "oracle.oracle_report.s": total("oracle.oracle_report"),
        "cli.report_bytes": sum(len(rec["stdout"].encode()) for rec in run["commands"]),
        **{f"{layer}.self_s": value for layer, value in layers.items()},
        "trace.unattributed_s": unattributed,
    }
