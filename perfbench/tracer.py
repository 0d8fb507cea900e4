"""Layer spans recorded from outside the package.

The tracer replaces each public module-level function of the ``chitomo``
layers by a wrapper wherever another module or the package namespace has
bound it, e.g. ``chitomo.estimator.apply_channel`` and
``chitomo.cli.estimate_chi_diag``.  A call from inside the defining module
goes to the original function and counts as that layer's own time.
``chitomo.cli.main`` is wrapped too; it is the root span of every command.

Spans are kept in memory as an aggregate keyed by (parent, function):
calls, total time and self time (time not covered by a child span), so a
sieve with millions of calls stays small.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("pauli", "mub", "channels", "estimator", "oracle", "cli")
ROOT_SPAN = "cli.main"


def _log_bytes(args, result):
    path = args[0] if args else None
    try:
        return {"estimator.log_bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


def _kraus_ops(args, result):
    ops = getattr(args[0], "operators", None) if args else None
    return {"channels.kraus_ops": len(ops)} if ops is not None else {}


# Counters taken at layer boundaries from a call's arguments.
COUNTERS = {
    "channels.apply_channel": _kraus_ops,
    "estimator.write_triplet_log": _log_bytes,
    "estimator.read_triplet_log": _log_bytes,
}


def _public_functions(module) -> dict[str, object]:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            found[name] = obj
    return found


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [key, start, child_time]
        self.edges: dict[tuple, list] = {}  # (parent, key) -> [calls, total, self]
        self.counts: dict[str, float] = {}

    def wrap(self, fn, key: str):
        counter = COUNTERS.get(key)
        clock = self.clock
        stack = self.stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                edge = (parent[0] if parent is not None else None, key)
                agg = edges.get(edge)
                if agg is None:
                    agg = edges[edge] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if counter is not None:
                for name, value in counter(args, result).items():
                    self.counts[name] = self.counts.get(name, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every cross-module binding of each layer's public functions."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"chitomo.{layer}"]
            for name, fn in _public_functions(module).items():
                originals[id(fn)] = (fn, f"{layer}.{name}")
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "chitomo" and not modname.startswith("chitomo."):
                continue
            for name, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                fn, key = entry
                if fn.__module__ == modname and key != ROOT_SPAN:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, key)
                setattr(module, name, wrappers[id(fn)])

    def take(self) -> tuple[dict, dict]:
        """Return and reset (edges, counts) gathered since the last take."""
        edges = {f"{p}>{k}": v for (p, k), v in self.edges.items()}
        counts = dict(self.counts)
        self.edges.clear()
        self.counts.clear()
        return edges, counts
