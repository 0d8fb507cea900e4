"""Independent references and the per-command output checks.

References are computed in the benchmark process, outside the timed
commands: ``exact_chi`` of the channel for n <= 5, the mixture weights of a
Pauli channel at n >= 6 (there chi_aa = w_a and every off-diagonal is 0).

A command fails when its exit code is not the documented one, when its
report is not strict JSON, or when a value is wrong: a sampled estimate more
than 5 standard errors from the reference (for a diagonal, the larger of the
reported error and the one the reference implies), an exact-mode value more than
1e-9 from it, a sieve that reports another set of heavy labels than the
true weights above the threshold, a ``verify`` that prints FAIL, or a
triplet log that does not hold the records it claims.

A failure is an ERROR only when the command stopped with one of the CLI's
documented error codes and its one-line JSON error report, but not the code
the input calls for: the program refused an input it should have taken (or
took the wrong branch of refusal) and said so.  Every other failure is
WRONG: a wrong value, a verify FAIL, a report that is not strict JSON, a
crash (a non-zero exit without the JSON error report, e.g. a traceback), or
a malformed input that was accepted.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SIGMAS = 5.0
EXACT_TOL = 1e-9

ERROR = "error"
WRONG = "wrong"

# Exit codes of chitomo.cli.CliError and the errors main() maps to a code;
# each comes with a JSON error report on stderr.  (Exit 1 is verify's FAIL.)
DOCUMENTED_ERROR_EXITS = {2, 3, 4, 5, 6}


class References:
    """Reference chi entries, heavy-label sets and Kraus counts per channel."""

    def __init__(self, plan: dict):
        from chitomo.channels import channel_factory
        from chitomo.oracle import exact_chi

        self.chi = {}
        self.weights = {}
        self.kraus = {}
        specs = dict(plan["specs"])
        specs.update({k: s["spec"] for k, s in plan["synthetic_logs"].items()})
        for key, spec in specs.items():
            if spec["n"] <= 6:
                self.kraus[key] = len(channel_factory(spec).operators)
            if spec["n"] <= 5:
                self.chi[key] = exact_chi(channel_factory(spec), max_n=5)
            elif spec["kind"] == "pauli_mixture":
                self.weights[key] = spec["weights"]
            else:
                raise ValueError(f"no reference for channel {key!r}")

    def value(self, key: str, m: str, n_label: str | None) -> complex:
        from chitomo.pauli import PauliLabel

        n_label = m if n_label is None else n_label
        if key in self.chi:
            return self.chi[key].entry(PauliLabel.from_string(m),
                                       PauliLabel.from_string(n_label))
        return complex(self.weights[key].get(m, 0.0)) if m == n_label else 0j

    def heavy(self, key: str, threshold: float) -> set[str]:
        from chitomo.pauli import label_from_index

        if key in self.chi:
            chi = self.chi[key]
            diag = np.real(np.diag(chi.mat))
            return {str(label_from_index(chi.n, int(i)))
                    for i in np.nonzero(diag > threshold)[0]}
        return {a for a, w in self.weights[key].items() if w > threshold}


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _check_rows(cmd: dict, rows: list, refs: References, want: list) -> str | None:
    if [[r["m"], r["n_label"]] for r in rows] != want:
        return f"rows {[r['m'] for r in rows]} do not match the requested labels"
    exact = cmd["check"].get("exact", False)
    d = 2**cmd["n"]
    for row in rows:
        ref = refs.value(cmd["channel"], row["m"], row["n_label"])
        est = complex(row["value_re"], row["value_im"])
        sigma = row["std_error"]
        if row["n_label"] is None:
            # Survival or match events have probability (D chi + 1)/(D + 1).
            # A small sample can hold a single outcome, whose std_error is 0.
            p = min(max((d * ref.real + 1) / (d + 1), 0.0), 1.0)
            sigma = max(sigma, (d + 1) / d * math.sqrt(p * (1 - p) / row["M"]))
        tol = EXACT_TOL if exact else SIGMAS * sigma + EXACT_TOL
        if abs(est - ref) > tol:
            return (f"{row['m']}/{row['n_label']}: estimate {est:.6g} is "
                    f"{abs(est - ref):.3g} from reference {ref:.6g} (tol {tol:.3g})")
        if not exact and cmd["M"] is not None and row["M"] != cmd["M"]:
            return f"report M={row['M']}, expected {cmd['M']}"
        if row["oracle_re"] is not None:
            oracle = complex(row["oracle_re"], row["oracle_im"])
            if abs(oracle - ref) > EXACT_TOL:
                return f"{row['m']}: oracle column {oracle} differs from {ref}"
    return None


_LOG_HEADER = re.compile(r"# seqpt-triplets v1 n=(\d+) seed=(-?\d+) M=(\d+) channel=[0-9a-f]{64}$")


def log_states(path: str, n: int, m_count: int) -> int:
    """Distinct (J, k) states in a triplet log; raises ValueError if malformed."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    match = _LOG_HEADER.match(lines[0]) if lines else None
    if not match or int(match.group(1)) != n or int(match.group(3)) != m_count:
        raise ValueError(f"unexpected log header {lines[:1]}")
    if len(lines) != m_count + 1:
        raise ValueError(f"log has {len(lines) - 1} records, header says {m_count}")
    d = 2**n
    states = set()
    for line in lines[1:]:
        j, k, kp = line.split("\t")
        if not 0 <= int(j) <= d or len(k) != n or len(kp) != n or set(k + kp) - {"0", "1"}:
            raise ValueError(f"bad record {line!r}")
        states.add((j, k))
    return len(states)


def _cli_error(stderr: str) -> dict | None:
    """The CLI's JSON error report, if stderr is exactly one."""
    try:
        err = strict_json(stderr)
    except ValueError:
        return None
    return err if isinstance(err, dict) and "error" in err else None


def check_command(cmd: dict, record: dict, refs: References) -> tuple[str, str] | None:
    """None if the command did what it must, else (ERROR|WRONG, reason)."""
    check = cmd["check"]
    if check["kind"] == "verify":
        lines = record["stdout"].splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        if failed:
            return WRONG, f"verify printed {failed[0][:200]}"
    code, expected = record["exit"], cmd["expect_exit"]
    tail = (record["stderr"].strip().splitlines()[-1:] or [""])[0][:200]
    if code != 0 and (code not in DOCUMENTED_ERROR_EXITS or _cli_error(record["stderr"]) is None):
        return WRONG, f"exit {code} without a JSON error report: {tail}"
    if code != expected:
        kind = ERROR if code != 0 else WRONG
        return kind, f"exit {code}, expected {expected}: {tail}"
    if expected != 0:
        return None
    kind = check["kind"]
    if kind == "verify":
        lines = record["stdout"].splitlines()
        if not lines or "checks passed" not in lines[-1]:
            return WRONG, "verify printed no summary"
        return None
    if kind == "log":
        try:
            log_states(check["path"], check["n"], check["M"])
        except (OSError, ValueError) as exc:
            return WRONG, f"triplet log: {exc}"
        return None
    if kind == "exit":
        return None
    try:
        report = strict_json(record["stdout"])
    except ValueError as exc:
        return WRONG, f"report is not strict JSON: {exc}"
    try:
        rows = report["rows"]
        if kind == "sieve":
            found = {r["m"] for r in rows}
            heavy = refs.heavy(cmd["channel"], check["threshold"])
            if found != heavy:
                return WRONG, f"sieve found {sorted(found)}, true heavy labels {sorted(heavy)}"
            reason = _check_rows(cmd, rows, refs, [[r["m"], None] for r in rows])
        elif kind == "rows":
            reason = _check_rows(cmd, rows, refs, check["rows"])
        else:
            raise ValueError(f"unknown check kind {kind!r}")
    except (KeyError, TypeError) as exc:
        return WRONG, f"report lacks a field: {exc!r}"
    return (WRONG, reason) if reason else None
