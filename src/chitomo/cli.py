"""Batch command-line front-end.

Subcommands::

    chitomo estimate-diag    --channel spec.json --m XI --M 10000 --seed 1
    chitomo estimate-offdiag --channel spec.json --m I --n-label X --M 10000
    chitomo triplets         --channel spec.json --M 2000 --seed 1 --out t.log
    chitomo diag-from-log    --log t.log --m II --m XI [--channel spec.json]
    chitomo sieve            --log t.log --threshold 0.08 [--channel spec.json]
    chitomo verify           --n 2 --verify-level full

Reports are JSON on stdout (or --out); triplet logs always need --out.  This
module alone builds them: the config, a row per estimate with its oracle
columns and z-score, and the manifest.
Every run is fully determined by its flags and --seed.  Flags may be
abbreviated where unambiguous (--eps).  An argument-syntax error (an unknown
or missing flag, a refused value such as --M two, --M with --epsilon) exits 2
with argparse's usage text; every other error is one JSON object on stderr
with a stable exit code:

    1 verification failure      4 dense cap exceeded
    2 malformed spec/log/args   5 channel hash mismatch
      or an unwritable --out
      or a closed stdout
    3 invalid Pauli label       6 sieve needs more than one base
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channels import ChannelSpecError, channel_factory, read_channel_spec
from .estimator import (
    Estimate,
    EstimatorConfig,
    SingleBaseError,
    TripletLogError,
    estimate_chi_diag,
    estimate_chi_offdiag,
    estimate_diags_from_triplets,
    read_triplet_log,
    run_triplet_experiments,
    seed_key,
    sieve_large_diagonals,
    write_triplet_log,
)
from .mub import design_bases
from .oracle import (
    ORACLE_QUBIT_CAP,
    design_haar_residual,
    exact_chi_entries,
    oracle_report,
    random_label,
    trace_identity_residual,
)
from .pauli import (
    DENSE_QUBIT_CAP,
    DenseCapError,
    PauliLabel,
    class_generators,
    commutation_columns,
    gf2_apply,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MALFORMED = 2
EXIT_BAD_LABEL = 3
EXIT_DENSE_CAP = 4
EXIT_HASH_MISMATCH = 5
EXIT_SINGLE_BASE = 6


# The error kind and exit code of each library error that reaches main.
_LIBRARY_ERRORS = {ChannelSpecError: ("malformed_input", EXIT_MALFORMED),
                   TripletLogError: ("malformed_input", EXIT_MALFORMED),
                   DenseCapError: ("dense_cap", EXIT_DENSE_CAP),
                   MemoryError: ("out_of_memory", EXIT_DENSE_CAP),
                   SingleBaseError: ("single_base", EXIT_SINGLE_BASE)}


class CliError(Exception):
    def __init__(self, exit_code: int, kind: str, message: str):
        super().__init__(message)
        self.exit_code = exit_code
        self.kind = kind


def _manifest(command: str, channel_hash: str | None, config: dict) -> dict:
    return {
        "command": command,
        "channel_sha256": channel_hash,
        "config": config,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


@contextlib.contextmanager
def _writing(out_path: str | None):
    """Report a failure to write --out, or stdout when no --out is given, as
    a bad_arguments error naming it."""
    try:
        yield
    except OSError as exc:
        if not out_path:
            _silence_stdout()
        target = f"--out {out_path!r}" if out_path else "stdout"
        raise CliError(EXIT_MALFORMED, "bad_arguments",
                       f"cannot write {target}: {exc.strerror or exc}") from exc


def _silence_stdout() -> None:
    """Point a closed stdout's file descriptor at the null device, so the
    flush at interpreter exit has somewhere to put what is still buffered."""
    with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _emit(document: dict, out_path: str | None) -> None:
    text = json.dumps(document, allow_nan=False)
    with _writing(out_path):
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)


def _load_channel(path: str):
    """The channel a spec file builds, and the spec's digest."""
    spec, digest = read_channel_spec(path)
    return channel_factory(spec), digest


def _parse_label(text: str, n: int) -> PauliLabel:
    try:
        label = PauliLabel.from_string(text)
    except ValueError as exc:
        raise CliError(EXIT_BAD_LABEL, "invalid_label", str(exc)) from exc
    if label.n != n:
        raise CliError(EXIT_BAD_LABEL, "invalid_label",
                       f"label {text!r} has {label.n} qubits, expected {n}")
    return label


def _config_from_args(args) -> EstimatorConfig:
    try:
        return EstimatorConfig(M=args.M, epsilon=args.epsilon, seed=args.seed, mode=args.mode)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, "bad_arguments", str(exc)) from exc


def _z_score(diff: float, std_error: float) -> float | None:
    """diff in standard errors; None (JSON null) when an exact estimate
    (std_error 0) misses its oracle, where no finite score exists."""
    if std_error > 0:
        return diff / std_error
    return 0.0 if abs(diff) <= 1e-9 else None


def _report(command: str, config: dict | EstimatorConfig, entries: list, channel,
            channel_hash: str | None, out: str | None, **extra) -> int:
    """Emit one estimating command's report: the config (an EstimatorConfig's
    fields), a row per (protocol, m, n_label, Estimate) entry, then the
    manifest and the extra keys.  The oracle columns are exact chi_mn, real
    for a diagonal row (n_label None), when the channel is given.  The
    z-score is then signed for a real estimate and a magnitude for a complex
    one."""
    if isinstance(config, EstimatorConfig):
        config = {"M": config.M, "epsilon": config.epsilon, "seed": config.seed,
                  "mode": config.mode, "enumerate_design": config.mode == "exact"}
    oracles = [None] * len(entries)
    if channel is not None:
        oracles = exact_chi_entries(
            channel, [(m, m if n_label is None else n_label) for _, m, n_label, _ in entries])
    rows = []
    for (protocol, m, n_label, est), oracle in zip(entries, oracles, strict=True):
        value = complex(est.value)
        row = {"protocol": protocol, "m": str(m),
               "n_label": None if n_label is None else str(n_label),
               "value_re": value.real, "value_im": value.imag, "std_error": est.std_error,
               "M": est.M, "oracle_re": None, "oracle_im": None, "z_score": None}
        if oracle is not None:
            oracle = complex(oracle.real if n_label is None else oracle)
            diff = value - oracle
            row.update(oracle_re=oracle.real, oracle_im=oracle.imag, z_score=_z_score(
                abs(diff) if isinstance(est.value, complex) else diff.real, est.std_error))
        rows.append(row)
    report = {"config": config, "rows": rows,
              "manifest": _manifest(command, channel_hash, config), **extra}
    _emit(report, out)
    return EXIT_OK


def cmd_estimate_diag(args) -> int:
    channel, digest = _load_channel(args.channel)
    m = _parse_label(args.m, channel.n)
    cfg = _config_from_args(args)
    est = estimate_chi_diag(channel, m, cfg)
    return _report("estimate-diag", cfg, [("diag", m, None, est)], channel,
                   digest, args.out)


def cmd_estimate_offdiag(args) -> int:
    channel, digest = _load_channel(args.channel)
    m = _parse_label(args.m, channel.n)
    n_label = _parse_label(args.n_label, channel.n)
    cfg = _config_from_args(args)
    est = estimate_chi_offdiag(channel, m, n_label, cfg)
    return _report("estimate-offdiag", cfg, [("offdiag", m, n_label, est)], channel,
                   digest, args.out)


def cmd_triplets(args) -> int:
    channel, digest = _load_channel(args.channel)
    cfg = _config_from_args(args)
    record = run_triplet_experiments(channel, cfg)
    with _writing(args.out):
        write_triplet_log(args.out, record, args.seed, digest)
    return EXIT_OK


def _load_log_with_optional_channel(args):
    record, meta = read_triplet_log(args.log)
    channel = None
    if args.channel is not None:
        # Only the oracle columns read the channel: at every n the factory
        # builds, the spec is built, its only validation, before its hash is checked.
        spec, digest = read_channel_spec(args.channel)
        if meta["n"] <= DENSE_QUBIT_CAP:
            channel = channel_factory(spec)
        if digest != meta["channel"]:
            raise CliError(EXIT_HASH_MISMATCH, "hash_mismatch",
                           f"log was produced for channel {meta['channel'][:12]}..., "
                           f"spec hashes to {digest[:12]}...")
    return record, meta, channel


def cmd_diag_from_log(args) -> int:
    record, meta, channel = _load_log_with_optional_channel(args)
    labels = [_parse_label(text, meta["n"]) for arg in args.m for text in arg.split(",")]
    values, errors = estimate_diags_from_triplets(record, labels)
    entries = [("triplet_diag", m, None, Estimate(value, error, len(record)))
               for m, value, error in zip(labels, values.tolist(), errors.tolist())]
    return _report("diag-from-log", {"log": args.log, **meta}, entries, channel,
                   meta["channel"], args.out)


def cmd_sieve(args) -> int:
    if not (args.threshold > 0 and np.isfinite(args.threshold)):
        raise CliError(EXIT_MALFORMED, "bad_arguments", "--threshold must be finite and positive")
    record, meta, channel = _load_log_with_optional_channel(args)
    labels, values, errors, stats = sieve_large_diagonals(record, args.threshold)
    entries = [("sieve", PauliLabel.from_packed(record.n, a), None, Estimate(x, e, len(record)))
               for a, x, e in zip(labels.tolist(), values.tolist(), errors.tolist())]
    config = {"log": args.log, "threshold": args.threshold, **meta}
    return _report("sieve", config, entries, channel, meta["channel"], args.out,
                   sieve_stats=stats)


# ---------------------------------------------------------------------------
# Verification suites

def _verify_rows(n: int, level: str, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    d = 2**n
    rows = []

    def add(name: str, residual: float, tol: float):
        rows.append(
            {"check": name, "residual": residual, "tol": tol, "ok": residual <= tol}
        )

    # Each class's generators commute, and the 4^n - 1 non-identity members of
    # all classes are the 4^n - 1 non-identity labels: count what breaks that.
    gens = class_generators(n)
    members = gf2_apply(gens[:, None, :], np.arange(1, d)).ravel()
    violations = np.count_nonzero(gf2_apply(commutation_columns(n)[:, None, :], gens))
    violations += 4**n - 1 - np.count_nonzero(np.bincount(members, minlength=4**n)[1:])
    add("mub classes commute, disjoint, cover", float(violations), 0.0)

    bases = design_bases(n)
    ortho = max(
        float(np.max(np.abs(b.conj().T @ b - np.eye(d)))) for b in bases
    )
    add("within-base orthonormality", ortho, 1e-10)
    unbiased = max(  # every later base against base j in one product
        float(np.max(np.abs(np.abs(bases[j].conj().T @ bases[j + 1:]) ** 2 - 1 / d)))
        for j in range(d)
    )
    add("cross-base unbiasedness", unbiased, 1e-10)

    add("design average matches Haar closed form", design_haar_residual(n, rng, 5), 1e-9)

    if level == "full":
        suite = {
            "depolarizing": {"n": n, "kind": "depolarizing", "p": 0.3},
            "rotation": {
                "n": n,
                "kind": "unitary",
                "generator": "X" + "I" * (n - 1),
                "theta": 1.0471975511965976,
            },
            "amplitude_damping": {"n": n, "kind": "amplitude_damping", "gamma": 0.25},
        }
        for name, spec in suite.items():
            channel = channel_factory(spec)
            rep = oracle_report(channel, samples=3, seed=seed)
            add(f"{name}: diagonal fidelity identity", rep.fidelity_residual, 1e-9)
            add(f"{name}: off-diagonal identity", rep.offdiag_residual, 1e-9)
            add(f"{name}: ancilla polarization identity", rep.ancilla_residual, 1e-9)
            if n <= 2:
                pairs = None
            else:
                pairs = [
                    (random_label(n, rng), random_label(n, rng)) for _ in range(30)
                ]
            add(
                f"{name}: trace-preservation identity",
                trace_identity_residual(channel, pairs),
                1e-8,
            )
    return rows


def cmd_verify(args) -> int:
    if args.n < 1:
        raise CliError(EXIT_MALFORMED, "bad_arguments", f"--n must be >= 1, got {args.n}")
    cap, what = ((ORACLE_QUBIT_CAP, "oracle") if args.verify_level == "full"
                 else (DENSE_QUBIT_CAP, "dense-simulation"))
    if args.n > cap:
        raise CliError(EXIT_DENSE_CAP, "dense_cap", f"verify level {args.verify_level!r}: "
                       f"n={args.n} exceeds the {what} cap {cap}")
    try:
        key = seed_key(args.seed)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, "bad_arguments",
                       f"--seed must be in [-2**63, 2**63), got {args.seed}") from exc
    rows = _verify_rows(args.n, args.verify_level, key)
    width = max(len(r["check"]) for r in rows)
    failed = [r for r in rows if not r["ok"]]
    with _writing(None):
        for r in rows:
            status = "ok  " if r["ok"] else "FAIL"
            print(f"{status} {r['check']:<{width}} residual {r['residual']:.3e} "
                  f"(tol {r['tol']:.1e})")
        print(f"{len(rows) - len(failed)}/{len(rows)} checks passed "
              f"(n={args.n}, {args.verify_level})", flush=True)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------

# One flag table per subcommand: (help, parser defaults, flags), each flag
# (name, add_argument keywords); "group" names a mutually exclusive group and
# the dest is argparse's (--n-label sets n_label).  build_parser builds
# argparse from it; _parse_exact reads it to parse a well-formed command.
_SAMPLING = (
    ("--M", {"type": int, "group": "size", "help": "number of experiments"}),
    ("--epsilon", {"type": float, "group": "size", "help": "target precision (derives M)"}),
    ("--seed", {"type": int, "default": 0, "help": "campaign seed (default 0)"}),
)
_MODE = ("--mode", {"choices": ("sampled", "exact"), "default": "sampled",
                    "help": "sampled outcomes or exact design enumeration"})
_OUT = ("--out", {"help": "report path (default stdout)"})
_CHANNEL = ("--channel", {"required": True, "help": "channel-spec JSON path"})
_OPTIONAL_CHANNEL = ("--channel", {"help": "optional spec for hash check + oracle columns"})
_M = ("--m", {"required": True, "help": "Pauli label, e.g. XI"})
_LOG = ("--log", {"required": True, "help": "triplet log path"})

_COMMANDS = {
    "estimate-diag": ("estimate one diagonal coefficient", {"func": cmd_estimate_diag}, (
        _CHANNEL, _M, *_SAMPLING, _MODE, _OUT)),
    "estimate-offdiag": ("estimate one off-diagonal coefficient",
                         {"func": cmd_estimate_offdiag}, (
        _CHANNEL, _M, ("--n-label", {"required": True, "help": "second Pauli label, e.g. ZY"}),
        *_SAMPLING, _MODE, _OUT)),
    "triplets": ("run experiments and write a triplet log",
                 {"func": cmd_triplets, "mode": "sampled"}, (
        _CHANNEL, *_SAMPLING, ("--out", {"required": True, "help": "triplet log path"}))),
    "diag-from-log": ("estimate diagonals from a triplet log", {"func": cmd_diag_from_log}, (
        _LOG,
        ("--m", {"required": True, "action": "append",
                 "help": "label (repeatable, comma-separable)"}),
        _OPTIONAL_CHANNEL, _OUT)),
    "sieve": ("find all heavy diagonal coefficients in a log", {"func": cmd_sieve}, (
        _LOG, ("--threshold", {"required": True, "type": float,
                               "help": "report labels whose estimate exceeds it (> 0)"}),
        _OPTIONAL_CHANNEL, _OUT)),
    "verify": ("run the identity verification suites", {"func": cmd_verify}, (
        ("--n", {"required": True, "type": int, "help": "qubit count"}),
        ("--verify-level", {"choices": ("quick", "full"), "default": "quick",
                            "help": "quick: the design checks; full: the oracle identities too"}),
        ("--seed", {"type": int, "default": 0, "help": "seed of sampled checks (default 0)"}))),
}
SUBCOMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chitomo",
        description="Selective chi-matrix estimation over the MUB state design",
    )
    parser.add_argument("--version", action="version", version=f"chitomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        groups = {}
        for flag, opts in flags:
            if (group := opts.get("group")) and group not in groups:
                groups[group] = p.add_mutually_exclusive_group()
            target = groups[group] if group else p
            target.add_argument(flag, **{k: v for k, v in opts.items() if k != "group"})
        p.set_defaults(**defaults)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """argparse's Namespace for a well-formed command, or None.

    Well formed: a subcommand, then exact flag names as ``--flag value`` or
    ``--flag=value``, every value converted and in its choices, every
    required flag given, no two flags of one exclusive group, and no value
    starting with "-" but a plain negative number such as -4 or -.5, which
    argparse reads as a value.  Anything else is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, defaults, flags = _COMMANDS[argv[0]]
    table, values, groups = dict(flags), {}, {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if (opts := table.get(flag)) is None:
            return None
        if not eq and (value := next(tokens, None)) is None:
            return None
        if value.startswith("-"):  # a value only as a plain number: -4, -.5, -0.5
            digits = value[1:].replace(".", "", 1)
            if not (digits.isascii() and digits.isdigit()) or value.endswith("."):
                return None
        try:
            value = opts.get("type", str)(value)
        except ValueError:
            return None
        if value not in opts.get("choices", (value,)):
            return None
        if (group := opts.get("group")) and groups.setdefault(group, flag) != flag:
            return None
        if opts.get("action") == "append":
            values.setdefault(_dest(flag), []).append(value)
        else:
            values[_dest(flag)] = value
    if any(opts.get("required") and _dest(flag) not in values for flag, opts in flags):
        return None
    unset = {_dest(flag): opts.get("default") for flag, opts in flags}
    return argparse.Namespace(**{"command": argv[0], **unset, **defaults, **values})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_exact(argv)
    if args is None:
        # Help, --version, abbreviations and errors: argparse.
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        _print_error(exc.kind, str(exc))
        return exc.exit_code
    except tuple(_LIBRARY_ERRORS) as exc:
        kind, code = next(v for cls, v in _LIBRARY_ERRORS.items() if isinstance(exc, cls))
        _print_error(kind, str(exc))
        return code


def _print_error(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
