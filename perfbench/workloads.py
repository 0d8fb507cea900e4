"""Command plans for the three benchmark workloads.

A plan is plain JSON data: the channel specs and synthetic triplet logs a
workload needs, and the list of ``chitomo`` commands it runs, each with the
exit code it must return and what its output is checked against.  Every
parameter that varies (command seeds, labels, channel parameters of the
small channels, synthetic logs) is drawn from one ``random.Random`` seeded
with the workload name and the workload seed, so a seed fixes the inputs.

Why each workload exists:

* ``survival``: per-coefficient protocols on dense many-Kraus channels with
  M far above D(D+1), so every design state is simulated; the channel layer
  does the work and the Pauli layer's symplectic routines are idle.
* ``log-sieve``: one shared triplet record and the sieve; record-making
  loads the channel and MUB layers, the sieve loads the Pauli layer
  (commutation vectors, GF(2) solves) and triplet-log I/O.
* ``many-small``: about 160 short commands at n=1..3 plus two quick looks
  at n=6, so fixed per-command costs (argument parsing, spec load, oracle
  columns, JSON output, cold caches) dominate.

Sizes keep every command under about a second, so that a run of half a
minute repeats each command many times (see run.py for why that matters).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("survival", "log-sieve", "many-small")

SIEVE_THRESHOLD = 0.05
# Low enough that the lightest label (0.08) of the log-sieve channel sits
# 7 standard errors above it at M=2000, n=5.
LOG_SIEVE_THRESHOLD = 0.03



def mixture_weights(n: int) -> dict[str, float]:
    """The sparse Pauli channel of the log-sieve workload on n >= 3 qubits:
    IIIIII 0.7, XIIIII 0.12, ZZIIII 0.1, IIYIXZ 0.08 at n=6, padded with
    identities above and with IYX as the lightest label below."""
    labels = ("", "X", "ZZ", "IIYIXZ" if n >= 6 else "IYX")
    return {a + "I" * (n - len(a)): w for a, w in zip(labels, (0.7, 0.12, 0.1, 0.08))}


def fidelity_m(epsilon: float) -> int:
    """M derived from --epsilon for the diagonal protocols (documented rule)."""
    return math.ceil(epsilon**-2 / 4)


def offdiag_m(epsilon: float) -> int:
    """M per campaign derived from --epsilon for the off-diagonal protocol."""
    return math.ceil(epsilon**-2)


def random_label(rng: random.Random, n: int, non_identity: bool = False) -> str:
    while True:
        label = "".join(rng.choice("IXYZ") for _ in range(n))
        if not non_identity or label != "I" * n:
            return label


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _matrix_json(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


class Planner:
    """Collects specs, input files and commands for one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.plan = {
            "workload": name,
            "seed": seed,
            "specs": {},
            "synthetic_logs": {},
            "raw_files": {},
            "commands": [],
        }

    def spec(self, key: str, spec: dict) -> None:
        self.plan["specs"][key] = spec

    def log_path(self, key: str) -> str:
        return str(self.work / f"{key}.log")

    def synthetic_log(self, key: str, n: int, m_count: int, weights: dict,
                      single_base: int | None = None) -> str:
        self.plan["synthetic_logs"][key] = {
            "n": n,
            "M": m_count,
            "seed": _seed(self.rng),
            "single_base": single_base,
            "spec": {"n": n, "kind": "pauli_mixture", "weights": weights},
        }
        return self.log_path(key)

    def raw_file(self, key: str, text: str) -> str:
        self.plan["raw_files"][key] = text
        return str(self.work / key)

    def add(self, argv: list, *, n: int, channel: str | None = None,
            M: int | None = None, experiments: int = 0, expect_exit: int = 0,
            check: dict | None = None) -> None:
        self.plan["commands"].append({
            "argv": [str(a) for a in argv],
            "sub": argv[0],
            "n": n,
            "M": M,
            "channel": channel,
            "experiments": experiments,
            "expect_exit": expect_exit,
            "check": check or {"kind": "exit"},
        })

    # -- command helpers ---------------------------------------------------

    def estimate_diag(self, key: str, n: int, label: str, *, M=None,
                      epsilon=None, exact=False) -> None:
        argv = ["estimate-diag", "--channel", self.work / f"{key}.json",
                "--m", label, "--seed", _seed(self.rng)]
        if exact:
            argv += ["--mode", "exact"]
            m_count = None
        elif epsilon is not None:
            argv += ["--epsilon", epsilon]
            m_count = fidelity_m(epsilon)
        else:
            argv += ["--M", M]
            m_count = M
        self.add(argv, n=n, channel=key, M=m_count, experiments=m_count or 0,
                 check={"kind": "rows", "rows": [[label, None]], "exact": exact})

    def estimate_offdiag(self, key: str, n: int, m: str, n_label: str, *,
                         M=None, epsilon=None, exact=False) -> None:
        argv = ["estimate-offdiag", "--channel", self.work / f"{key}.json",
                "--m", m, "--n-label", n_label, "--seed", _seed(self.rng)]
        if exact:
            argv += ["--mode", "exact"]
            m_count = None
        elif epsilon is not None:
            argv += ["--epsilon", epsilon]
            m_count = offdiag_m(epsilon)
        else:
            argv += ["--M", M]
            m_count = M
        self.add(argv, n=n, channel=key, M=m_count,
                 experiments=2 * (m_count or 0),
                 check={"kind": "rows", "rows": [[m, n_label]], "exact": exact})

    def triplets(self, key: str, n: int, M: int, log: str, seed=None) -> str:
        path = self.log_path(log)
        seed = _seed(self.rng) if seed is None else seed
        self.add(["triplets", "--channel", self.work / f"{key}.json", "--M", M,
                  "--seed", seed, "--out", path],
                 n=n, channel=key, M=M, experiments=M,
                 check={"kind": "log", "path": path, "n": n, "M": M})
        return path

    def diag_from_log(self, key: str, n: int, log_path: str, labels: list[str]) -> None:
        argv = ["diag-from-log", "--log", log_path, "--channel", self.work / f"{key}.json"]
        for label in labels:
            argv += ["--m", label]
        self.add(argv, n=n, channel=key,
                 check={"kind": "rows", "rows": [[m, None] for m in labels],
                        "exact": False})

    def sieve(self, key: str, n: int, log_path: str,
              threshold: float = SIEVE_THRESHOLD) -> None:
        self.add(["sieve", "--log", log_path, "--threshold", threshold],
                 n=n, channel=key, check={"kind": "sieve", "threshold": threshold})


# ---------------------------------------------------------------------------

def survival(p: Planner, small: bool) -> None:
    n_mix, n_dep = (2, 2) if small else (4, 3)
    # A dense Pauli channel with 64 Kraus operators: the identity and 63
    # other labels drawn from the seed.
    labels = {"I" * n_mix}
    while len(labels) < min(64, 4**n_mix):
        labels.add(random_label(p.rng, n_mix))
    rest = sorted(labels - {"I" * n_mix})
    weights = {"I" * n_mix: 0.7, **{a: 0.3 / len(rest) for a in rest}}
    p.spec("mix", {"n": n_mix, "kind": "pauli_mixture", "weights": weights})
    p.spec("ad_mix", {"n": n_mix, "kind": "amplitude_damping", "gamma": 0.3})
    p.spec("dep", {"n": n_dep, "kind": "depolarizing", "p": 0.3})
    p.spec("ad", {"n": n_dep, "kind": "amplitude_damping", "gamma": 0.3})
    for _ in range(4):
        p.estimate_diag("mix", n_mix, random_label(p.rng, n_mix), M=2000)
    p.estimate_diag("ad_mix", n_mix, random_label(p.rng, n_mix), M=20000)
    p.estimate_offdiag("dep", n_dep, random_label(p.rng, n_dep),
                       random_label(p.rng, n_dep), M=2000)
    p.estimate_offdiag("ad", n_dep, random_label(p.rng, n_dep),
                       random_label(p.rng, n_dep), M=5000)


def log_sieve(p: Planner, small: bool) -> None:
    n = 3 if small else 5
    weights = mixture_weights(n)
    p.spec("mix", {"n": n, "kind": "pauli_mixture", "weights": weights})
    log = p.triplets("mix", n, 2000, "mix")
    absent = set()
    while len(absent) < 4:
        label = random_label(p.rng, n)
        if label not in weights:
            absent.add(label)
    p.diag_from_log("mix", n, log, list(weights) + sorted(absent))
    # The record is small enough for the sieve's full-pair branch; the
    # synthetic log is above its pair limits, so that sieve subsamples pairs.
    p.sieve("mix", n, log, LOG_SIEVE_THRESHOLD)
    syn = p.synthetic_log("syn", n, 6000, weights)
    p.sieve("syn", n, syn, LOG_SIEVE_THRESHOLD)


def _small_specs(rng: random.Random, n: int) -> dict[str, dict]:
    """One channel of each of the seven spec kinds on n qubits."""
    d = 2**n
    non_id = [random_label(rng, n, non_identity=True) for _ in range(4)]
    mixture = {"I" * n: 0.55}
    for label, w in zip(dict.fromkeys(non_id), (0.25, 0.2)):
        mixture[label] = w
    if len(mixture) == 2:
        mixture["I" * n] = 0.75
    q = rng.uniform(0.05, 0.3)
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(d // 2))
    return {
        "identity": {"n": n, "kind": "identity"},
        "depolarizing": {"n": n, "kind": "depolarizing",
                         "p": round(rng.uniform(0.05, 0.4), 4)},
        "pauli_mixture": {"n": n, "kind": "pauli_mixture", "weights": mixture},
        "unitary": {"n": n, "kind": "unitary", "generator": non_id[2],
                    "theta": round(rng.uniform(0.2, 2.5), 4)},
        "amplitude_damping": {"n": n, "kind": "amplitude_damping",
                              "gamma": round(rng.uniform(0.05, 0.5), 4)},
        "kraus": {"n": n, "kind": "kraus", "operators": [
            _matrix_json(math.sqrt(1 - q) * np.eye(d)),
            _matrix_json(math.sqrt(q) * flip)]},
        "compose": {"n": n, "kind": "compose", "children": [
            {"n": n, "kind": "depolarizing", "p": round(rng.uniform(0.05, 0.3), 4)},
            {"n": n, "kind": "unitary", "generator": non_id[3],
             "theta": round(rng.uniform(0.2, 2.5), 4)}]},
    }


def many_small(p: Planner, small: bool) -> None:
    rng = p.rng
    sizes = (1, 3) if small else (1, 2, 3)
    for n in sizes:
        for kind, spec in _small_specs(rng, n).items():
            key = f"{kind}{n}"
            p.spec(key, spec)
            p.estimate_diag(key, n, random_label(rng, n), M=500)
            p.estimate_diag(key, n, random_label(rng, n), exact=True)
            p.estimate_offdiag(key, n, random_label(rng, n), random_label(rng, n), M=500)
            if n == 3 or small:
                continue
            for _ in range(3):
                p.estimate_diag(key, n, random_label(rng, n), M=500)
            p.estimate_diag(key, n, random_label(rng, n), epsilon=0.05)
            p.estimate_offdiag(key, n, random_label(rng, n), random_label(rng, n),
                               epsilon=0.1)
            p.estimate_offdiag(key, n, random_label(rng, n), random_label(rng, n),
                               exact=True)

    # triplets -> diag-from-log -> sieve round trips on Pauli channels, whose
    # heavy labels sit far from the sieve threshold.
    n_rt = sizes[-1]
    for i, kind in enumerate(["pauli_mixture", "depolarizing"]):
        key = f"{kind}{n_rt}"
        log = p.triplets(key, n_rt, 4000, f"rt{i}")
        weights = p.plan["specs"][key].get("weights", {"I" * n_rt: 1.0})
        labels = list(weights) + [random_label(rng, n_rt) for _ in range(2)]
        p.diag_from_log(key, n_rt, log, labels)
        p.sieve(key, n_rt, log)

    p.add(["verify", "--n", 2, "--seed", _seed(rng)], n=2, check={"kind": "verify"})
    p.add(["verify", "--n", n_rt, "--verify-level", "full", "--seed", _seed(rng)],
          n=n_rt, check={"kind": "verify"})

    # Quick looks at a six-qubit channel: small M at large D, so most design
    # bases are built cold and only a few states of each are used.
    if not small:
        p.spec("mix6", {"n": 6, "kind": "pauli_mixture",
                        "weights": mixture_weights(6)})
        for _ in range(2):
            p.estimate_diag("mix6", 6, random_label(rng, 6), M=200)

    # Malformed inputs must return their documented exit codes.
    key = f"depolarizing{n_rt}"
    spec_path = p.work / f"{key}.json"
    p.add(["estimate-diag", "--channel", spec_path, "--m", "X" * (n_rt - 1) + "Q",
           "--M", 100], n=n_rt, expect_exit=3)
    p.add(["estimate-diag", "--channel", spec_path, "--m", "X" * (n_rt + 1),
           "--M", 100], n=n_rt, expect_exit=3)
    p.add(["diag-from-log", "--log", p.log_path("rt0"), "--m", "I" * n_rt,
           "--channel", spec_path], n=n_rt, expect_exit=5)
    bad = p.raw_file("malformed.json", '{"n": 2, "kind": ')
    p.add(["estimate-diag", "--channel", bad, "--m", "XI", "--M", 100],
          n=2, expect_exit=2)
    one_base = p.synthetic_log("one_base", 2, 50, {"II": 0.8, "XI": 0.2},
                               single_base=1)
    p.add(["sieve", "--log", one_base, "--threshold", SIEVE_THRESHOLD],
          n=2, expect_exit=6)

    # A negative campaign seed is an ordinary input; its round trip must work.
    log = p.triplets("depolarizing1", 1, 500, "negseed", seed=-3)
    p.diag_from_log("depolarizing1", 1, log, ["I", random_label(rng, 1, non_identity=True)])


PLANNERS = {"survival": survival, "log-sieve": log_sieve, "many-small": many_small}


def build_plan(name: str, seed: int, work: Path, small: bool = False) -> dict:
    planner = Planner(name, seed, work)
    PLANNERS[name](planner, small)
    return planner.plan


def write_inputs(plan: dict, work: Path) -> None:
    """Write spec files, raw files and synthetic triplet logs into work/.

    Synthetic logs follow k' = k XOR p_a(J) for a label a drawn from the
    weights, which is the exact transition of a Pauli channel, so they need
    no dense operators.
    """
    from chitomo.channels import channel_spec_sha256
    from chitomo.pauli import PauliLabel, commutation_vector, mub_class

    for key, spec in plan["specs"].items():
        (work / f"{key}.json").write_text(json.dumps(spec))
    for key, text in plan["raw_files"].items():
        (work / key).write_text(text)
    for key, syn in plan["synthetic_logs"].items():
        n, m_count = syn["n"], syn["M"]
        rng = random.Random(syn["seed"])
        weights = syn["spec"]["weights"]
        labels = [PauliLabel.from_string(a) for a in weights]
        d = 2**n
        lines = [f"# seqpt-triplets v1 n={n} seed={syn['seed']} M={m_count} "
                 f"channel={channel_spec_sha256(syn['spec'])}"]
        for _ in range(m_count):
            j = syn["single_base"] if syn["single_base"] is not None else rng.randrange(d + 1)
            k = rng.randrange(d)
            a = rng.choices(labels, list(weights.values()))[0]
            kp = k ^ commutation_vector(a, mub_class(n, j))
            lines.append(f"{j}\t{_bits(k, n)}\t{_bits(kp, n)}")
        (work / f"{key}.log").write_text("\n".join(lines) + "\n")


def _bits(value: int, n: int) -> str:
    """Bit string with bit 0 first, the triplet-log convention."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(n))

