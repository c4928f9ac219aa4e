"""Seeded task lists of the plans, evaluate and algebra workloads.

``make_tasks(workload, seed)`` is pure Python and imports nothing from
orbitfuncs: the same seed always gives the same list.  Each task is a
dict with an ``op`` naming its executor in ``ops.py`` and the generated
inputs (weights, sizes, label counts) plus a ``seed`` from which the
executor draws its arrays (points, coefficients, sample positions).

The structure of every list (which diagrams, sizes and operations, in
which order) is fixed; the seed draws the values.  That keeps the work
per run nearly constant across seeds, so that run-to-run spread measures
the program rather than the draw.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("plans", "evaluate", "algebra")

MULTI_KINDS = ("anti_exp", "sym_exp", "anti_sine", "sym_cosine",
               "amdct1", "amdct2", "amdct3", "amdct4",
               "smdct1", "smdct2", "smdct3", "smdct4")

# plans: (diagram, M, number of labels drawn from the default set, or
# None for the default set itself); label counts run from 1 to 55
PLAN_TABLE = [
    ("A2", 4, None), ("A2", 5, None), ("A2", 6, None), ("A2", 7, None),
    ("A2", 8, None), ("A2", 9, 12), ("A2", 10, 16), ("A2", 11, 16),
    ("A2", 12, None),
    ("C2", 5, None), ("C2", 6, None), ("C2", 7, None), ("C2", 8, None),
    ("C2", 9, None), ("C2", 10, None), ("C2", 11, 10), ("C2", 12, 16),
    ("C2", 14, 16),
    ("G2", 8, None), ("G2", 9, None), ("G2", 10, None), ("G2", 11, None),
    ("G2", 12, None), ("G2", 13, None), ("G2", 14, None), ("G2", 15, None),
    ("A3", 4, None), ("A3", 5, None), ("A3", 6, None), ("A3", 7, 5),
    ("A3", 8, 3),
    ("B3", 6, None), ("B3", 7, None), ("B3", 8, None), ("B3", 9, 4),
    ("B3", 10, 3),
    ("C3", 6, None), ("C3", 7, None), ("C3", 8, None), ("C3", 9, 4),
    ("C3", 10, 2),
]

# plans: N per multivariate kind, for three sizes of n = 2 and two of n = 3
MULTI_N = {
    2: {kind: (5, 6, 8) for kind in MULTI_KINDS},
    3: {"anti_exp": (5, 7), "sym_exp": (4, 6), "anti_sine": (6, 8),
        "sym_cosine": (4, 5), "amdct1": (5, 6), "amdct2": (5, 7),
        "amdct3": (5, 7), "amdct4": (5, 7), "smdct1": (4, 5),
        "smdct2": (4, 6), "smdct3": (4, 6), "smdct4": (4, 6)},
}

# evaluate: eval_batch keys (diagram, kind, weight pattern, points); in a
# pattern "1" is a random entry 1..3 and "0" a zero entry, "rho" is rho.
# Every key is sent twice, so half of the calls repeat a key already seen.
EVAL_KEYS = [
    ("A2", "anti", "11", 100_000), ("A2", "sym", "10", 100_000),
    ("A2", "norm", "01", 100_000), ("G2", "anti", "11", 50_000),
    ("G2", "sym", "01", 100_000), ("C2", "anti", "11", 100_000),
    ("C2", "norm", "10", 100_000), ("A3", "anti", "111", 40_000),
    ("A3", "sym", "101", 40_000), ("B3", "anti", "111", 20_000),
    ("B3", "norm", "011", 20_000), ("C3", "anti", "111", 20_000),
    ("B4", "anti", "1111", 3_000), ("C4", "anti", "1111", 3_000),
    ("D4", "anti", "1111", 6_000), ("D4", "sym", "1001", 10_000),
    ("A2", "anti", "rho", 10_000), ("C2", "anti", "rho", 10_000),
    ("G2", "anti", "rho", 10_000), ("B3", "anti", "rho", 10_000),
]
ORTH_PAIRS = [("A3", "anti"), ("A3", "sym"), ("B3", "anti"), ("B3", "sym"),
              ("C3", "anti"), ("C3", "sym"), ("D4", "anti"), ("D4", "sym"),
              ("A4", "anti"), ("B4", "anti"), ("C4", "sym"), ("C4", "anti")]
CHARACTER_DIAGRAMS = ["A2", "C2", "G2", "A3", "B3", "C3", "A2", "G2"]
SERIES_DIAGRAMS = ["A2", "C2", "G2"]
SERIES_POOL = [(1, 1), (2, 1), (1, 2), (2, 2)]
LAPLACE_DIAGRAMS = ["A2", "C2", "A3", "B3", "C3"]
SHIFT_DIAGRAMS = ["A2", "C2", "G2", "B3"]

# algebra; diagrams listed twice get two tasks with different weights.
# The mix keeps the middle of the latency distribution dense, so that its
# median does not jump between two clusters of task costs.  Rank 5 is D5
# only (its group is built once, C5's would double a pass): short passes
# give each task more samples per run.
SIGNED_SIGNED = ["G2", "A3", "B3", "B3", "B3", "C3", "C3", "C3", "A4"]
PLAIN_SIGNED = [("A3", "101"), ("B3", "100"), ("C3", "010"), ("C3", "001"),
                ("A4", "1001"), ("A4", "0110"), ("B4", "1000"), ("C4", "0100")]
COSET = [("B4", "1100"), ("B4", "0011"), ("B4", "0110"), ("D5", "01000")]
PLAIN_PLAIN = [("A3", "101", "201"), ("B3", "010", "101"), ("B3", "100", "011"),
               ("B3", "001", "110")]
RHO_COS = ["A3", "B3", "C3", "G2", "A4"]
# the sub-systems of each rule must exist (D_n needs n >= 4)
BRANCHES = [("A4", "drop", 0), ("B4", "drop", 0), ("C4", "split", 2),
            ("C4", "drop", 0), ("D5", "drop", 0), ("A3", "split", 2),
            ("A5", "split", 3), ("A5", "drop", 0)]
DIMENSIONS = ["A2", "G2", "A3", "B3", "C3", "D4", "B4", "A5"]
LARGE_GROUPS = ["D5"]


def rank(diagram: str) -> int:
    return int(diagram[1:])


def orth_len(diagram: str) -> int:
    return rank(diagram) + (diagram[0] == "A")


def _pattern(rng: random.Random, pattern: str) -> tuple[int, ...]:
    return tuple(rng.randint(1, 3) if c == "1" else 0 for c in pattern)


def _strict(rng: random.Random, n: int, hi: int = 2) -> tuple[int, ...]:
    return tuple(rng.randint(1, hi) for _ in range(n))


def _orth_strict(rng: random.Random, diagram: str, hi: int = 7) -> tuple[int, ...]:
    """Strictly decreasing orthogonal coordinates; the A family keeps a
    trailing 0 and B/C/D stay positive."""
    r = orth_len(diagram)
    if diagram[0] == "A":
        return tuple(sorted(rng.sample(range(1, hi + r), r - 1), reverse=True)) + (0,)
    return tuple(sorted(rng.sample(range(1, hi + r), r), reverse=True))


def _interleave(*queues):
    out = []
    for group in itertools.zip_longest(*queues):
        out.extend(t for t in group if t is not None)
    return out


def _plans(rng):
    builds = [{"op": "build_plan", "diagram": d, "M": M, "labels": L}
              for d, M, L in PLAN_TABLE]
    multis = [{"op": "multivariate_plan", "kind": kind, "n": n, "N": N}
              for n, sizes in MULTI_N.items() for kind in MULTI_KINDS
              for N in sizes[kind]]
    return _interleave(builds, multis)


def _evaluate(rng):
    keys = []
    for d, kind, pattern, npts in EVAL_KEYS:
        lam = "rho" if pattern == "rho" else _pattern(rng, pattern)
        keys.append({"op": "eval_batch", "diagram": d, "kind": kind,
                     "lam": lam, "points": npts})
    # first use of key i, then the repeat of key i-1
    evals = []
    for i, key in enumerate(keys):
        evals.append(dict(key))
        if i:
            evals.append(dict(keys[i - 1]))
    evals.append(dict(keys[-1]))
    orth = [{"op": "orth_pair", "diagram": d, "kind": k,
             "m": _orth_strict(rng, d)} for d, k in ORTH_PAIRS]
    chars = [{"op": "character", "diagram": d,
              "lam": tuple(rng.randint(0, 2) for _ in range(rank(d)))}
             for d in CHARACTER_DIAGRAMS]
    series = [{"op": "series", "diagram": d,
               "mus": rng.sample(SERIES_POOL, 2)} for d in SERIES_DIAGRAMS]
    laplace = [{"op": "laplace", "diagram": d, "m": _orth_strict(rng, d, hi=4)}
               for d in LAPLACE_DIAGRAMS]
    shift = [{"op": "shift", "diagram": d, "lam": _strict(rng, rank(d), 3)}
             for d in SHIFT_DIAGRAMS]
    eigen = [{"op": "eigen", "variant": "anti",
              "m": rng.choice([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])},
             {"op": "eigen", "variant": "sym",
              "m": rng.choice([(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])}]
    return _interleave(evals, orth, chars + series + eigen, laplace + shift)


def _algebra(rng):
    groups = [{"op": "generate_group", "diagram": d} for d in LARGE_GROUPS]
    products = [{"op": "product_signed_signed", "diagram": d,
                 "lam": _strict(rng, rank(d)), "mu": _strict(rng, rank(d))}
                for d in SIGNED_SIGNED]
    products += [{"op": "product_plain_signed", "diagram": d,
                  "lam": _pattern(rng, p), "mu": _strict(rng, rank(d))}
                 for d, p in PLAIN_SIGNED]
    products += [{"op": "product_plain_signed_coset", "diagram": d,
                  "lam": _pattern(rng, p), "mu": _strict(rng, rank(d))}
                 for d, p in COSET]
    products += [{"op": "product_plain_plain", "diagram": d,
                  "lam": _pattern(rng, p), "mu": _pattern(rng, q)}
                 for d, p, q in PLAIN_PLAIN]
    rho = [{"op": "rho_cosine", "diagram": d} for d in RHO_COS]
    branches = [{"op": "branch", "diagram": d, "rule": rule, "p": p,
                 "m": _orth_strict(rng, d, hi=4)} for d, rule, p in BRANCHES]
    dims = [{"op": "dimension", "diagram": d,
             "lam": tuple(rng.randint(0, 3) for _ in range(rank(d)))}
            for d in DIMENSIONS]
    return groups + _interleave(products, rho + branches, dims)


def make_tasks(workload: str, seed: int) -> list[dict]:
    """The task list of one workload; every task gets an ``id`` and a
    data ``seed``."""
    makers = {"plans": _plans, "evaluate": _evaluate, "algebra": _algebra}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}-{seed}")
    tasks = makers[workload](rng)
    for i, task in enumerate(tasks):
        task["id"] = i
        task["seed"] = rng.getrandbits(32)
    return tasks


def diagrams_of(tasks) -> list[str]:
    """Every diagram a task list names, in first-use order."""
    seen = {}
    for task in tasks:
        if "diagram" in task:
            seen.setdefault(task["diagram"], None)
    return list(seen)
