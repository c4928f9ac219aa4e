"""Time the phase kernel and its largest callers for one or more source trees.

    python3 tools/time_cis.py PARENT/src CHANGE/src [--rounds 5]

Each round starts one process per source tree, in turn.  A process times,
best of several calls after one warm call:

* ``orbitfn._cis`` on 160, 4096, 16384 and 160 000 turns, in ns per value;
* ``orbitfn.eval_batch`` on the 20 keys of the ``evaluate`` bench workload
  (``bench/workloads.py`` ``EVAL_KEYS``, weights drawn by its seed 1), in
  ns per point, and the sum of their best times in ms;
* ``orbitfn.eval_batch`` of the antisymmetric rho at 100 points on F4, A5
  and E6 (1 152, 720 and 51 840 terms), in ms: the first call, which also
  closes the group and builds the evaluator, and the best repeat;
* ``analysis.PlaneWaveQuadrature.make(6, 400)``, in ms;
* ``transforms.build_plan`` on the 41 plans of the ``plans`` bench workload
  (``bench/workloads.py`` ``PLAN_TABLE``; a plan with a label count takes
  that many default labels drawn by a generator seeded with M), the sum of
  their best times in ms, alone and followed by one read of the plan's
  ``grid`` and ``labels`` (what every library caller of a plan does), and
  the default A2 plan at M = 24 (253 labels and points), in ms;
* ``transforms.multivariate_plan`` on the 60 plans of the ``plans`` bench
  workload (``MULTI_KINDS`` at the sizes of ``MULTI_N``), the sum of their
  best times in ms;
* ``transforms.tm_expand`` of ``grid_fm`` and ``transforms.gram_over_torus``
  with the default labels on A2 M = 7, C2 M = 9, G2 M = 12 and B3 M = 6,
  in ms each (no bench workload runs either);

and the minor page faults per call of each (``resource.getrusage`` around
the timed calls).  The script prints, per tree, the median over the rounds
of every figure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import MULTI_KINDS, MULTI_N, PLAN_TABLE, make_tasks  # noqa: E402  (no orbitfuncs)

CIS_SIZES = (160, 4096, 16384, 160_000)
RHO_DIAGRAMS = ("F4", "A5", "E6")
TORI = (("A2", 7), ("C2", 9), ("G2", 12), ("B3", 6))

CHILD = """
import json, resource, sys, time
import numpy as np
from orbitfuncs.analysis import PlaneWaveQuadrature
from orbitfuncs.orbitfn import _cis, eval_batch
from orbitfuncs.rootsys import build
from orbitfuncs.transforms import (
    build_plan, default_labels, gram_over_torus, grid_fm, multivariate_plan, tm_expand)

def best(call, reps):
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return min(times), faults / reps

def read(plan):
    plan.grid, plan.labels

cis_sizes, keys, rho_diagrams, plan_table, multis, tori = json.loads(sys.argv[1])
rng = np.random.default_rng(1)
out = {}
for n in cis_sizes:
    turns = rng.uniform(-40, 40, n)
    t, f = best(lambda: _cis(turns), max(5, 2_000_000 // n))
    out[f"cis_{n}"] = {"ns_per_value": t / n * 1e9, "faults": f}
total, total_faults = 0.0, 0.0
for diagram, kind, lam, points in keys:
    rs = build(diagram)
    lam = tuple(rs.rho) if lam == "rho" else tuple(lam)
    xs = rng.uniform(-1.0, 1.0, (points, rs.rank))
    t, f = best(lambda: eval_batch(rs, kind, lam, xs), 5)
    out[f"eval_{diagram}_{kind}_{''.join(map(str, lam))}"] = {
        "ns_per_value": t / points * 1e9, "faults": f}
    total, total_faults = total + t, total_faults + f
out["eval_total"] = {"ms": total * 1e3, "faults": total_faults}
for diagram in rho_diagrams:
    rs = build(diagram)
    xs = rng.uniform(-1.0, 1.0, (100, rs.rank))
    start = time.perf_counter()
    eval_batch(rs, "anti", rs.rho, xs)
    first = time.perf_counter() - start
    t, f = best(lambda: eval_batch(rs, "anti", rs.rho, xs), 5)
    out[f"rho_{diagram}_100"] = {"first_ms": first * 1e3, "ms": t * 1e3, "faults": f}
t, f = best(lambda: PlaneWaveQuadrature.make(6.0, 400), 10)
out["quadrature_6_400"] = {"ms": t * 1e3, "faults": f}
for name, after in (("plans_table", lambda plan: None), ("plans_table_read", read)):
    total, total_faults = 0.0, 0.0
    for diagram, M, count in plan_table:
        rs, labels = build(diagram), None
        if count is not None:
            pool = default_labels(rs, M)
            pick = np.random.default_rng(M).choice(len(pool), count, replace=False)
            labels = [pool[i] for i in sorted(pick)]
        t, f = best(lambda: after(build_plan(rs, M, labels)), 5)
        total, total_faults = total + t, total_faults + f
    out[name] = {"ms": total * 1e3, "faults": total_faults}
total, total_faults = 0.0, 0.0
for kind, n, N in multis:
    t, f = best(lambda: multivariate_plan(kind, n, N), 5)
    total, total_faults = total + t, total_faults + f
out["multivariate_plans"] = {"ms": total * 1e3, "faults": total_faults}
a2 = build("A2")
t, f = best(lambda: build_plan(a2, 24), 5)
out["plan_A2_24"] = {"ms": t * 1e3, "faults": f}
for diagram, M in tori:
    rs = build(diagram)
    grid, labels = grid_fm(rs, M), default_labels(rs, M)
    t, f = best(lambda: tm_expand(rs, grid), 5)
    out[f"tm_expand_{diagram}_{M}"] = {"ms": t * 1e3, "faults": f}
    t, f = best(lambda: gram_over_torus(rs, M, labels), 5)
    out[f"gram_over_torus_{diagram}_{M}"] = {"ms": t * 1e3, "faults": f}
print(json.dumps(out))
"""


def eval_keys() -> list:
    """(diagram, kind, weight or "rho", points) of the first use of each
    eval_batch key of the evaluate workload, seed 1."""
    keys = []
    for task in make_tasks("evaluate", 1):
        key = [task.get(k) for k in ("diagram", "kind", "lam", "points")]
        if task["op"] == "eval_batch" and key not in keys:
            keys.append(key)
    return keys


def run(src: str, cases: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, cases],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="a source directory holding orbitfuncs")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    multis = [(kind, n, N) for n, sizes in MULTI_N.items() for kind in MULTI_KINDS
              for N in sizes[kind]]
    cases = json.dumps([CIS_SIZES, eval_keys(), RHO_DIAGRAMS, PLAN_TABLE, multis, TORI])
    runs = [[] for _ in args.src]   # one list per tree, also when a tree is given twice
    for _ in range(args.rounds):
        for src, rounds in zip(args.src, runs):
            rounds.append(run(src, cases))
    for src, rounds in zip(args.src, runs):
        medians = {name: {field: round(statistics.median(r[name][field] for r in rounds), 3)
                          for field in figures}
                   for name, figures in rounds[0].items()}
        print(json.dumps({"src": src, "rounds": len(rounds), "median": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
