"""Time the closure of the small Weyl groups for one or more source trees.

    python3 tools/time_close.py PARENT/src CHANGE/src [--rounds 10] [--reps 200]

``weyl._close`` builds a group from nothing on every call, as the first use
of a diagram in a fresh process does.  The six diagrams are those of the
``plans`` bench workload (A2, C2, G2, A3, B3, C3, at most 48 elements).
Each round starts one process per source tree, in turn; a process closes
every diagram ``--reps`` times and reports the least time of each.  The
script prints, per tree, the median over the rounds of each diagram's
time and of their total, in microseconds, and the total of every round.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DIAGRAMS = ("A2", "C2", "G2", "A3", "B3", "C3")

CHILD = """
import json, sys, time
from orbitfuncs.rootsys import build
from orbitfuncs.weyl import _close
reps = int(sys.argv[1])
best = {}
for label in sys.argv[2:]:
    rs = build(label)
    _close(rs)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _close(rs)
        times.append(time.perf_counter() - start)
    best[label] = min(times) * 1e6
print(json.dumps(best))
"""


def run(src: str, reps: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(reps), *DIAGRAMS],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="a source directory holding orbitfuncs")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args()
    runs = {src: [] for src in args.src}
    for _ in range(args.rounds):
        for src in args.src:
            runs[src].append(run(src, args.reps))
    for src, rounds in runs.items():
        totals = [sum(r.values()) for r in rounds]
        per = {label: round(statistics.median(r[label] for r in rounds), 1) for label in DIAGRAMS}
        print(json.dumps({"src": src, "median_us": per,
                          "total_median_us": round(statistics.median(totals), 1),
                          "totals_us": [round(t, 1) for t in totals]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
