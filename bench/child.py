"""One pass of the plans, evaluate or algebra workload in a fresh process.

Usage: python3 bench/child.py --workload NAME --seed N [--trace] [--spans FILE]
                             [--setup-only]

Imports orbitfuncs from ``src/`` of the checkout, builds the workload's
root systems, notes the monotonic clock reading at that moment (the end
of set-up), runs the seeded task list, then checks every task's output
and prints one JSON object: the set-up end, per-task latencies, the
reference loop's time (see speed.py) before set-up, after set-up and after
each task, the time the first of these timings took (it is not set-up),
failures, the peak RSS read before the checks, and with --trace the
per-layer span summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the raw spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print its end time")
    args = ap.parse_args()

    from speed import reference_s
    t0 = time.perf_counter()
    first_ref = reference_s()
    first_ref_block = time.perf_counter() - t0

    from workloads import make_tasks, diagrams_of
    tasks = make_tasks(args.workload, args.seed)

    import orbitfuncs
    src = ROOT / "src"
    if not Path(orbitfuncs.__file__).resolve().is_relative_to(src):
        print(f"orbitfuncs imported from {orbitfuncs.__file__}, not {src}", file=sys.stderr)
        return 3
    import ops
    lib = ops.load_library()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.task = "setup"
    systems = {d: lib.rootsys.build(d) for d in diagrams_of(tasks)}
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    refs = [reference_s()]
    setup = {"ready": ready, "setup_refs": [first_ref, refs[0]],
             "setup_ref_block_s": first_ref_block}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ctx = ops.Context(lib, systems, tracer)
    latencies, evidence = [], []
    for task in tasks:
        ctx.elapsed = 0.0
        if tracer is not None:
            tracer.task = task["id"]
        run, _ = ops.OPS[task["op"]]
        try:
            evidence.append((run(ctx, task), None))
        except Exception as exc:  # a failed task counts as failed, the pass goes on
            evidence.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(ctx.elapsed)
        refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        from tracer import summarize
        layers = summarize(tracer.spans)
        layers["absent"] = tracer.absent
        if args.spans:
            tracer.dump(args.spans)

    failures = []
    for task, (ev, error) in zip(tasks, evidence):
        if error is None:
            _, check = ops.OPS[task["op"]]
            try:
                error = check(ctx, task, ev)
            except Exception as exc:
                error = f"the check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"id": task["id"], "op": task["op"], "error": error})

    print(json.dumps({
        **setup,
        "latencies": latencies,
        "refs": refs,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
