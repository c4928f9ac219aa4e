"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N \
        [--seconds S] [--first-seed K] --out BENCH_<n>.json

Run from inside a git checkout.  The script makes two sibling copies in a
temporary directory: REV by ``git archive``, and the tracked files of the
working tree as they are on disk, uncommitted edits included.  Pair i runs
``bench/run.py --workload W --seed K + i --seconds S --trace 0`` in both
copies with the same seed, the base first in even pairs and the change
first in odd ones, so that neither side always runs on a warmer machine.
``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``, and
``--first-seed`` to 1.

For each end-to-end metric of ``BENCHMARK.json`` the output holds both
sides' runs and medians, the base's quartiles, the per-pair ratios
change / base, the number of pairs the change won, the bound, and whether
the change's median is worse than the base's by more than the bound.  It
also holds whether every run was correct, the failed and attempted task
counts of each run, and the environment.  The script changes no workload,
check or bound.  It exits 1 when a run fails or reports a failed task (the
output is written first), and 0 otherwise, whatever the timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_revision(root: Path, rev: str, dest: Path) -> None:
    """The files of rev under dest, by git archive."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(root: Path, dest: Path) -> None:
    """The tracked files of the working tree under dest, as they are on disk
    (a tracked file deleted from the disk is left out)."""
    for name in git(root, "ls-files", "-z").split("\0"):
        src = root / name
        if name and (src.is_file() or src.is_symlink()):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def run_side(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in a copy: its result object, with the
    environment line it printed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {copy.name} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    env = [ln.split(":", 1)[1] for ln in lines if ln.startswith("environment:")]
    result["environment"] = json.loads(env[0]) if env else {}
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(spec: dict, base: list[dict], change: list[dict]) -> dict:
    """Per-metric comparison of paired runs, as described in the module
    docstring; a ratio above 1 means the change measured more."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bm, cm = statistics.median(b), statistics.median(c)
        limit = bm * (1 + m["bound"]) if lower else bm * (1 - m["bound"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": b, "change": c, "base_median": bm, "change_median": cm,
            "base_quartiles": quartiles(b),
            "median_change_pct": 100 * (cm - bm) / bm if bm else None,
            "ratios": [y / x if x else None for x, y in zip(b, c)],
            "pairs_won": sum((y < x) if lower else (y > x) for x, y in zip(b, c)),
            "worse_beyond_bound": cm > limit if lower else cm < limit,
        }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {workloads}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        base_commit = git(root, "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        ap.error(f"--base {args.base!r} names no commit")
    seeds = [args.first_seed + i for i in range(args.pairs)]

    runs = {"base": [], "change": []}
    order = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # sibling copies whose paths differ only in equally long names
        copies = {"base": Path(tmp) / "base", "change": Path(tmp) / "chng"}
        copy_revision(root, base_commit, copies["base"])
        copies["change"].mkdir()
        copy_working_tree(root, copies["change"])
        try:
            for i, seed in enumerate(seeds):
                sides = ("base", "change") if i % 2 == 0 else ("change", "base")
                order.append(f"{sides[0]} first")
                for side in sides:
                    runs[side].append(run_side(copies[side], args.workload, seed, seconds))
                    r = runs[side][-1]
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: " + ", ".join(
                        f"{k} = {v['value']:.6g}" for k, v in r["metrics"].items()),
                        file=sys.stderr)
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1

    metrics = summarize(spec, runs["base"], runs["change"])
    correct = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    out = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds, "seeds": seeds,
        "order": order,
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": git(root, "rev-parse", "HEAD"), "uncommitted_edits": bool(status)},
        "metrics": metrics,
        "worse_beyond_bound": [name for name, m in metrics.items() if m["worse_beyond_bound"]],
        "correct": correct,
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        # the run environment less its per-run commit and seed
        "environment": {**{k: v for k, v in runs["base"][0]["environment"].items()
                           if k not in ("commit", "seed")},
                        "machine": platform.machine(), "system": platform.system(),
                        "release": platform.release()},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['base_median']:.6g} -> {m['change_median']:.6g} {m['unit']}, "
              f"{m['pairs_won']} of {args.pairs} pairs won"
              + (", WORSE beyond its bound" if m["worse_beyond_bound"] else ""))
    return 0 if all(correct.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
