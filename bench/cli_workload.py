"""The cli workload: a seeded sequence of ``python -m orbitfuncs.cli``
invocations, one per verb, and their in-process check.

Every invocation is a fresh interpreter, so each one pays the import of
orbitfuncs (numpy, click) and starts with cold caches, as a user's shell
call does.  The check runs each distinct command again through click's
test runner inside the benchmark process and compares the parsed output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

VERBS = ("rootsys_info", "orbit_signed", "orbit_plain", "eval_x", "eval_in",
         "product", "branch", "grid", "transform_in", "plan_verify",
         "check_shift", "check_laplace", "selftest_quick")

# (diagram, orthogonal weight) pairs whose `check laplace` stays below the
# default 1e-5 for every CLI seed: the command samples its own points and
# does not skip the zeros of the function
LAPLACE_CASES = [("C2", "2,1"), ("C2", "3,2")]

CSV_VERBS = {"eval_in", "grid", "transform_in"}


def _vec(values) -> str:
    return ",".join(str(v) for v in values)


def make_commands(seed: int, workdir: Path) -> list[dict]:
    """One command per verb, in VERBS order.  Input files are written to
    ``workdir``; each command is {"verb", "args", "files"}.

    The diagram and size of each command are fixed, or drawn from options
    of the same cost (B3 or C3; amdct2, 3 or 4 at the same N), and the seed
    draws weights, points, signals and seeds: every seed's list costs about
    the same, so the spread between runs measures the program, not the draw."""
    rng = random.Random(f"cli-{seed}")
    cmds = []

    def add(verb, *args, files=None):
        cmds.append({"verb": verb, "args": [str(a) for a in args],
                     "files": files or {}})

    def strict(n):
        return [rng.randint(1, 3) for _ in range(n)]

    add("rootsys_info", "rootsys", "info", rng.choice(["B3", "C3"]))
    add("orbit_signed", "orbit", "signed", "--diagram", rng.choice(["B3", "C3"]),
        "--lambda", _vec(strict(3)))
    lam = [rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2)]
    add("orbit_plain", "orbit", "plain", "--diagram", rng.choice(["B3", "C3"]),
        "--lambda", _vec(lam))
    add("eval_x", "eval", "--diagram", "C2", "--kind", rng.choice(["anti", "sym"]),
        "--lambda", _vec(strict(2)),
        "--x", _vec(round(rng.uniform(-1, 1), 6) for _ in range(2)))

    points = workdir / "points.csv"
    rows = [[f"x{i + 1}" for i in range(2)]]
    rows += [[repr(round(rng.uniform(-1, 1), 9)) for _ in range(2)] for _ in range(2000)]
    add("eval_in", "eval", "--diagram", "C2", "--kind", "anti", "--lambda", _vec(strict(2)),
        "--in", points, files={points: rows})

    plain = [rng.randint(0, 2) for _ in range(3)]
    add("product", "product", "--diagram", "A3", "--plain", _vec(plain),
        "--signed", _vec(strict(3)))
    m = sorted(rng.sample(range(1, 8), 3), reverse=True)
    add("branch", "branch", "--from", "C3", "--rule", "split-1", "--lambda", _vec(m))
    add("grid", "grid", "--diagram", "G2", "--M", 8,
        *(["--interior"] if rng.random() < 0.5 else []))

    kind = rng.choice(["amdct2", "amdct3", "amdct4"])
    big_n = 8
    signal = workdir / "signal.csv"
    rows = [["index", "value"]] + [[str(i), repr(round(rng.uniform(-1, 1), 9))]
                                   for i in range(math.comb(big_n, 2))]
    add("transform_in", "transform", "--kind", kind, "--n", 2, "--N", big_n,
        "--in", signal, "--direction", "forward", files={signal: rows})

    add("plan_verify", "plan", "verify", "--diagram", "A2", "--M", 9)
    add("check_shift", "--seed", rng.randint(0, 10**6), "check", "shift",
        "--diagram", "C2", "--lambda", _vec(strict(2)))
    d, m = rng.choice(LAPLACE_CASES)
    add("check_laplace", "--seed", rng.randint(0, 10**6), "check", "laplace",
        "--diagram", d, "--lambda", m)
    add("selftest_quick", "--seed", rng.randint(0, 10**6), "selftest", "--quick")
    assert [c["verb"] for c in cmds] == list(VERBS)
    return cmds


def write_inputs(cmds) -> None:
    for cmd in cmds:
        for path, rows in cmd["files"].items():
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)


# -- the in-process check ----------------------------------------------------

def _same(a, b, tol: float = 1e-9) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        try:
            return abs(float(a) - float(b)) <= tol * (1 + abs(float(b)))
        except (TypeError, ValueError):
            return False
    return a == b


def _cells(text: str):
    out = []
    for row in csv.reader(io.StringIO(text)):
        parsed = []
        for cell in row:
            try:
                parsed.append(float(cell) if any(c in cell for c in ".e") else cell)
            except ValueError:
                parsed.append(cell)
        out.append(parsed)
    return out


def _selftest_lines(text: str) -> list[str]:
    # the last line reports the elapsed time
    return [line for line in text.splitlines() if not line.startswith("selftest ")]


def parse(verb: str, text: str):
    if verb in CSV_VERBS:
        return _cells(text)
    if verb == "selftest_quick":
        return _selftest_lines(text)
    return json.loads(text)


def check_in_process(cmds, outputs: dict) -> list[dict]:
    """Run each command once through click's test runner in this process
    and compare its parsed stdout with that of every subprocess run of it.
    ``outputs`` maps a command index to a list of (exit code, stdout);
    returns one failure record per failed run."""
    from click.testing import CliRunner
    from orbitfuncs.cli import main

    failures = []
    for i, runs in outputs.items():
        verb = cmds[i]["verb"]
        res = CliRunner().invoke(main, cmds[i]["args"])
        expected = parse(verb, res.stdout) if res.exit_code == 0 else None
        for code, stdout in runs:
            if expected is None:
                error = f"in-process call exited {res.exit_code}: {res.exception!r}"
            elif code != 0:
                error = f"exit code {code}"
            else:
                try:
                    same = _same(parse(verb, stdout), expected)
                except ValueError:
                    same = False
                error = None if same else "stdout differs from the in-process call"
            if error:
                failures.append({"id": i, "op": verb, "error": error})
    return failures
