"""tools/bench_pairs.py on a temporary git repository with a stub
bench/run.py, whose metrics depend on the side and the seed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

SPEC = {
    "command": ["python3", "bench/run.py"], "paths": ["bench"], "run_seconds": 7,
    "workloads": [{"name": "algebra", "why": "stub"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [],
}

# {side} is "base" in the committed stub and "change" in the working tree
STUB = '''import argparse, json
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
args = ap.parse_args()
side = "{side}"
with open({log!r}, "a") as fh:
    fh.write(json.dumps([side, args.workload, args.seed, args.seconds, args.trace]) + "\\n")
seed = int(args.seed)
wall = (2.0 if side == "base" else 1.0) + seed / 100
rss = 40.0 if side == "base" else 55.0 - seed
print("environment: " + json.dumps({{"python": "3", "nproc": 2, "commit": "x", "seed": seed}}))
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": {failed},
                  "metrics": {{"wall_s": {{"value": wall, "unit": "s"}},
                              "peak_rss_mb": {{"value": rss, "unit": "MiB"}}}}}}))
'''


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
                   cwd=repo, check=True, capture_output=True)


@pytest.fixture
def stub_repo(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "log.jsonl"
    (repo / "bench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    stub = repo / "bench" / "run.py"
    stub.write_text(STUB.format(side="base", log=str(log), correct="True", failed=0))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    # the change is an uncommitted edit of a tracked file
    stub.write_text(STUB.format(side="change", log=str(log), correct="True", failed=0))
    (repo / "untracked.txt").write_text("not copied")
    return repo, log


def _run(repo, *args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=repo, capture_output=True,
                          text=True, timeout=120)


def test_pairs_alternate_and_compare_each_metric(stub_repo, tmp_path):
    repo, log = stub_repo
    out = tmp_path / "BENCH.json"
    done = _run(repo, "--base", "HEAD", "--workload", "algebra", "--pairs", "3",
                "--first-seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    # same seed on both sides, the first side alternating, the spec's run length
    assert calls == [["base", "algebra", "5", "7", "0"], ["change", "algebra", "5", "7", "0"],
                     ["change", "algebra", "6", "7", "0"], ["base", "algebra", "6", "7", "0"],
                     ["base", "algebra", "7", "7", "0"], ["change", "algebra", "7", "7", "0"]]
    res = json.loads(out.read_text())
    assert res["seeds"] == [5, 6, 7] and res["seconds"] == 7
    assert res["order"] == ["base first", "change first", "base first"]
    assert res["change"]["uncommitted_edits"] is True
    wall = res["metrics"]["wall_s"]
    assert wall["base"] == [2.05, 2.06, 2.07] and wall["change"] == [1.05, 1.06, 1.07]
    assert wall["base_median"] == 2.06 and wall["change_median"] == 1.06
    assert wall["base_quartiles"] == pytest.approx([2.055, 2.065])
    assert wall["ratios"] == pytest.approx([1.05 / 2.05, 1.06 / 2.06, 1.07 / 2.07])
    assert wall["pairs_won"] == 3 and wall["bound"] == 0.25
    assert wall["worse_beyond_bound"] is False
    rss = res["metrics"]["peak_rss_mb"]
    assert rss["change"] == [50.0, 49.0, 48.0] and rss["pairs_won"] == 0
    assert rss["change_median"] == 49.0 and rss["median_change_pct"] == pytest.approx(22.5)
    assert rss["worse_beyond_bound"] is True   # +22.5 % against a bound of 10 %
    assert res["worse_beyond_bound"] == ["peak_rss_mb"]
    assert res["correct"] == {"base": True, "change": True}
    assert res["failed"] == {"base": [0, 0, 0], "change": [0, 0, 0]}
    assert res["attempted"] == {"base": [3, 3, 3], "change": [3, 3, 3]}
    assert res["environment"]["python"] == "3" and "seed" not in res["environment"]


def test_a_failed_task_is_reported_and_exits_1(stub_repo, tmp_path):
    repo, log = stub_repo
    (repo / "bench" / "run.py").write_text(
        STUB.format(side="change", log=str(log), correct="False", failed=1))
    out = tmp_path / "BENCH.json"
    done = _run(repo, "--base", "HEAD", "--workload", "algebra", "--pairs", "1",
                "--seconds", "0", "--out", str(out))
    assert done.returncode == 1
    res = json.loads(out.read_text())
    assert res["correct"] == {"base": True, "change": False}
    assert res["failed"] == {"base": [0], "change": [1]}
    assert res["seconds"] == 0


def test_unknown_revision_and_workload_are_refused(stub_repo, tmp_path):
    repo, _ = stub_repo
    out = tmp_path / "BENCH.json"
    done = _run(repo, "--base", "no-such-rev", "--workload", "algebra", "--pairs", "1",
                "--out", str(out))
    assert done.returncode == 2 and "--base 'no-such-rev' names no commit" in done.stderr
    done = _run(repo, "--base", "HEAD", "--workload", "nope", "--pairs", "1", "--out", str(out))
    assert done.returncode == 2 and "--workload must be one of ['algebra']" in done.stderr
    assert not out.exists()
