"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from orbitfuncs import orbitfn, transforms, weyl  # noqa: E402
from orbitfuncs.rootsys import build  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
from cli_workload import make_commands  # noqa: E402
from tracer import NAME, PARENT, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, diagrams_of, make_tasks  # noqa: E402


def test_transforms_call_into_orbitfn_is_a_child_span():
    tracer = Tracer()
    tracer.install()
    try:
        transforms.build_plan(build("A2"), 4)
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    plan = names.index("transforms.build_plan")
    kids = [s for s in tracer.spans if s[NAME] == "orbitfn.eval_coroot_point"]
    assert kids and all(s[PARENT] == plan for s in kids)
    # eval_coroot_point -> signed_orbit -> generate_group nest below it
    orbit_parents = {names[s[PARENT]] for s in tracer.spans if s[NAME] == "weyl.signed_orbit"}
    assert orbit_parents == {"orbitfn.eval_coroot_point"}


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        ["m.a", 0.0, 10.0, -1, 0, None, False],
        ["m.b", 1.0, 3.0, 0, 0, None, False],
        ["m.b", 2.0, 4.0, 0, 0, None, True],    # overlaps the first child
        ["m.c", 9.0, 12.0, 0, 0, None, False],  # reaches past the parent
        ["n.d", 1.5, 2.5, 1, 0, None, False],   # grandchild of m.a
    ]
    # children cover [1, 4] and [9, 10] of the parent
    assert self_times(spans) == [6.0, 1.0, 2.0, 3.0, 1.0]
    out = summarize(spans, targets={"m": ["a", "b", "c"], "n": ["d"]})
    assert out["calls"] == {"m.a": 1, "m.b": 2, "m.c": 1, "n.d": 1}
    assert out["self_s"]["m.b"] == 3.0
    assert out["modules"] == {"m": {"self_s": 12.0, "errors": 1},
                              "n": {"self_s": 1.0, "errors": 0}}


def test_summarize_splits_first_and_repeat_eval_batch():
    tracer = Tracer()
    tracer.install()
    try:
        a2 = build("A2")
        for tag in ("first", "repeat"):
            tracer.tag = tag
            orbitfn.eval_batch(a2, "anti", (1, 2), [[0.1, 0.2]])
        tracer.tag = None
        orbitfn.character(a2, (1, 0), (0.1, 0.2))
    finally:
        tracer.uninstall()
    out = summarize(tracer.spans)
    assert out["calls"]["orbitfn.eval_batch"] == 4  # two from character
    assert out["eval_batch_tagged"]["first"] > 0
    assert out["eval_batch_tagged"]["repeat"] > 0
    assert out["modules"]["orbitfn"]["errors"] == 0


def test_first_tagged_eval_batch_keys_are_not_yet_in_the_term_cache():
    cache = getattr(orbitfn, "_TERMS_CACHE", None)
    if cache is None:
        pytest.skip("orbitfn keeps no term cache to compare the tags with")
    cache.clear()
    tasks = make_tasks("evaluate", 3)
    ctx = ops.Context(ops.load_library(), {d: build(d) for d in diagrams_of(tasks)})
    tags = []
    for task in tasks:
        run_task, _ = ops.OPS[task["op"]]
        if task["op"] != "eval_batch":
            run_task(ctx, task)
            continue
        rs = ctx.rs[task["diagram"]]
        lam = tuple(Fraction(c) for c in ops._lam(rs, task))
        cached = (rs.id, orbitfn._norm_kind(task["kind"]), lam) in cache
        tag = run_task(ctx, task)["tag"]
        assert tag == ("repeat" if cached else "first"), task
        tags.append(tag)
    assert "first" in tags and "repeat" in tags


def test_wrappers_are_removed_after_a_traced_run():
    before = (orbitfn.eval_coroot_point, transforms.eval_coroot_point,
              transforms.TransformPlan.forward, weyl.generate_group)
    tracer = Tracer()
    tracer.install()
    assert transforms.eval_coroot_point is not before[1]
    assert transforms.eval_coroot_point is orbitfn.eval_coroot_point
    tracer.uninstall()
    after = (orbitfn.eval_coroot_point, transforms.eval_coroot_point,
             transforms.TransformPlan.forward, weyl.generate_group)
    assert all(x is y for x, y in zip(before, after))


def test_a_missing_target_is_reported_as_absent():
    targets = {"weyl": ["no_such_function", "generate_group"],
               "transforms": ["NoSuchPlan.forward"],
               "no_such_module": ["f"]}
    tracer = Tracer()
    tracer.install(targets)
    try:
        weyl.generate_group(build("A2"))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["weyl.no_such_function", "transforms.NoSuchPlan.forward",
                             "no_such_module.f"]
    out = summarize(tracer.spans, targets)
    assert out["calls"]["weyl.generate_group"] == 1
    assert out["calls"]["weyl.no_such_function"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_task_lists_depend_on_the_seed_only(workload):
    assert make_tasks(workload, 7) == make_tasks(workload, 7)
    assert make_tasks(workload, 7) != make_tasks(workload, 8)


def test_cli_commands_depend_on_the_seed_only(tmp_path):
    def args(seed):
        return [c["args"] for c in make_commands(seed, tmp_path)]
    assert args(7) == args(7)
    assert args(7) != args(8)


@pytest.mark.parametrize("args, code", [(["rootsys", "info", "A2"], 0), (["no-such-verb"], 2)])
def test_cli_child_keeps_the_exit_code_and_times_the_reference(tmp_path, args, code):
    ref = tmp_path / "ref.json"
    proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(ref)] + args,
                          env=run.child_env(), capture_output=True, timeout=120)
    assert proc.returncode == code
    timing = json.loads(ref.read_text())
    assert 0 < timing["ref_s"] <= timing["ref_block_s"]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_names()
    for name in list(e2e) + list(layers):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
