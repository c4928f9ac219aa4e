"""The orbitfuncs benchmark.

    python3 bench/run.py --workload {plans,evaluate,algebra,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; orbitfuncs is imported from its ``src/``.
Each workload is a closed loop with one client: a seeded, fixed task list
run sequentially in a fresh child process, so caches start cold as in a
user's script.  Passes repeat until ``--seconds`` have been measured.
Times are reported at a fixed reference speed (see speed.py).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced and the object holds the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from cli_workload import VERBS, check_in_process, make_commands, write_inputs  # noqa: E402
from speed import NOMINAL_S  # noqa: E402
from tracer import TARGETS, load, summarize, target_names  # noqa: E402

WORKLOADS = ("plans", "evaluate", "algebra", "cli")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
              "task_p90_ms": "ms", "peak_rss_mb": "MiB"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], name: str) -> dict:
    """Run a child to completion with stdout and stderr in files under
    .bench_out; returns its start time, elapsed time, exit code, peak RSS
    (MiB) and stdout.  A child that outlives the timeout is killed."""
    out_path, err_path = OUT / f"{name}.out", OUT / f"{name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "elapsed": elapsed, "code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(), "stderr_path": str(err_path)}


class BenchError(RuntimeError):
    pass


def scaled(measured: float, ref_s: float) -> float:
    """A measured time at the reference speed, given the reference loop's
    time read next to it (see speed.py)."""
    return measured * NOMINAL_S / ref_s


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) interpolates it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- passes ------------------------------------------------------------------

def setup_time(data: dict, start: float) -> float:
    """A child's scaled set-up time: from its spawn to the end of set-up,
    less the reference timing before set-up, at the mean of the readings
    before and after."""
    before, after = data["setup_refs"]
    return scaled(data["ready"] - start - data["setup_ref_block_s"], (before + after) / 2)


def library_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    """One child over the task list.  A task's latency is scaled by the
    mean of the reference readings just before and just after it."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed)]
    if traced:
        argv += ["--trace"]
        if index == 1:
            argv += ["--spans", str(OUT / f"spans-{workload}-{seed}.jsonl")]
    res = run_process(argv, f"{workload}-{seed}-{index}")
    if res["code"] != 0:
        raise BenchError(f"{workload} child exited {res['code']}; see {res['stderr_path']}")
    data = json.loads(res["stdout"].strip().splitlines()[-1])
    refs = data["refs"]
    return {"setup_s": setup_time(data, res["start"]),
            "latencies": [scaled(lat, (refs[i] + refs[i + 1]) / 2)
                          for i, lat in enumerate(data["latencies"])],
            "measured": data["latencies"], "failures": data["failures"],
            "peak_rss_mb": data["peak_rss_mb"], "layers": data["layers"],
            "tasks": len(data["latencies"])}


def cli_process(args: list[str], name: str, spans: Path | None = None) -> dict:
    """One cli_child.py process; its latency is its elapsed time less its
    reference timings, scaled by the mean of their readings."""
    ref_path = OUT / f"{name}.ref.json"
    ref_path.unlink(missing_ok=True)
    extra = ["--spans", str(spans)] if spans is not None else []
    res = run_process([sys.executable, str(HERE / "cli_child.py"), str(ref_path)] + extra + args,
                      name)
    try:
        ref = json.loads(ref_path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"{name}: no reference timing ({exc}); see {res['stderr_path']}")
    res["measured"] = res["elapsed"] - ref["ref_block_s"]
    res["latency"] = scaled(res["measured"], ref["ref_s"])
    return res


def cli_pass(cmds, traced: bool, index: int) -> dict:
    latencies, measured, rss, outputs, layers = [], [], [], {}, []
    for i, cmd in enumerate(cmds):
        name = f"cli-{index}-{i}"
        spans = OUT / f"{name}.spans.jsonl" if traced else None
        res = cli_process(cmd["args"], name, spans)
        latencies.append(res["latency"])
        measured.append(res["measured"])
        rss.append(res["peak_rss_mb"])
        outputs[i] = (res["code"], res["stdout"])
        if traced:
            spans_list, absent = load(spans)
            layers.append(dict(summarize(spans_list), absent=absent))
    return {"latencies": latencies, "measured": measured, "outputs": outputs,
            "peak_rss_mb": statistics.median(rss), "tasks": len(cmds),
            "layers": merge_layers(layers) if traced else None}


def merge_layers(parts: list[dict]) -> dict:
    """Sum per-process span summaries of one cli pass."""
    out = summarize([])
    for part in parts:
        for key in ("calls", "self_s"):
            for name, value in part[key].items():
                out[key][name] += value
        for mod, vals in part["modules"].items():
            for key in vals:
                out["modules"][mod][key] += vals[key]
    out["absent"] = parts[0]["absent"] if parts else []
    return out


def setup_only(workload: str, seed: int, index: int) -> float:
    """Scaled set-up time of a process that only sets up: a bare import of
    orbitfuncs.cli for cli, otherwise a child that stops after set-up."""
    name = f"{workload}-setup-{index}"
    if workload == "cli":
        res = cli_process([], name)
    else:
        res = run_process([sys.executable, str(HERE / "child.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-only"], name)
    if res["code"] != 0:
        raise BenchError(f"{workload} set-up failed; see {res['stderr_path']}")
    if workload == "cli":
        return res["latency"]
    return setup_time(json.loads(res["stdout"]), res["start"])


# -- the run -------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes while the next one is expected to end within `seconds`
    of the start (at least one pass; with --trace passes alternate
    untraced and traced, and at least one of each runs).  Before each pass
    a process that only sets up measures set-up, so that the set-up
    samples spread over the run like the passes."""
    plain, traced, setups = [], [], []
    begin = clock()
    cmds = None
    if workload == "cli":
        workdir = OUT / f"cli-inputs-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        cmds = make_commands(seed, workdir)
        write_inputs(cmds)
    first_pass = clock()
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        setups.append(setup_only(workload, seed, index))
        if workload == "cli":
            p = cli_pass(cmds, is_traced, index)
        else:
            p = library_pass(workload, seed, is_traced, index)
            if not is_traced:
                setups.append(p["setup_s"])
        (traced if is_traced else plain).append(p)
        index += 1
        now = clock()
        per_pass = (now - first_pass) / index
        if (not trace or traced) and now + per_pass - begin > seconds:
            break

    failures = [f for p in plain + traced for f in p.get("failures", [])]
    if workload == "cli":
        outputs = {}
        for p in plain + traced:
            for i, run in p["outputs"].items():
                outputs.setdefault(i, []).append(run)
        sys.path.insert(0, str(ROOT / "src"))
        failures += check_in_process(cmds, outputs)
    return {"plain": plain, "traced": traced, "setups": setups, "failures": failures}


def wall(passes: list[dict], key: str = "latencies") -> float:
    """Median over the passes of the sum of their task latencies."""
    return statistics.median(sum(p[key]) for p in passes)


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    tasks = [lat for p in plain for lat in p["latencies"]]
    return {
        "setup_s": statistics.median(m["setups"]),
        "wall_s": wall(plain),
        "task_p50_ms": 1000 * percentile(tasks, 50),
        "task_p90_ms": 1000 * percentile(tasks, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    names = {}
    for fn in target_names():
        names[f"{fn}.calls"] = "count"
        names[f"{fn}.self_s"] = "s"
    for mod in TARGETS:
        names[f"{mod}.self_s"] = "s"
        names[f"{mod}.errors"] = "count"
    names["orbitfn.eval_batch.first_self_s"] = "s"
    names["orbitfn.eval_batch.repeat_self_s"] = "s"
    names["cli.import_s"] = "s"
    for verb in VERBS:
        names[f"cli.{verb}.p50_ms"] = "ms"
    names["trace.overhead_s"] = "s"
    return names


def per_layer(workload: str, m: dict) -> dict:
    traced = [p["layers"] for p in m["traced"]]
    first = traced[0]
    values = {}
    for fn in target_names():
        values[f"{fn}.calls"] = first["calls"][fn]
        values[f"{fn}.self_s"] = statistics.median(t["self_s"][fn] for t in traced)
    for mod in TARGETS:
        values[f"{mod}.self_s"] = statistics.median(t["modules"][mod]["self_s"] for t in traced)
        values[f"{mod}.errors"] = first["modules"][mod]["errors"]
    for tag in ("first", "repeat"):
        values[f"orbitfn.eval_batch.{tag}_self_s"] = statistics.median(
            t["eval_batch_tagged"][tag] for t in traced)
    # the cli layer is timed outside the process, on the cli workload only
    values["cli.import_s"] = statistics.median(m["setups"]) if workload == "cli" else 0.0
    for k, verb in enumerate(VERBS):
        values[f"cli.{verb}.p50_ms"] = (
            1000 * statistics.median(p["latencies"][k] for p in m["plain"])
            if workload == "cli" else 0.0)
    values["trace.overhead_s"] = wall(m["traced"]) - wall(m["plain"])
    return values


def environment(seed: int) -> dict:
    """Versions as the children see them, the CPU count, the BLAS pin, the
    commit and the seed."""
    probe = run_process([sys.executable, "-c",
                         "import sys, numpy as np, json; "
                         "b = np.show_config(mode='dicts')['Build Dependencies']['blas']; "
                         "print(json.dumps({'python': sys.version.split()[0], "
                         "'numpy': np.__version__, "
                         "'blas': f\"{b.get('name')} {b.get('version')}\"}))"],
                        "env-probe")
    env = json.loads(probe["stdout"]) if probe["code"] == 0 else {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {**env, "nproc": os.cpu_count(), "blas_threads": BLAS_PIN,
            "commit": commit or "unknown (not a git checkout)", "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "orbitfuncs" / "__init__.py").is_file():
        print(f"no orbitfuncs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.environ.update(BLAS_PIN)  # for the in-process checks of the cli workload
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = m["plain"] + m["traced"]
    attempted = sum(p["tasks"] for p in passes)
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}: {len(m['plain'])} untraced and {len(m['traced'])} "
          f"traced passes, {attempted} tasks attempted, {len(m['failures'])} failed")
    for f in m["failures"][:20]:
        print(f"  FAILED task {f['id']} ({f['op']}): {f['error']}")
    if args.trace:
        values = per_layer(args.workload, m)
        units = per_layer_names()
        absent = m["traced"][0]["layers"]["absent"]
        if absent:
            print("absent trace targets (reported as 0): " + ", ".join(absent))
    else:
        values = end_to_end(m)
        units = END_TO_END
        tasks = m["plain"][0]["tasks"]
        samples = tasks * len(m["plain"])
        print(f"  wall over {len(m['plain'])} passes of {tasks} tasks, task latency "
              f"percentiles over their {samples} latencies ({int(samples * 0.1)} beyond p90), "
              f"setup over {len(m['setups'])} set-ups; times at the reference speed, "
              f"wall as measured {wall(m['plain'], 'measured'):.6g} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {"correct": not m["failures"], "attempted": attempted,
              "failed": len(m["failures"]),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "environment": env}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
