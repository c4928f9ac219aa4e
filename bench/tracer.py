"""Span tracing of the orbitfuncs layers from outside the library.

The tracer replaces each public layer function with a thin wrapper that
records a span (name, start, end, parent span, task id, tag, error) and
calls the original.  It patches the defining module and every sibling
module or class that holds the same object under the same name, so that
``from .orbitfn import eval_batch`` inside ``transforms`` is traced too.
Spans stay in memory until the run ends; ``uninstall`` restores every
original.  A target that no longer exists is listed in ``absent`` instead
of raising, so the benchmark keeps working when a layer function is
renamed or removed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "orbitfuncs"

#: Layer functions to trace, by module; ``Class.method`` names methods.
TARGETS = {
    "rootsys": ["build"],
    "weyl": ["generate_group", "signed_orbit", "orbit", "to_dominant",
             "stabilizer_order", "positive_roots"],
    "orbitfn": ["eval_batch", "eval_coroot_point", "eval_orth",
                "closed_form_orth", "character", "dimension",
                "rho_cosine_orbit_decomposition"],
    "orbitalg": ["product_signed_signed", "product_plain_signed",
                 "product_plain_signed_coset", "product_plain_plain", "branch"],
    "transforms": ["grid_fm", "default_labels", "build_plan", "multivariate_plan",
                   "TransformPlan.forward", "TransformPlan.inverse",
                   "DiscretePlan.forward", "DiscretePlan.inverse",
                   "DiscretePlan.gram_residual", "series_coefficients"],
    "analysis": ["laplace_check", "shift_operator_check", "transform_eigen_check"],
}

# span fields
NAME, START, END, PARENT, TASK, TAG, ERROR = range(7)


def target_names(targets=TARGETS) -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in targets.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.task = None
        self.tag = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = {}
        for name in targets:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                modules[name] = None
        # every loaded module of the package, for rebound names
        siblings = [m for key, m in sorted(sys.modules.items())
                    if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, fns in targets.items():
            module = modules[mod_name]
            for fn_name in fns:
                full = f"{mod_name}.{fn_name}"
                owner, attr = module, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None or not callable(original):
                    self.absent.append(full)
                    continue
                wrapper = self._wrap(full, original)
                self._patch(owner, attr, original, wrapper)
                if owner is module:
                    for other in siblings:
                        if other is not module and other.__dict__.get(attr) is original:
                            self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.task, self.tag, False]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """Write the absent targets, then one JSON line per span: name,
        start, end, parent, task, tag, error."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[list[list], list[str]]:
    """The spans and absent targets written by ``Tracer.dump``."""
    with open(path) as fh:
        absent = json.loads(fh.readline())["absent"]
        return [json.loads(line) for line in fh], absent


# -- aggregation -----------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover (overlapping children are merged, children are clipped to the
    parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarize(spans, targets=TARGETS) -> dict:
    """Per-function calls and self time, per-module self time and
    errors, and the self time of top-level ``eval_batch`` calls split by
    their tag (``first`` / ``repeat``)."""
    calls = {name: 0 for name in target_names(targets)}
    self_s = {name: 0.0 for name in calls}
    modules = {mod: {"self_s": 0.0, "errors": 0} for mod in targets}
    tagged = {"first": 0.0, "repeat": 0.0}
    for span, st in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += st
        mod = name.split(".", 1)[0]
        modules[mod]["self_s"] += st
        modules[mod]["errors"] += int(span[ERROR])
        if name == "orbitfn.eval_batch" and span[PARENT] < 0 and span[TAG] in tagged:
            tagged[span[TAG]] += st
    return {"calls": calls, "self_s": self_s, "modules": modules,
            "eval_batch_tagged": tagged}
