"""Executors and correctness checks for the tasks of ``workloads.py``.

``run(ctx, task)`` makes the task's arrays from its seed, calls the
library inside ``ctx.timed()`` sections only, and returns the evidence
its check needs.  ``check(ctx, task, evidence)`` runs after the whole
timed list, so that the library calls a check makes (``eval_batch``,
``eval_orth``, ``generate_group`` ...) cannot warm a cache that a later
timed task would otherwise find cold.  A check returns ``None`` on
success or a one-line reason.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from workloads import SERIES_POOL, orth_len

TWO_PI = 2.0 * math.pi
SHIFT_VARIANTS = ("det_on_anti", "plain_on_anti", "det_on_sym")


def load_library() -> SimpleNamespace:
    names = ("rootsys", "weyl", "orbitfn", "orbitalg", "transforms", "analysis")
    return SimpleNamespace(**{n: importlib.import_module(f"orbitfuncs.{n}") for n in names})


class Context:
    """State of one pass over a task list: the library modules, the root
    systems built at set-up, the (diagram, kind, weight) keys already sent
    to eval_batch by any task, and the time spent inside the library for
    the current task."""

    def __init__(self, lib, systems: dict, tracer=None):
        self.lib = lib
        self.rs = systems
        self.tracer = tracer
        self.seen: set = set()
        self.elapsed = 0.0
        self._groups: dict = {}

    @contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0

    def send(self, diagram: str, kind: str, lam) -> str:
        """Record that eval_batch gets this key; "first" if no task has
        sent it before, else "repeat"."""
        key = (diagram, kind, tuple(lam))
        tag = "repeat" if key in self.seen else "first"
        self.seen.add(key)
        return tag

    def system(self, label: str):
        if label not in self.rs:
            self.rs[label] = self.lib.rootsys.build(label)
        return self.rs[label]

    def group(self, rs):
        """The Weyl group as a float (|W|, n, n) array and its dets."""
        if rs.id not in self._groups:
            elems = self.lib.weyl.generate_group(rs)
            mats = np.array([w.matrix for w in elems], dtype=float)
            dets = np.array([w.det for w in elems], dtype=float)
            self._groups[rs.id] = (mats, dets)
        return self._groups[rs.id]


def _floats(v) -> list[float]:
    return [float(c) for c in v]


def _metric(rs) -> np.ndarray:
    return np.array([_floats(row) for row in rs.metric])


def _coroot(ctx, rs, x) -> tuple:
    """Exact coroot coordinates of a float point given in omega coordinates."""
    r = ctx.lib.rootsys
    return r.vec_mat(r.vec([Fraction(c) for c in x]), rs.metric)


def _close(a, b, tol) -> bool:
    return abs(complex(a) - complex(b)) <= tol * (1.0 + abs(complex(b)))


def group_sum(ctx, rs, kind: str, labels, xs: np.ndarray) -> np.ndarray:
    """Orbit sums at omega-coordinate points, by a vectorized sum over the
    group matrices: kind "signed" gives sum_w det(w) e(w nu, x), kind
    "orbit" the sum over the distinct points of the orbit of nu.  Returns
    a (labels, points) array.  This route shares no code with orbitalg or
    with eval_batch's orbit enumeration."""
    if not len(labels):
        return np.zeros((0, len(xs)), dtype=complex)
    mats, dets = ctx.group(rs)
    lab = np.array([_floats(v) for v in labels])
    imgs = np.einsum("gij,tj->tgi", mats, lab)
    waves = np.exp(TWO_PI * 1j * (imgs @ _metric(rs) @ xs.T))
    if kind == "signed":
        return np.einsum("g,tgp->tp", dets, waves)
    stab = np.all(np.abs(imgs - lab[:, None, :]) < 1e-9, axis=2).sum(axis=1)
    return waves.sum(axis=1) / stab[:, None]


# -- plans -----------------------------------------------------------------

def run_build_plan(ctx, t):
    tr = ctx.lib.transforms
    rs = ctx.rs[t["diagram"]]
    rng = np.random.default_rng(t["seed"])
    if t["labels"] is None:
        with ctx.timed():
            plan = tr.build_plan(rs, t["M"])
    else:
        with ctx.timed():
            pool = tr.default_labels(rs, t["M"])
        pick = sorted(rng.choice(len(pool), t["labels"], replace=False))
        with ctx.timed():
            plan = tr.build_plan(rs, t["M"], [pool[i] for i in pick])
    n_lab = len(plan.labels)
    a = rng.standard_normal(n_lab) + 1j * rng.standard_normal(n_lab)
    with ctx.timed():
        back = plan.forward(plan.inverse(a))
    gram = plan.gram()
    cells = [(int(rng.integers(n_lab)), int(rng.integers(len(plan.grid))))
             for _ in range(3)]
    return {
        "labels": n_lab,
        "roundtrip": float(np.max(np.abs(back - a)) / np.max(np.abs(a))),
        "gram": float(np.max(np.abs(gram - plan.norm * np.eye(n_lab))) / plan.norm),
        "samples": [(plan.labels[i], _floats(plan.grid[j].omega), plan.kernel[i, j])
                    for i, j in cells],
    }


def check_build_plan(ctx, t, ev):
    if ev["roundtrip"] > 1e-10:
        return f"round trip error {ev['roundtrip']:.2e}"
    if ev["gram"] > 1e-10:
        return f"gram residual {ev['gram']:.2e} of the diagonal"
    rs = ctx.rs[t["diagram"]]
    for lam, omega, value in ev["samples"]:
        ref = ctx.lib.orbitfn.eval_batch(rs, "anti", lam, np.array([omega]))[0]
        if not _close(value, ref, 1e-9):
            return f"kernel entry {value} != eval_batch {ref} at {lam}, {omega}"
    return None


def run_multivariate_plan(ctx, t):
    tr = ctx.lib.transforms
    rng = np.random.default_rng(t["seed"])
    with ctx.timed():
        plan = tr.multivariate_plan(t["kind"], t["n"], t["N"])
    n_lab = len(plan.labels)
    a = rng.standard_normal(n_lab) + 1j * rng.standard_normal(n_lab)
    with ctx.timed():
        back = plan.forward(plan.inverse(a))
    resid = plan.gram_residual()
    return {"labels": n_lab,
            "roundtrip": float(np.max(np.abs(back - a)) / np.max(np.abs(a))),
            "gram": float(resid / np.max(plan.norms))}


def check_multivariate_plan(ctx, t, ev):
    if ev["roundtrip"] > 1e-10:
        return f"round trip error {ev['roundtrip']:.2e}"
    if ev["gram"] > 1e-10:
        return f"gram residual {ev['gram']:.2e} of max(norms)"
    return None


# -- evaluate --------------------------------------------------------------

def _lam(rs, t):
    return tuple(rs.rho) if t["lam"] == "rho" else tuple(t["lam"])


def run_eval_batch(ctx, t):
    rs = ctx.rs[t["diagram"]]
    lam = _lam(rs, t)
    rng = np.random.default_rng(t["seed"])
    xs = rng.uniform(-1.0, 1.0, size=(t["points"], rs.rank))
    tag = ctx.send(t["diagram"], t["kind"], lam)
    if ctx.tracer is not None:
        ctx.tracer.tag = tag
    try:
        with ctx.timed():
            vals = ctx.lib.orbitfn.eval_batch(rs, t["kind"], lam, xs)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.tag = None
    idx = rng.choice(len(xs), 2, replace=False)
    return {"tag": tag, "shape": vals.shape, "x": xs[idx], "vals": vals[idx]}


def check_eval_batch(ctx, t, ev):
    of = ctx.lib.orbitfn
    rs = ctx.rs[t["diagram"]]
    lam = _lam(rs, t)
    if ev["shape"] != (t["points"],):
        return f"result shape {ev['shape']}"
    for x, val in zip(ev["x"], ev["vals"]):
        exact = of.eval_coroot_point(rs, t["kind"], lam, _coroot(ctx, rs, x))
        if not _close(val, exact, 1e-9):
            return f"eval_batch {val} != exact-phase value {exact} at {list(x)}"
        if t["lam"] == "rho" and not _close(val, of.rho_products(rs, x)[0], 1e-10):
            return f"rho function {val} != rho product at {list(x)}"
    return None


def run_orth_pair(ctx, t):
    of = ctx.lib.orbitfn
    rs = ctx.rs[t["diagram"]]
    x = np.random.default_rng(t["seed"]).uniform(-1.0, 1.0, orth_len(t["diagram"]))
    with ctx.timed():
        group = of.eval_orth(rs, t["kind"], t["m"], x)
        closed = of.closed_form_orth(rs, t["kind"], t["m"], x)
    return {"group": group, "closed": closed}


def check_orth_pair(ctx, t, ev):
    if abs(ev["group"] - ev["closed"]) > 1e-10 * (1 + abs(ev["group"])):
        return f"group sum {ev['group']} != closed form {ev['closed']}"
    return None


def interior_point(rng, rs, margin: float = 0.1) -> np.ndarray:
    """A point of F well inside its walls: barycentric weights of at least
    margin/(n+1) on the vertices 0 and omega_i / q_i."""
    n = rs.rank
    w = margin / (n + 1) + (1 - margin) * rng.dirichlet(np.ones(n + 1))
    return np.array([w[i + 1] / q for i, q in enumerate(rs.comarks)])


def run_character(ctx, t):
    rs = ctx.rs[t["diagram"]]
    x = interior_point(np.random.default_rng(t["seed"]), rs)
    # character evaluates the anti functions of rho and lam + rho
    ctx.send(t["diagram"], "anti", rs.rho)
    ctx.send(t["diagram"], "anti", [c + r for c, r in zip(t["lam"], rs.rho)])
    with ctx.timed():
        chi = ctx.lib.orbitfn.character(rs, t["lam"], x)
    return {"x": x, "chi": chi}


def check_character(ctx, t, ev):
    of = ctx.lib.orbitfn
    rs = ctx.rs[t["diagram"]]
    shifted = tuple(c + r for c, r in zip(t["lam"], rs.rho))
    num = of.eval_coroot_point(rs, "anti", shifted, _coroot(ctx, rs, ev["x"]))
    got = ev["chi"] * of.rho_products(rs, ev["x"])[0]
    if not _close(got, num, 1e-9):
        return f"character x rho product {got} != {num}"
    return None


def run_series(ctx, t):
    of, tr = ctx.lib.orbitfn, ctx.lib.transforms
    rs = ctx.rs[t["diagram"]]
    rng = np.random.default_rng(t["seed"])
    mus = [tuple(m) for m in t["mus"]]
    cs = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)

    def f(pts):
        return sum(c * of.eval_batch(rs, "anti", mu, pts) for c, mu in zip(cs, mus))

    for lab in SERIES_POOL:  # f sends mus, the quadrature every label
        ctx.send(t["diagram"], "anti", lab)
    with ctx.timed():
        coeffs = tr.series_coefficients(rs, f, SERIES_POOL, 200)
    expect = np.array([cs[mus.index(lab)] if lab in mus else 0.0 for lab in SERIES_POOL])
    return {"error": float(np.max(np.abs(coeffs - expect)))}


def check_series(ctx, t, ev):
    return None if ev["error"] < 1e-4 else f"series coefficient error {ev['error']:.2e}"


def _anti_orth_closed(family: str, m, x) -> complex:
    """The A/B/C antisymmetric functions in orthogonal coordinates by one
    numpy determinant; used only to pick well-conditioned points."""
    if family == "A":
        return complex(np.linalg.det(np.exp(TWO_PI * 1j * np.outer(m, x))))
    return (2j) ** len(m) * np.linalg.det(np.sin(TWO_PI * np.outer(m, x)))


def run_laplace(ctx, t):
    rs = ctx.rs[t["diagram"]]
    rng = np.random.default_rng(t["seed"])
    r = orth_len(t["diagram"])
    m = [float(v) for v in t["m"]]
    # like `orbitfuncs check laplace`, but away from the zeros of the
    # function, where a relative error has no meaning
    for _ in range(200):
        base = np.sort(rng.uniform(0.05, 0.45, r))[::-1]
        x = base + 0.3 * (r - np.arange(r))
        if abs(_anti_orth_closed(t["diagram"][0], m, x)) >= 1.0:
            break
    with ctx.timed():
        _, _, rel = ctx.lib.analysis.laplace_check(rs, t["m"], list(x))
    return {"rel": rel}


def check_laplace(ctx, t, ev):
    return None if ev["rel"] < 1e-5 else f"laplace relative error {ev['rel']:.2e}"


def run_shift(ctx, t):
    rs = ctx.rs[t["diagram"]]
    rng = np.random.default_rng(t["seed"])
    x = list(rng.uniform(-0.6, 0.6, rs.rank))
    y = list(rng.uniform(-0.6, 0.6, rs.rank))
    for kind in ("anti", "sym"):
        ctx.send(t["diagram"], kind, t["lam"])
    with ctx.timed():
        worst = max(ctx.lib.analysis.shift_operator_check(rs, t["lam"], x, y, v)
                    for v in SHIFT_VARIANTS)
    return {"rel": worst}


def check_shift(ctx, t, ev):
    return None if ev["rel"] < 1e-10 else f"shift relative error {ev['rel']:.2e}"


def run_eigen(ctx, t):
    with ctx.timed():
        rel = ctx.lib.analysis.transform_eigen_check(tuple(t["m"]), t["variant"])
    return {"rel": rel}


def check_eigen(ctx, t, ev):
    return None if ev["rel"] < 1e-5 else f"eigen residual {ev['rel']:.2e}"


# -- algebra ---------------------------------------------------------------

def run_generate_group(ctx, t):
    rs = ctx.rs[t["diagram"]]
    with ctx.timed():
        group = ctx.lib.weyl.generate_group(rs)
    return {"order": len(group), "distinct": len({w.matrix for w in group}),
            "dets": sorted({w.det for w in group})}


def check_generate_group(ctx, t, ev):
    order = ctx.rs[t["diagram"]].weyl_order
    if not ev["order"] == ev["distinct"] == order or ev["dets"] != [-1, 1]:
        return f"group of {ev['order']} ({ev['distinct']} distinct) != |W| = {order}"
    return None


# the group_sum kinds of the two factors of each product
PRODUCT_KINDS = {
    "product_signed_signed": ("signed", "signed"),
    "product_plain_signed": ("orbit", "signed"),
    "product_plain_signed_coset": ("orbit", "signed"),
    "product_plain_plain": ("orbit", "orbit"),
}


def run_product(ctx, t):
    rs = ctx.rs[t["diagram"]]
    fn = getattr(ctx.lib.orbitalg, t["op"])
    with ctx.timed():
        terms = fn(rs, t["lam"], t["mu"])
    xs = np.random.default_rng(t["seed"]).uniform(-1.0, 1.0, (3, rs.rank))
    return {"terms": terms, "x": xs}


def check_product(ctx, t, ev):
    rs = ctx.rs[t["diagram"]]
    xs = ev["x"]
    k1, k2 = PRODUCT_KINDS[t["op"]]
    lhs = group_sum(ctx, rs, k1, [t["lam"]], xs)[0] * group_sum(ctx, rs, k2, [t["mu"]], xs)[0]
    rhs = np.zeros(len(xs), dtype=complex)
    for kind in ("orbit", "signed"):
        terms = [term for term in ev["terms"] if term.kind == kind]
        if terms:
            coeffs = np.array([term.coefficient for term in terms])
            rhs += coeffs @ group_sum(ctx, rs, kind, [term.label for term in terms], xs)
    # the product has at most |W|^2 exponentials of modulus 1
    tol = 1e-10 * (1 + rs.weyl_order ** 2)
    if np.max(np.abs(lhs - rhs)) > tol:
        return f"product {lhs} != expansion {rhs}"
    return None


def run_rho_cosine(ctx, t):
    rs = ctx.rs[t["diagram"]]
    with ctx.timed():
        dec = ctx.lib.orbitfn.rho_cosine_orbit_decomposition(rs)
    xs = np.random.default_rng(t["seed"]).uniform(-1.0, 1.0, (3, rs.rank))
    return {"dec": dict(dec), "x": xs}


def check_rho_cosine(ctx, t, ev):
    rs = ctx.rs[t["diagram"]]
    labels = list(ev["dec"])
    vals = np.array([ev["dec"][lab] for lab in labels]) @ group_sum(
        ctx, rs, "orbit", labels, ev["x"])
    n_pos = len(ctx.lib.weyl.positive_roots(rs))
    for x, val in zip(ev["x"], vals):
        ref = ctx.lib.orbitfn.rho_products(rs, x)[1]
        if abs(val - ref) > 1e-10 * 2 ** n_pos:
            return f"orbit expansion {val} != cosine product {ref}"
    return None


def _sub_diagrams(family: str, rule: str, r: int, p: int) -> list[str]:
    """Diagram labels of the factors of a branching rule, from the
    orthogonal coordinate counts of the restricted parts."""
    def label(fam, length):
        return f"A{length - 1}" if fam == "A" else f"{fam}{length}"
    if rule == "drop":
        return [label(family, r - 1)]
    return [label("A", p), label(family, r - p)]


def run_branch(ctx, t):
    alg = ctx.lib.orbitalg
    rs = ctx.rs[t["diagram"]]
    rule = alg.BranchRule(t["rule"], t["p"])
    with ctx.timed():
        terms = alg.branch(rs, rule, t["m"])
    dim = len(t["m"]) - (t["rule"] == "drop")
    xs = np.random.default_rng(t["seed"]).uniform(-1.0, 1.0, (3, dim))
    return {"terms": terms, "x": xs}


def check_branch(ctx, t, ev):
    of = ctx.lib.orbitfn
    rs = ctx.rs[t["diagram"]]
    fam, r, p = t["diagram"][0], len(t["m"]), t["p"]
    subs = [ctx.system(d) for d in _sub_diagrams(fam, t["rule"], r, p)]
    for x in ev["x"]:
        x = list(x)
        if t["rule"] == "drop":
            full = x + [0.0] if fam == "A" else [0.0] + x
            parts = [x]
        else:
            full, parts = x, [x[:p], x[p:]]
        lhs = of.eval_orth(rs, "anti", t["m"], full)
        rhs = 0j
        for term in ev["terms"]:
            labels = [term.label] if t["rule"] == "drop" else list(term.label)
            value = complex(term.coefficient)
            for sub, lab, part in zip(subs, labels, parts):
                value *= of.eval_orth(sub, "anti", lab, part)
            rhs += value
        if abs(lhs - rhs) > 1e-9 * (1 + rs.weyl_order):
            return f"restriction {lhs} != branching sum {rhs} at {x}"
    return None


def run_dimension(ctx, t):
    rs = ctx.rs[t["diagram"]]
    with ctx.timed():
        dim = ctx.lib.orbitfn.dimension(rs, t["lam"])
    return {"dim": dim}


def classical_dimension(ctx, rs, lam) -> Fraction:
    """Weyl's dimension formula in the classical coordinates of each
    family (and the closed G2 polynomial), as an exact rational."""
    fam, n = rs.family, rs.rank
    shifted = tuple(Fraction(c) + 1 for c in lam)
    if fam == "G":
        a, b = shifted
        return a * b * (a + b) * (2 * a + b) * (3 * a + b) * (3 * a + 2 * b) / 120

    def weyl_product(v):
        m = ctx.lib.rootsys.to_orthogonal(rs, v)
        out = Fraction(1)
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                out *= (m[i] - m[j]) if fam == "A" else (m[i] ** 2 - m[j] ** 2)
            if fam in "BC":
                out *= m[i]
        return out

    return weyl_product(shifted) / weyl_product((1,) * n)


def check_dimension(ctx, t, ev):
    ref = classical_dimension(ctx, ctx.rs[t["diagram"]], t["lam"])
    return None if ev["dim"] == ref else f"dimension {ev['dim']} != {ref}"


OPS = {
    "build_plan": (run_build_plan, check_build_plan),
    "multivariate_plan": (run_multivariate_plan, check_multivariate_plan),
    "eval_batch": (run_eval_batch, check_eval_batch),
    "orth_pair": (run_orth_pair, check_orth_pair),
    "character": (run_character, check_character),
    "series": (run_series, check_series),
    "laplace": (run_laplace, check_laplace),
    "shift": (run_shift, check_shift),
    "eigen": (run_eigen, check_eigen),
    "generate_group": (run_generate_group, check_generate_group),
    "rho_cosine": (run_rho_cosine, check_rho_cosine),
    "branch": (run_branch, check_branch),
    "dimension": (run_dimension, check_dimension),
    **{op: (run_product, check_product) for op in PRODUCT_KINDS},
}
