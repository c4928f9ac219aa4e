"""Command-line entry point.

Exact lattice data (grid coordinates, weights, orbit labels) is printed
as fraction strings "p/q" so that output can be re-ingested without loss;
floating-point values are printed as decimals.

Every process runs one verb, so each verb imports the layers it calls
(and numpy through them) in its body: only click and ``rootsys`` are
loaded at import time, and ``rootsys info`` runs without numpy.
"""

from __future__ import annotations

import csv
import json
import random
import sys
import time
from fractions import Fraction

import click

from . import rootsys as rsmod
from .rootsys import build, _frac_str


def _parse_vec(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(","))


def _float_cell(text: str) -> float:
    """A point coordinate, decimal or "p/q", as the float nearest to its
    exact value: float() rounds a decimal correctly, and a "p/q" goes
    through Fraction.  Adding 0.0 turns "-0" into 0.0, as Fraction does."""
    try:
        return float(text) + 0.0
    except ValueError:
        return float(Fraction(text))


def _emit(ctx, data):
    """Print a dict in the global --format.  csv prints a flat dict as a
    header row and a value row; nested data has no csv layout, so csv is
    refused for it with exit code 1."""
    out = ctx.obj["out"]
    if ctx.obj["fmt"] == "csv":
        if any(isinstance(v, (dict, list)) for v in data.values()):
            raise click.ClickException(
                f"'{ctx.command_path}' prints nested data, which has no csv "
                f"layout; use --format json or plain")
        writer = csv.writer(out)
        writer.writerow(data)
        writer.writerow(data.values())
    elif ctx.obj["fmt"] == "json":
        click.echo(json.dumps(data, indent=2), file=out)
    else:
        def walk(d, indent=""):
            if isinstance(d, dict):
                for k, v in d.items():
                    if isinstance(v, (dict, list)):
                        click.echo(f"{indent}{k}:", file=out)
                        walk(v, indent + "  ")
                    else:
                        click.echo(f"{indent}{k}: {v}", file=out)
            elif isinstance(d, list):
                for v in d:
                    walk(v, indent)
            else:
                click.echo(f"{indent}{d}", file=out)
        walk(data)


def _positive_tolerance(ctx, param, value):
    try:
        return None if value is None else rsmod._positive(value, "--tolerance")
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None


def _tolerance(ctx, default: float) -> float:
    return default if ctx.obj["tolerance"] is None else ctx.obj["tolerance"]


@click.group()
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "plain", "csv"]), show_default=True)
@click.option("--out", "outfile", default=None, type=click.Path(writable=True))
@click.option("--tolerance", default=None, type=float, callback=_positive_tolerance,
              help="override the default tolerance of a check")
@click.option("--seed", default=0, type=int, help="seed for randomized checks")
@click.pass_context
def main(ctx, fmt, outfile, tolerance, seed):
    """Weyl-group orbit functions: root data, orbits, evaluation, orbit
    algebra, grids, discrete transforms, and verification suites."""
    if tolerance is not None and ctx.invoked_subcommand not in ("plan", "check"):
        raise click.UsageError(f"--tolerance is read only by 'plan verify' and the 'check' "
                               f"verbs, not by '{ctx.invoked_subcommand}'")
    ctx.ensure_object(dict)
    ctx.obj.update(fmt=fmt, tolerance=tolerance, seed=seed,
                   out=ctx.with_resource(open(outfile, "w")) if outfile else sys.stdout)


@main.group(name="rootsys")
def rootsys_group():
    """Static root-system data."""


@rootsys_group.command(name="info")
@click.argument("diagram")
@click.pass_context
def rootsys_info(ctx, diagram):
    """Cartan matrix, metric, marks, rho and Weyl group order of a diagram."""
    rs = build(diagram)
    data = rsmod.to_json_dict(rs)
    _emit(ctx, data)


@main.group()
def orbit():
    """Weyl orbits of dominant weights."""


@orbit.command(name="signed")
@click.option("--diagram", required=True)
@click.option("--lambda", "lam", required=True, help="comma-separated omega coordinates")
@click.pass_context
def orbit_signed(ctx, diagram, lam):
    """The signed Weyl orbit of a strictly dominant weight."""
    from . import weyl as weylmod
    rs = build(diagram)
    so = weylmod.signed_orbit(rs, _parse_vec(lam))
    data = {
        "diagram": rs.id.label,
        "dominant": [_frac_str(c) for c in so.dominant],
        "points": [{"w": [_frac_str(c) for c in p], "sign": s} for p, s in so.points],
    }
    _emit(ctx, data)


@orbit.command(name="plain")
@click.option("--diagram", required=True)
@click.option("--lambda", "lam", required=True)
@click.pass_context
def orbit_plain(ctx, diagram, lam):
    """The Weyl orbit of a dominant weight."""
    from . import weyl as weylmod
    rs = build(diagram)
    pts = weylmod.orbit(rs, _parse_vec(lam))
    data = {"diagram": rs.id.label,
            "points": [[_frac_str(c) for c in p] for p in pts]}
    _emit(ctx, data)


@main.command(name="eval")
@click.option("--diagram", required=True)
@click.option("--kind", default="anti",
              type=click.Choice(["anti", "sym", "norm"]), show_default=True)
@click.option("--lambda", "lam", required=True)
@click.option("--x", "xtext", default=None, help="one point, comma-separated")
@click.option("--in", "infile", default=None, type=click.Path(exists=True),
              help="CSV of x points (header row, one coordinate per column)")
@click.pass_context
def eval_cmd(ctx, diagram, kind, lam, xtext, infile):
    """Evaluate an orbit function at one point or a CSV batch."""
    from . import orbitfn as ofmod
    rs = build(diagram)
    lamv = _parse_vec(lam)
    if (xtext is None) == (infile is None):
        raise click.UsageError("give exactly one of --x or --in")
    if xtext is not None:
        x = [_float_cell(v) for v in xtext.split(",")]
        val = ofmod.eval_orbit_function(rs, kind, lamv, x)
        _emit(ctx, {"re": val.real, "im": val.imag})
        return
    with open(infile) as fh:
        rows = list(csv.reader(fh))
    xs = [[_float_cell(v) for v in row] for row in rows[1:]]
    vals = ofmod.eval_batch(rs, kind, lamv, xs)
    writer = csv.writer(ctx.obj["out"])
    writer.writerow(rows[0] + ["re", "im"])
    for row, v in zip(rows[1:], vals):
        writer.writerow(row + [repr(float(v.real)), repr(float(v.imag))])


def _orbit_sum_payload(osum):
    out = []
    for t in osum:
        if t.label and isinstance(t.label[0], tuple):
            label = [[_frac_str(c) for c in part] for part in t.label]
        else:
            label = [_frac_str(c) for c in t.label]
        out.append({"coefficient": t.coefficient, "label": label, "kind": t.kind})
    return out


@main.command(name="product")
@click.option("--diagram", required=True)
@click.option("--plain", "plain1", default=None, help="dominant weight of a plain orbit")
@click.option("--signed", "signed1", default=None, help="strictly dominant weight")
@click.option("--plain2", default=None)
@click.option("--signed2", default=None)
@click.pass_context
def product_cmd(ctx, diagram, plain1, signed1, plain2, signed2):
    """Decompose a product of two (signed) orbits."""
    from . import orbitalg as algmod
    rs = build(diagram)
    factors = [(kind, v) for kind, v in (("orbit", plain1), ("signed", signed1),
                                         ("orbit", plain2), ("signed", signed2)) if v is not None]
    if len(factors) != 2:
        raise click.UsageError("give exactly two orbit factors")
    (kind1, lam), (kind2, mu) = factors
    osum = algmod.expand_function_product(rs, kind1, _parse_vec(lam), kind2, _parse_vec(mu))
    _emit(ctx, {"diagram": rs.id.label, "terms": _orbit_sum_payload(osum)})


@main.command(name="branch")
@click.option("--from", "source", required=True)
@click.option("--rule", required=True,
              help='"drop-last" / "drop-first" / "drop" or "split-P"')
@click.option("--lambda", "lam", required=True,
              help="orthogonal coordinates, strictly decreasing")
@click.pass_context
def branch_cmd(ctx, source, rule, lam):
    """Decompose a signed orbit into sub-root-system signed orbits."""
    from . import orbitalg as algmod
    rs = build(source)
    rule = rule.lower()
    if rule in ("drop", "drop-last", "drop-first"):
        end = "last" if rs.family == "A" else "first"   # the coordinate that drop removes
        if rule not in ("drop", f"drop-{end}") and rs.family in "ABCD":
            raise click.UsageError(f"--rule {rule} does not apply to {rs.id.label}: drop removes "
                                   f"the {end} coordinate on {rs.family}; use drop-{end} or drop")
        br = algmod.BranchRule("drop")
    elif rule.startswith("split-"):
        pos = rule[len("split-"):]
        try:
            p = int(pos)
        except ValueError:
            raise click.UsageError(f"--rule {rule} needs an integer split position after "
                                   f"'split-', got {pos!r}") from None
        br = algmod.BranchRule("split", p)
    else:
        raise click.UsageError(f"unknown rule {rule!r}")
    osum = algmod.branch(rs, br, _parse_vec(lam))
    _emit(ctx, {"diagram": rs.id.label, "rule": rule,
                "terms": _orbit_sum_payload(osum)})


@main.command(name="grid")
@click.option("--diagram", required=True)
@click.option("--m", "--M", "big_m", required=True, type=int)
@click.option("--interior", is_flag=True)
@click.pass_context
def grid_cmd(ctx, diagram, big_m, interior):
    """Points of the F_M grid as CSV with exact fraction coordinates."""
    from . import transforms as trmod
    rs = build(diagram)
    g = trmod.grid_fm(rs, big_m)
    pts = g.interior_points() if interior else g.points
    writer = csv.writer(ctx.obj["out"])
    n = rs.rank
    writer.writerow([f"s{i+1}" for i in range(n)]
                    + [f"omega{i+1}" for i in range(n)] + ["interior"])
    for p in pts:
        writer.writerow([_frac_str(Fraction(si, big_m)) for si in p.s]
                        + [_frac_str(c) for c in p.omega] + [int(p.interior)])


ONE_D_KINDS = ("sine", "cosine", "dct1", "dct2", "dct3", "dct4",
               "dst1", "dst2", "dst3", "dst4")


@main.command(name="transform")
@click.option("--kind", required=True)
@click.option("--n", "nvars", type=int, default=2, show_default=True,
              help="number of variables for the multivariate kinds")
@click.option("--N", "--M", "size", required=True, type=int)
@click.option("--in", "infile", required=True, type=click.Path(exists=True))
@click.option("--direction", default="forward",
              type=click.Choice(["forward", "inverse"]), show_default=True)
@click.pass_context
def transform_cmd(ctx, kind, nvars, size, infile, direction):
    """Apply a 1-D or multivariate discrete transform to a CSV signal.

    The input CSV needs a header row and a final value column (complex
    values as two columns re,im are also accepted); rows must match the
    plan's grid/label order, which the forward output documents.
    """
    import numpy as np
    from . import transforms as trmod
    if kind.lower() in ONE_D_KINDS:
        plan = trmod.dst_dct_1d(kind, size)
    else:
        plan = trmod.multivariate_plan(kind, nvars, size)
    with open(infile) as fh:
        rows = list(csv.reader(fh))
    header = [h.strip().lower() for h in rows[0]]
    if header[-2:] == ["re", "im"]:
        f = np.array([_float_cell(r[-2]) + 1j * _float_cell(r[-1]) for r in rows[1:]])
    else:
        f = np.array([_float_cell(r[-1]) for r in rows[1:]], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(f))
    if len(bad):
        raise ValueError(f"signal value {bad[0]} is not finite: {rows[bad[0] + 1]}")
    expect = len(plan.grid) if direction == "forward" else len(plan.labels)
    if len(f) != expect:
        raise click.ClickException(
            f"signal length {len(f)} does not match the plan ({expect})")
    out = plan.forward(f) if direction == "forward" else plan.inverse(f)
    keys = plan.labels if direction == "forward" else plan.grid
    writer = csv.writer(ctx.obj["out"])
    writer.writerow(["index", "re", "im"])
    for k, v in zip(keys, out):
        kstr = (";".join(_frac_str(c) for c in k) if isinstance(k, tuple)
                else _frac_str(k))
        writer.writerow([kstr, repr(float(v.real)), repr(float(v.imag))])


@main.group(name="plan")
def plan_group():
    """Finite orbit-function transform plans."""


@plan_group.command(name="verify")
@click.option("--diagram", required=True)
@click.option("--m", "--M", "big_m", required=True, type=int)
@click.pass_context
def plan_verify(ctx, diagram, big_m):
    """Build the F_M plan and print the worst Gram deviation."""
    from . import transforms as trmod
    rs = build(diagram)
    tol = _tolerance(ctx, 1e-9)
    try:
        plan = trmod.build_plan(rs, big_m, tol=tol)
    except trmod.PlanSeparationError as exc:
        raise click.ClickException(str(exc))
    _emit(ctx, {"diagram": rs.id.label, "M": big_m, "labels": len(plan.labels),
                "gram_diagonal": plan.norm, "max_residual": plan.residual})


@main.group(name="check")
def check_group():
    """Numerical verification of operator identities."""


@check_group.command(name="laplace")
@click.option("--diagram", required=True)
@click.option("--lambda", "lam", required=True, help="orthogonal coordinates")
@click.option("--trials", default=20, type=int, show_default=True)
@click.pass_context
def check_laplace(ctx, diagram, lam, trials):
    """The Laplace eigenvalue of antisymmetric orbit functions."""
    from . import analysis as anmod
    rs = build(diagram)
    tol = _tolerance(ctx, 1e-5)
    rng = random.Random(ctx.obj["seed"])
    m = _parse_vec(lam)
    worst = 0.0
    for _ in range(trials):
        r = rsmod.orth_dim(rs)
        x = sorted((rng.uniform(0.05, 0.45) for _ in range(r)), reverse=True)
        x = [v + 0.3 * (r - i) for i, v in enumerate(x)]
        _, _, rel = anmod.laplace_check(rs, m, x)
        worst = max(worst, rel)
    _emit(ctx, {"diagram": rs.id.label, "max_rel_err": worst, "tolerance": tol})
    if worst > tol:
        sys.exit(1)


@check_group.command(name="shift")
@click.option("--diagram", required=True)
@click.option("--lambda", "lam", required=True, help="omega coordinates")
@click.option("--trials", default=20, type=int, show_default=True)
@click.pass_context
def check_shift(ctx, diagram, lam, trials):
    """Shift-operator eigenrelations at random pairs of points."""
    from . import analysis as anmod
    rs = build(diagram)
    tol = _tolerance(ctx, 1e-10)
    rng = random.Random(ctx.obj["seed"])
    lamv = _parse_vec(lam)
    worst = 0.0
    for _ in range(trials):
        x = [rng.uniform(-0.6, 0.6) for _ in range(rs.rank)]
        y = [rng.uniform(-0.6, 0.6) for _ in range(rs.rank)]
        for variant in ("det_on_anti", "plain_on_anti", "det_on_sym"):
            worst = max(worst, anmod.shift_operator_check(rs, lamv, x, y, variant))
    _emit(ctx, {"diagram": rs.id.label, "max_rel_err": worst, "tolerance": tol})
    if worst > tol:
        sys.exit(1)


@check_group.command(name="hermite")
@click.option("--max-degree", default=4, type=int, show_default=True)
@click.pass_context
def check_hermite(ctx, max_degree):
    """Hermite eigenfunctions of the (anti)symmetrized 2-D transform."""
    from . import analysis as anmod
    tol = _tolerance(ctx, 1e-5)
    quad = anmod.PlaneWaveQuadrature.make(6.0, 400)
    worst = 0.0
    for total in range(1, max_degree + 1):
        for m1 in range(total + 1):
            m2 = total - m1
            if m1 > m2:
                worst = max(worst, anmod.transform_eigen_check(
                    (m1, m2), "anti", quadrature=quad))
            if m1 >= m2:
                worst = max(worst, anmod.transform_eigen_check(
                    (m1, m2), "sym", quadrature=quad))
    _emit(ctx, {"max_rel_err": worst, "tolerance": tol})
    if worst > tol:
        sys.exit(1)


@main.command(name="selftest")
@click.option("--quick/--full", default=True)
@click.pass_context
def selftest(ctx, quick):
    """Run the invariant suite and report pass/fail per property."""
    import numpy as np
    from . import weyl as weylmod, orbitfn as ofmod, orbitalg as algmod
    from . import transforms as trmod, analysis as anmod
    rng = random.Random(ctx.obj["seed"])
    out = ctx.obj["out"]
    failures = 0
    t0 = time.time()

    def report(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {name}{': ' + detail if detail else ''}", file=out)
        failures += 0 if ok else 1

    orders = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
              "C2": 8, "C3": 48, "D4": 192, "G2": 12}
    report("weyl group orders",
           all(len(weylmod.generate_group(build(k))) == v for k, v in orders.items()))

    a2 = build("A2")
    so = weylmod.signed_orbit(a2, (1, 2))
    report("signed orbit size and signs",
           len(so.points) == 6 and sum(s for _, s in so.points) == 0)

    ok = True
    for label in (["A3", "C3"] if quick else ["A2", "A3", "B3", "C3", "D4"]):
        rs = build(label)
        for _ in range(5 if quick else 25):
            r = rsmod.orth_dim(rs)
            m = sorted(rng.sample(range(1, 9), r), reverse=True)
            x = [rng.uniform(-1, 1) for _ in range(r)]
            a = ofmod.eval_orth(rs, "anti", m, x)
            b = ofmod.closed_form_orth(rs, "anti", m, x)
            ok &= abs(a - b) < 1e-10 * (1 + abs(a))
    report("closed forms match group sums", ok)

    ok = True
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for _ in range(5):
            x = [rng.uniform(-1, 1) for _ in range(rs.rank)]
            anti, _ = ofmod.rho_products(rs, x)
            ref = ofmod.eval_orbit_function(rs, "anti", rs.rho, x)
            ok &= abs(anti - ref) < 1e-10 * (1 + abs(ref))
    report("rho sine product identity", ok)

    try:
        plan = trmod.build_plan(a2, 5)
        coeffs = np.array([rng.uniform(-1, 1) for _ in plan.labels])
        resid = float(np.max(np.abs(plan.forward(plan.inverse(coeffs)) - coeffs)))
        report("finite transform round trip", resid < 1e-10, f"residual {resid:.1e}")
    except trmod.PlanSeparationError as exc:
        report("finite transform round trip", False, str(exc))

    ok = True
    for kind in ["dct1", "dct2", "dct3", "dct4", "dst1", "dst2", "dst3", "dst4"]:
        p = trmod.dst_dct_1d(kind, 8)
        ok &= p.gram_residual() < 1e-12 * float(np.max(p.norms))
    report("1-D transform orthogonality", ok)

    ok = True
    kinds = ["anti_sine", "sym_cosine"] if quick else \
        ["anti_exp", "sym_exp", "anti_sine", "sym_cosine",
         "amdct1", "amdct2", "amdct3", "amdct4",
         "smdct1", "smdct2", "smdct3", "smdct4"]
    for kind in kinds:
        p = trmod.multivariate_plan(kind, 2, 5)
        ok &= p.gram_residual() < 1e-10 * float(np.max(p.norms))
    report("multivariate transform orthogonality", ok)

    _, _, rel = anmod.laplace_check(build("C2"), (2, 1), (0.71, 0.33))
    report("laplace eigenproperty", rel < 1e-5, f"rel err {rel:.1e}")

    worst = max(anmod.shift_operator_check(a2, (2, 1), (0.21, -0.37), (0.11, 0.4), v)
                for v in ("det_on_anti", "plain_on_anti", "det_on_sym"))
    report("shift operator eigenrelations", worst < 1e-10, f"rel err {worst:.1e}")

    report("power-sum identities",
           ofmod.an_identity("cha5", s=2, r=3, m=3) == 0.0
           and ofmod.an_identity("cha6", n=3, m=2) == 0.0)

    osum = algmod.branch(build("A2"), algmod.BranchRule("drop"), (2, 1, 0))
    report("branching A-chain", {(t.label, t.coefficient) for t in osum} ==
           {((Fraction(2), Fraction(1)), 1), ((Fraction(2), Fraction(0)), -1),
            ((Fraction(1), Fraction(0)), 1)})

    if not quick:
        rel = anmod.transform_eigen_check((2, 1), "anti")
        report("hermite transform eigenfunction", rel < 1e-5, f"rel err {rel:.1e}")
        resid = trmod.continuous_orthogonality_residual(a2, (2, 1), (1, 2), 200)
        report("continuous orthogonality", resid < 1e-4, f"residual {resid:.1e}")
        ok = True
        for label in ["A2", "C2"]:
            rs = build(label)
            for _ in range(10):
                lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
                mu = tuple(rng.randint(1, 3) for _ in range(rs.rank))
                xs = np.array([[rng.uniform(-1, 1) for _ in range(rs.rank)]
                               for _ in range(4)])
                prod = (ofmod.eval_batch(rs, "sym", lam, xs)
                        * ofmod.eval_batch(rs, "anti", mu, xs))
                expansion = sum(t.coefficient * ofmod.eval_batch(rs, "anti", t.label, xs)
                                for t in algmod.product_plain_signed(rs, lam, mu))
                ok &= bool(np.all(np.abs(prod - expansion) < 1e-10 * (1 + np.abs(prod))))
        report("orbit product expansion", ok)

    click.echo(f"selftest {'quick' if quick else 'full'} finished in "
               f"{time.time() - t0:.1f} s, {failures} failure(s)", file=out)
    if failures:
        sys.exit(1)


def run():
    """Console entry point: domain errors exit 1 with their message
    instead of a traceback; usage errors keep click's exit code 2."""
    try:
        main(standalone_mode=True)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
