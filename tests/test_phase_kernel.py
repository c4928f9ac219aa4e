"""Every float phase of the library goes through one kernel, ``orbitfn._cis``.

The first test reads the source: ``TWO_PI`` is read only inside ``_cis``,
and no module calls ``np.sin``, ``np.cos`` or a complex ``np.exp`` outside
``_cis`` and the textbook tables of ``transforms._dct_dst_data``; the
second shows that the parser finds such a call.  The next ones pin the
kernel itself: its table of 4096 turns against mpmath, its conjugate
symmetry, and its blocks and shapes against ``cis_oracle``, the kernel it
replaced.  The last two bound the
error of the two defining sums against 50-digit mpmath sums, with bounds from the condition number of each sum (its term
count, Σ|c| and the size of its phases) in units of the roundoff
u = 2**-53, not one fixed relative tolerance.
"""

import ast
import math
import pathlib
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orbitfuncs
from orbitfuncs import orbitfn
from orbitfuncs.orbitfn import eval_coroot_point, eval_orth_batch, _cis
from orbitfuncs.rootsys import build, orth_dim, to_orthogonal

from orbit_oracles import (
    cis_oracle, orbit_oracle, orth_group, signed_orbit_oracle, stabilizer_oracle,
)

U = 2.0 ** -53
SRC = pathlib.Path(orbitfuncs.__file__).parent

#: the functions allowed a phase of their own: the kernel itself, and the
#: one-variable tables that tests/test_transforms.py pins bit for bit to
#: their np.cos / np.sin / np.exp definitions
TRIG_OWNERS = {("orbitfn", "_cis"), ("transforms", "_dct_dst_data")}


def _phase_uses(tree: ast.Module):
    """(function, what) for every use of TWO_PI, of np.sin / np.cos, and of
    np.exp of an expression with an imaginary literal; the function is the
    dotted name of the enclosing def (None at module level), so a lambda
    counts as part of its def."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Name) and node.id == "TWO_PI":
            found.append((owner, "TWO_PI" if isinstance(node.ctx, ast.Load) else "TWO_PI="))
        elif isinstance(node, ast.alias) and node.name == "TWO_PI":
            found.append((owner, "import TWO_PI"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "np" and node.attr in ("sin", "cos"):
            found.append((owner, f"np.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "exp" and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, complex)
                    for arg in node.args for c in ast.walk(arg)):
            found.append((owner, "complex exp"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_every_phase_goes_through_cis():
    uses = {path.stem: _phase_uses(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}
    stray = [(module, owner, what) for module, found in uses.items()
             for owner, what in found
             if (module, owner) not in TRIG_OWNERS
             and (module, owner, what) != ("orbitfn", None, "TWO_PI=")]
    assert stray == []
    # the check sees the uses it allows: the kernel reads TWO_PI and calls
    # cos and sin, and the tables have their own trig
    assert {"TWO_PI", "np.cos", "np.sin"} <= {what for _, what in uses["orbitfn"]}
    assert {"np.cos", "np.sin", "complex exp"} <= {
        what for owner, what in uses["transforms"] if owner == "_dct_dst_data"}


def test_the_check_finds_a_stray_phase():
    src = ("def f(x):\n    return np.exp(TWO_PI * 1j * x)\n"
           "g = lambda t: np.sin(np.pi * t)\n")
    assert _phase_uses(ast.parse(src)) == [("f", "complex exp"), ("f", "TWO_PI"),
                                           (None, "np.sin")]


# -- the kernel: a table of 4096 turns and a two-term correction ------------

STEPS = orbitfn._TURN_STEPS


def _table() -> np.ndarray:
    _cis(np.zeros(1))   # the first call builds the table
    return orbitfn._TURN_TABLE


def test_the_turn_table_is_within_2e16_of_mpmath():
    table = _table()
    assert table.shape == (STEPS,) and table.dtype == complex and STEPS == 4096
    assert not table.flags.writeable
    with mp.workdps(40):
        exact = np.array([complex(mp.expjpi(mp.mpf(2 * j) / STEPS)) for j in range(STEPS)])
    assert np.max(np.abs(table - exact)) < 2e-16
    # the quarter turns are exact
    assert [table[j * STEPS // 4] for j in range(4)] == [1, 1j, -1, -1j]


def test_a_table_turn_returns_its_entry_to_the_bit():
    table = _table()
    j = np.arange(STEPS)
    for turns, entries in ((j / STEPS, table), (j / STEPS + 5, table),
                           (-j / STEPS, table[-j]), (j / STEPS - 2.0 ** 30, table)):
        assert np.array_equal(_cis(turns).view(np.int64), entries.view(np.int64))


turn = st.one_of(st.floats(-2.0 ** 40, 2.0 ** 40, allow_nan=False),
                 st.floats(-1, 1, allow_nan=False),
                 st.builds(lambda k, e: k / 2.0 ** e, st.integers(-2 ** 40, 2 ** 40),
                           st.integers(0, 14)))


@settings(max_examples=200, deadline=None)
@given(st.lists(turn, min_size=1, max_size=40))
@example([0.0, 0.5, -0.5, 0.25, 1 / 8192, -3 / 8192, 2.0 ** 40 - 2.0 ** -12, 2.0 ** -1074])
def test_cis_of_minus_t_is_the_conjugate(ts):
    # equal floats are equal bits but for the sign of a zero part
    t = np.array(ts)
    assert np.array_equal(_cis(-t), np.conj(_cis(t)))


def _agrees_with_the_oracle(turns):
    got, ref = _cis(turns), cis_oracle(np.asarray(turns, dtype=float))
    assert got.shape == np.shape(turns) and got.dtype == complex
    # each is within 4e-16 of exp(2 pi i t) (test_cis_matches_mpmath)
    assert np.all(np.abs(got - ref) <= 4e-16 + 4e-16)


@pytest.mark.parametrize("size", [0, 1, STEPS - 1, STEPS, STEPS + 1, 3 * STEPS + 1])
def test_every_block_agrees_with_the_oracle(size):
    rng = np.random.default_rng(size)
    scale = rng.choice([1.0, 40.0, 2.0 ** 40], size)
    turns = rng.uniform(-1, 1, size) * scale
    _agrees_with_the_oracle(turns)
    # one turn comes out the same in every block
    if size > STEPS:
        same = np.full(size, 0.3)
        assert np.all(_cis(same) == _cis(same[:1])[0])


def test_shapes_and_strides_agree_with_the_oracle():
    rng = np.random.default_rng(8)
    wide = rng.uniform(-50, 50, (STEPS + 3, 3))
    _agrees_with_the_oracle(wide.T)            # non-contiguous, spans two blocks
    assert np.array_equal(_cis(wide.T), _cis(wide).T)
    _agrees_with_the_oracle(np.array(0.375))   # 0-d
    assert _cis(np.array(0.25)).shape == () and _cis(np.array(0.25)) == 1j
    _agrees_with_the_oracle(rng.uniform(-2, 2, 1000))
    _agrees_with_the_oracle(np.zeros((2, 0, 3)))
    _agrees_with_the_oracle(rng.uniform(-2, 2, (3, 5, 7))[:, ::2, 1:])


# -- eval_coroot_point: exact phases k / D ---------------------------------

KINDS = ("antisymmetric", "symmetric", "normalized")
positive = st.builds(F, st.integers(1, 30), st.integers(1, 12))
coordinate = st.one_of(st.builds(F, st.integers(-300, 300), st.integers(1, 97)),
                       st.floats(-2, 2, allow_nan=False).map(F))


@st.composite
def coroot_cases(draw):
    rs = build(draw(st.sampled_from(["A2", "A3", "B3", "C3", "G2", "D4"])))
    lam = draw(st.lists(positive, min_size=rs.rank, max_size=rs.rank))
    pts = draw(st.lists(st.lists(coordinate, min_size=rs.rank, max_size=rs.rank),
                        min_size=1, max_size=4))
    return rs, draw(st.sampled_from(KINDS)), tuple(lam), [tuple(p) for p in pts]


def _orbit_terms(rs, kind, lam):
    """(point, coefficient) of the sum, from the BFS oracles."""
    if kind == "antisymmetric":
        return signed_orbit_oracle(rs, lam)
    c = 1 if kind == "symmetric" else stabilizer_oracle(rs, lam)
    return [(p, c) for p in orbit_oracle(rs, lam)]


@settings(max_examples=60, deadline=None)
@given(coroot_cases())
def test_eval_coroot_point_within_its_bound_of_the_exact_phases(case):
    """Each phase k/D is rounded once to t (|t - k/D| <= u/2, so the
    exponential moves by at most pi u) and _cis(t) is within 4u of exp(2 pi
    i t) (test_cis_matches_mpmath), so every term is within 8u of its exact
    value; the float sum of n terms adds at most sqrt(2) gamma_n sum |c|.
    Hence |error| <= (2 n + 8) u sum |c|."""
    rs, kind, lam, pts = case
    terms = _orbit_terms(rs, kind, lam)
    total = sum(abs(c) for _, c in terms)
    bound = (2 * len(terms) + 8) * U * total
    got = eval_coroot_point(rs, kind, lam, pts)
    with mp.workdps(50):
        for b, value in zip(pts, got):
            exact = mp.fsum(c * mp.expjpi(2 * mp.mpf(k.numerator) / k.denominator)
                            for p, c in terms
                            for k in [sum(pi * F(bi) for pi, bi in zip(p, b)) % 1])
            assert abs(value - complex(exact)) <= bound, (rs, kind, lam, b)


# -- eval_orth_batch: float points ------------------------------------------

@st.composite
def orth_cases(draw):
    rs = build(draw(st.sampled_from(["A2", "A3", "B3", "C3", "D4"])))
    lam = draw(st.lists(positive, min_size=rs.rank, max_size=rs.rank))
    scale = draw(st.sampled_from([1.0, 30.0, 1e4]))
    xs = draw(st.lists(st.lists(st.floats(-scale, scale, allow_nan=False),
                                min_size=orth_dim(rs), max_size=orth_dim(rs)),
                       min_size=1, max_size=4))
    return rs, draw(st.sampled_from(["anti", "sym"])), to_orthogonal(rs, lam), xs


@settings(max_examples=60, deadline=None)
@given(orth_cases())
def test_eval_orth_batch_within_its_bound_at_the_float_point(case):
    """The phase of the term w, sum_i s_i m_p(i) x_i, is a dot product of n
    terms of magnitude sum S_w = sum_i |m_p(i) x_i| from m rounded to floats,
    so it is off by at most gamma_(n+1) S_w, and its exponential by 2 pi
    that; _cis adds at most 4u and the float sum of the |W| terms at most
    sqrt(2) gamma_|W| |W|.  With S >= every S_w (the sorted |m| against the
    sorted |x|): |error| <= |W| u (2 pi (n + 2) S + 2 |W| + 8), which grows
    with sum |m_i x_i|."""
    rs, kind, m, xs = case
    group = list(orth_group(rs))
    n = len(m)
    got = eval_orth_batch(rs, kind, m, np.array(xs))
    with mp.workdps(50):
        mv = [mp.mpf(c.numerator) / c.denominator for c in m]
        for x, value in zip(xs, got):
            S = float(np.sort(np.abs([float(c) for c in m])) @ np.sort(np.abs(x)))
            bound = len(group) * U * (2 * math.pi * (n + 2) * S + 2 * len(group) + 8)
            exact = mp.fsum((d if kind == "anti" else 1)
                            * mp.expjpi(2 * mp.fsum(s * mv[j] * mp.mpf(xi)
                                                    for s, j, xi in zip(signs, p, x)))
                            for p, signs, d in group)
            assert abs(value - complex(exact)) <= bound, (rs, kind, m, x)
