"""The exact-phase kernel of ``eval_coroot_point`` against a Fraction loop.

``fraction_oracle`` is the per-point evaluation that ``eval_coroot_point``
and the plan builders used before the integer kernel: it rebuilds the
weight's (signed) orbit and sums the Fraction phases term by term.  It is
the reference for the kernel on one point, on stacks of points, and for
the plan kernels built from it.  Its orbits come from ``orbit_oracles``,
so it shares no code with the group array either.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs.orbitfn import TWO_PI, eval_coroot_point, _cis, _exponent_terms, _pairing
from orbitfuncs.rootsys import build, rank_vec, vec
from orbitfuncs import orbitfn
from orbitfuncs.transforms import (
    build_plan, default_labels, gram_over_torus, grid_fm, tm_expand,
)

from orbit_oracles import (
    coroot_point_oracle, exponent_terms_oracle, orbit_oracle, signed_orbit_oracle,
    stabilizer_oracle, tm_expand_oracle,
)

KINDS = ("antisymmetric", "symmetric", "normalized")


def fraction_oracle(rs, kind, lam, b) -> complex:
    lamv = vec(lam)
    bv = vec(b)
    if kind == "antisymmetric":
        terms = signed_orbit_oracle(rs, lamv)
    else:
        c = 1 if kind == "symmetric" else stabilizer_oracle(rs, lamv)
        terms = [(p, c) for p in orbit_oracle(rs, lamv)]
    total = 0j
    for p, s in terms:
        phase = sum(pi * bi for pi, bi in zip(p, bv)) % 1
        total += s * complex(math.cos(TWO_PI * float(phase)),
                             math.sin(TWO_PI * float(phase)))
    return total


def assert_matches_oracle(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


positive = st.builds(F, st.integers(1, 30), st.integers(1, 12))
coordinate = st.one_of(st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
                       st.floats(-2, 2, allow_nan=False).map(F))


@st.composite
def cases(draw):
    rs = build(draw(st.sampled_from(["A2", "A3", "B3", "C3", "G2"])))
    lam = draw(st.lists(positive, min_size=rs.rank, max_size=rs.rank))
    pts = draw(st.lists(st.lists(coordinate, min_size=rs.rank, max_size=rs.rank),
                        min_size=1, max_size=6))
    return rs, draw(st.sampled_from(KINDS)), tuple(lam), [tuple(p) for p in pts]


@settings(max_examples=60, deadline=None)
@given(cases())
def test_kernel_matches_fraction_oracle(case):
    rs, kind, lam, pts = case
    want = [fraction_oracle(rs, kind, lam, b) for b in pts]
    assert_matches_oracle(eval_coroot_point(rs, kind, lam, pts), want)
    one = eval_coroot_point(rs, kind, lam, pts[0])
    assert isinstance(one, complex)
    assert_matches_oracle(one, want[0])


def integer_phase_oracle(rs, lam, pts) -> np.ndarray:
    """The antisymmetric kernel row of lam over pts with the integer phases
    k/D taken from the oracle's Fraction points, one coordinate at a time,
    and the same float operations as ``eval_coroot_point``."""
    lamv = vec(lam)
    terms = signed_orbit_oracle(rs, lamv)
    coords = [F(c) for p in pts for c in p]
    dp = math.lcm(*(c.denominator for c in lamv))
    db = math.lcm(*(c.denominator for c in coords))
    D = dp * db
    B = np.array([c.numerator * (db // c.denominator) % D for c in coords],
                 dtype=object).reshape(len(pts), rs.rank)
    P = np.array([[int(c * dp) for c in p] for p, _ in terms], dtype=object)
    coeffs = np.array([s for _, s in terms], dtype=float)
    return coeffs @ _cis((((P @ B.T) % D) / D).astype(float))


PLAN_CASES = [("A2", 12), ("C2", 14), ("G2", 15), ("A3", 8), ("B3", 10), ("C3", 10)]


@pytest.mark.parametrize("label,M", PLAN_CASES)
def test_plan_kernel_matches_fraction_oracle(label, M):
    rs = build(label)
    plan = build_plan(rs, M)
    want = [[fraction_oracle(rs, "antisymmetric", lam, p.coroot) for p in plan.grid]
            for lam in plan.labels]
    assert_matches_oracle(plan.kernel, want)


@pytest.mark.parametrize("label,M", PLAN_CASES)
def test_plan_kernel_is_bit_identical_to_the_integer_phase_oracle(label, M):
    rs = build(label)
    plan = build_plan(rs, M)
    pts = [p.coroot for p in plan.grid]
    want = np.array([integer_phase_oracle(rs, lam, pts) for lam in plan.labels])
    assert np.array_equal(plan.kernel, want)


def test_gram_over_torus_matches_fraction_oracle():
    rs = build("C2")
    labels = default_labels(rs, 6)
    pts = tm_expand_oracle(rs, grid_fm(rs, 6))
    V = np.array([[fraction_oracle(rs, "antisymmetric", lam, b) for b in pts]
                  for lam in labels])
    want = V @ V.conj().T
    got = gram_over_torus(rs, 6, labels)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_empty_stack_gives_an_empty_array():
    a2 = build("A2")
    out = eval_coroot_point(a2, "anti", (1, 2), np.empty((0, 2), dtype=object))
    assert out.shape == (0,)


@pytest.mark.parametrize("lam,b", [
    ((1, 2), (F(1, 5),)),
    ((1, 2), (F(1, 5), F(2, 5), F(1, 5))),
    ((1,), (F(1, 5), F(2, 5))),
    ((1, 2), [(F(1, 5), F(2, 5), F(1, 5))]),
    ((1, 2), [(F(1, 5), F(2, 5)), (F(3, 5),)]),
    ((2, 1), [(1, 2), (3, (4, 5))]),
])
def test_wrong_length_is_refused(lam, b):
    with pytest.raises(ValueError, match="expected 2 coordinates .*A2"):
        eval_coroot_point(build("A2"), "anti", lam, b)


def test_plan_with_a_short_label_is_refused():
    with pytest.raises(ValueError, match=r"expected 2 coordinates for A2, got 1: \(1\)"):
        build_plan(build("A2"), 5, labels=[(1,)])


# -- the exact pairing: both branches, and the exponents of eval_batch ----

def _kind(kind):
    return {"anti": "antisymmetric", "sym": "symmetric", "norm": "normalized"}[kind]


def _pattern_weights(pattern):
    """Every weight of an evaluate-workload pattern: "1" is an entry 1..3,
    "0" a zero entry, "rho" is rho."""
    if pattern == "rho":
        return [(1,) * 2]
    return [tuple(v if c == "1" else 0 for c, v in zip(pattern, vals))
            for vals in itertools.product((1, 2, 3), repeat=len(pattern))]


# the A and G2 keys of the evaluate workload: (diagram, kind, weight pattern)
EVALUATE_KEYS = [("A2", "anti", "11"), ("A2", "sym", "10"), ("A2", "norm", "01"),
                 ("G2", "anti", "11"), ("G2", "sym", "01"), ("A3", "anti", "111"),
                 ("A3", "sym", "101"), ("A2", "anti", "rho"), ("G2", "anti", "rho")]


def _assert_same_terms(got, want):
    # the exponents as one int64 array, the steps as Fractions, the
    # coefficients as ints
    assert got[0].dtype == np.int64 and got[0].tolist() == want[0]
    assert got[1:] == want[1:]
    for a, b in zip(got[1:], want[1:]):
        assert [type(v) for v in a] == [type(v) for v in b]


@pytest.mark.parametrize("label,kind,pattern", EVALUATE_KEYS)
def test_exponent_terms_are_the_fraction_loop(label, kind, pattern):
    rs = build(label)
    for lam in _pattern_weights(pattern):
        lamv = rank_vec(rs, lam)
        _assert_same_terms(_exponent_terms(rs, _kind(kind), lamv),
                           exponent_terms_oracle(rs, _kind(kind), lamv))


nonnegative = st.builds(F, st.integers(0, 40), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "A4", "B3", "C3", "G2"]),
       st.sampled_from(KINDS), st.lists(nonnegative, min_size=4, max_size=4))
def test_exponent_terms_are_the_fraction_loop_on_drawn_weights(label, kind, coords):
    rs = build(label)
    lamv = rank_vec(rs, coords[:rs.rank])
    if kind == "antisymmetric" and 0 in lamv:
        lamv = tuple(c + 1 for c in lamv)
    _assert_same_terms(_exponent_terms(rs, kind, lamv), exponent_terms_oracle(rs, kind, lamv))


def test_exponent_terms_of_the_zero_weight():
    # one term, the weight 0: every column is zero, so every step is 1
    rs = build("A2")
    got = _exponent_terms(rs, "symmetric", (F(0), F(0)))
    want = ([[0, 0]], [F(1), F(1)], [1])
    assert want == exponent_terms_oracle(rs, "symmetric", (F(0), F(0)))
    _assert_same_terms(got, want)


# A2, lam = (1, 2): the terms d w lam have |entries| <= 3 with d = 1, so the
# int64 bound of a pairing with points over the denominator Q is
# 2 * 3 * max|Q b| < 2**53
Q = 2 ** 40
BELOW = (2 ** 53 - 1) // 6


@pytest.mark.parametrize("pts,branch", [
    ([(F(BELOW, Q), F(1, Q)), (F(-BELOW, Q), F(7, Q))], np.int64),   # just below
    ([(F(BELOW + 1, Q), F(1, Q)), (F(5, 8), F(-1, Q))], object),     # at the bound
    ([(F(1, 2 ** 53 + 1), F(1, 3)), (F(2, 5), F(-3, 2 ** 53 + 1))], object),
])
def test_both_branches_of_the_pairing_are_the_integer_phase_oracle(pts, branch):
    a2, lam = build("A2"), (1, 2)
    rows = np.array([[int(c) for c in p] for p, _ in signed_orbit_oracle(a2, vec(lam))])
    assert np.abs(rows).max() == 3
    P, D = _pairing(rows, 1, [c for p in pts for c in p])
    assert P.dtype == branch and D == math.lcm(*(c.denominator for p in pts for c in p))
    assert P.tolist() == [[sum(int(r) * c * D for r, c in zip(row, p)) for p in pts]
                          for row in rows]
    got = eval_coroot_point(a2, "anti", lam, pts)
    assert np.array_equal(got, integer_phase_oracle(a2, lam, pts))


def test_the_pairing_bound_is_checked_on_the_denominator_too():
    rows = np.array([[1, 0]])
    assert _pairing(rows, 1, [F(1, 2 ** 53 - 1), 0])[0].dtype == np.int64
    assert _pairing(rows, 2, [F(1, 2 ** 53 - 1), 0])[0].dtype == object


# -- a stack of weights: one call for a whole plan ---------------------------

def _per_label(rs, kind, labels, pts):
    return np.array([eval_coroot_point(rs, kind, lam, pts) for lam in labels])


@pytest.mark.parametrize("label,Ms", [("A2", (3, 7, 12)), ("C2", (5, 9, 14)), ("G2", (7, 15)),
                                      ("A3", (5, 8)), ("B3", (7, 10)), ("C3", (7, 10))])
def test_a_stack_of_weights_is_the_per_label_call_to_the_bit(label, Ms):
    rs = build(label)
    for M in Ms:
        plan = build_plan(rs, M)
        pts = [p.coroot for p in plan.grid]
        want = np.array([integer_phase_oracle(rs, lam, pts) for lam in plan.labels])
        for got in (eval_coroot_point(rs, "anti", plan.labels, pts),
                    _per_label(rs, "anti", plan.labels, pts), plan.kernel):
            assert got.shape == (len(plan.labels), len(pts))
            assert np.array_equal(got, want)
        for kind in ("sym", "norm"):
            assert np.array_equal(eval_coroot_point(rs, kind, plan.labels, pts),
                                  _per_label(rs, kind, plan.labels, pts))


def test_weights_of_different_denominators_share_one_stack():
    # d = 1, 2 and 6: the stack is over their lcm 6, and every phase k / D
    # is the same rational as over the weight's own denominator
    a2 = build("A2")
    labels = [(F(1, 2), 1), (1, 1), (F(1, 3), F(5, 2)), (2, F(7, 6))]
    pts = [(F(1, 7), F(2, 9)), (F(3, 11), F(-1, 13)), (F(1, 3), F(1, 3)), (0.3, -0.125)]
    want = np.array([integer_phase_oracle(a2, lam, pts) for lam in labels])
    assert np.array_equal(eval_coroot_point(a2, "anti", labels, pts), want)
    assert_matches_oracle(want, [[fraction_oracle(a2, "antisymmetric", lam, b) for b in pts]
                                 for lam in labels])


def _spy_on_pairing(monkeypatch):
    """The dtype of every pairing that eval_coroot_point makes."""
    seen = []

    def spy(rows, d, values):
        P, D = real(rows, d, values)
        seen.append(P.dtype)
        return P, D
    real = orbitfn._pairing
    monkeypatch.setattr(orbitfn, "_pairing", spy)
    return seen


def test_a_stack_past_the_int64_bound_takes_python_ints(monkeypatch):
    seen = _spy_on_pairing(monkeypatch)
    a2 = build("A2")
    labels = [(1, 2), (F(1, 2), 3), (2, 1)]
    pts = [(F(1, 2 ** 53 + 1), F(1, 3)), (F(2, 5), F(-3, 2 ** 53 + 1))]
    got = eval_coroot_point(a2, "anti", labels, pts)
    assert seen == [object]
    assert np.array_equal(got, [integer_phase_oracle(a2, lam, pts) for lam in labels])


def test_a_large_label_takes_python_ints(monkeypatch):
    # 2 * max|w lam| * max|db b| is about 2**55 > 2**53, so the pairing is
    # taken in Python ints; the images themselves are within int64
    a2 = build("A2")
    labels = [(2 ** 40, 3), (1, F(1, 2))]
    pts = [(F(1, 7919), F(7900, 7919)), (F(-3, 7919), F(1, 2))]
    seen = _spy_on_pairing(monkeypatch)
    got = eval_coroot_point(a2, "anti", labels, pts)
    assert seen == [object]
    assert np.array_equal(got, coroot_point_oracle(a2, "antisymmetric", labels, pts))
    # a small label in the stack is its call alone, to the bit
    assert np.array_equal(got[1], eval_coroot_point(a2, "anti", labels[1], pts))


@pytest.mark.parametrize("block,per_block", [(1, 1), (48 * 3, 3), (48 * 5 + 47, 5)])
def test_weights_taken_in_several_blocks_are_bit_identical(monkeypatch, block, per_block):
    # B3 at M = 10: 14 labels of 48 terms each; a block holds at least one
    # label, and as many as its values allow
    b3 = build("B3")
    plan = build_plan(b3, 10)
    pts = [p.coroot for p in plan.grid]
    seen = _spy_on_pairing(monkeypatch)
    monkeypatch.setattr(orbitfn, "_PHASE_BLOCK", block * len(pts))
    got = eval_coroot_point(b3, "anti", plan.labels, pts)
    assert len(plan.labels) == 14 and len(seen) == -(-14 // per_block)
    assert np.array_equal(got, plan.kernel)


def test_a_plan_of_many_labels_runs_in_blocks_like_its_single_labels(monkeypatch):
    # A2 at M = 24: 253 labels x 6 terms x 253 points, about 5.9 blocks of
    # _PHASE_BLOCK values; each label's row is its own call, to the bit
    seen = _spy_on_pairing(monkeypatch)
    a2 = build("A2")
    plan = build_plan(a2, 24)
    assert plan.kernel.shape == (253, 253) and len(seen) == 6
    pts = [p.coroot for p in plan.grid]
    for i in (0, 42, 43, 252):
        assert np.array_equal(plan.kernel[i], eval_coroot_point(a2, "anti", plan.labels[i], pts))


def test_the_four_result_shapes():
    a2 = build("A2")
    labels, pts = [(1, 2), (2, 1), (1, 1)], [(F(1, 5), F(2, 5)), (F(1, 7), 0)]
    grid = eval_coroot_point(a2, "anti", labels, pts)
    one_one = eval_coroot_point(a2, "anti", labels[0], pts[0])
    assert isinstance(one_one, complex) and one_one == grid[0, 0]
    one_many = eval_coroot_point(a2, "anti", labels[0], pts)
    assert one_many.shape == (2,) and np.array_equal(one_many, grid[0])
    many_one = eval_coroot_point(a2, "anti", labels, pts[1])
    assert many_one.shape == (3,) and np.array_equal(many_one, grid[:, 1])
    assert grid.shape == (3, 2) and grid.dtype == complex
    empty = eval_coroot_point(a2, "anti", labels, np.empty((0, 2), dtype=object))
    assert empty.shape == (3, 0) and empty.dtype == complex
    as_array = eval_coroot_point(a2, "anti", np.array(labels), pts)
    assert np.array_equal(as_array, grid)


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_gram_over_torus_is_the_per_label_product_to_the_bit(label):
    rs = build(label)
    labels = default_labels(rs, 9)
    V = _per_label(rs, "anti", labels, tm_expand(rs, grid_fm(rs, 6)))
    assert np.array_equal(gram_over_torus(rs, 6, labels), V @ V.conj().T)
