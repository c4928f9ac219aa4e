"""The determinant/permanent helper against a brute-force permutation sum.

``brute_perm_sum`` is the per-entry sum over S_n with an explicit
inversion-count parity that the transforms and closed forms used before
they went through ``np.linalg.det``; it is the reference for
``orbitfn._perm_sum`` and for every kernel built on it.
"""

import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from orbitfuncs import orbitfn
from orbitfuncs.analysis import (
    generic_anti_poly, generic_sym_poly, hermite_family, hermite_sym_anti,
)
from orbitfuncs.orbitfn import _perm_sum, _stab_order, closed_form_orth, det_powers
from orbitfuncs.rootsys import build, orth_dim
from orbitfuncs.transforms import dst_dct_1d, multivariate_plan

RNG = random.Random(2718)


def _parity(p) -> int:
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def brute_perm_sum(values, signed: bool) -> complex:
    """det (signed) or permanent of one square matrix, term by term."""
    n = len(values)
    total = 0j
    for p in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i in range(n):
            term *= values[i][p[i]]
        total += (_parity(p) if signed else 1) * term
    return total


def brute_kernel(one_dim, labels, grid, signed: bool) -> np.ndarray:
    """|S_n|^{-1/2} det/perm(one_dim(r_i, k_j)), one entry at a time."""
    n = len(labels[0])
    out = np.empty((len(labels), len(grid)), dtype=complex)
    for a, r in enumerate(labels):
        for b, k in enumerate(grid):
            m = [[one_dim(ri, float(kj)) for kj in k] for ri in r]
            out[a, b] = brute_perm_sum(m, signed) / math.sqrt(math.factorial(n))
    return out


def one_variable(kind: str, N: int):
    """(labels, grid, kernel, weight, norm) of a one-variable kind from its
    textbook definition, evaluated with the scalar math functions."""
    if kind == "exp":
        return (range(1, N + 1), [Fraction(k, N) for k in range(1, N + 1)],
                lambda m, s: cmath.exp(2j * math.pi * m * s) / math.sqrt(N),
                lambda s: 1, lambda m: 1)
    if kind == "sine":
        return (range(1, N), [Fraction(k, N) for k in range(1, N)],
                lambda m, s: 2j * math.sin(math.pi * m * s),
                lambda s: 1, lambda m: 2 * N)
    if kind == "cosine":
        return (range(N + 1), [Fraction(k, N) for k in range(N + 1)],
                lambda m, s: 2 * math.cos(math.pi * m * s),
                lambda s: 0.5 if s in (0, 1) else 1,
                lambda m: (4 if m in (0, N) else 2) * N)
    # DCT/DST-v: shifts a, b of label and node, the labels and nodes, the
    # nodes of weight 1/2 and the labels of norm N instead of N/2
    a, b = {"1": (0, 0), "2": (0.5, 0), "3": (0, 0.5), "4": (0.5, 0.5)}[kind[-1]]
    labels, nodes, half, double = {
        "dct1": (range(N + 1), range(N + 1), (0, N), (0, N)),
        "dct2": (range(N), range(N), (0,), ()),
        "dct3": (range(N), range(N), (), (0,)),
        "dct4": (range(N), range(N), (), ()),
        "dst1": (range(1, N), range(1, N), (), ()),
        "dst2": (range(N), range(1, N + 1), (N,), ()),
        "dst3": (range(1, N + 1), range(N), (), (N,)),
        "dst4": (range(N), range(N), (), ()),
    }[kind]
    trig = math.cos if kind.startswith("dct") else math.sin
    return (labels, nodes, lambda r, k: trig(math.pi * (r + a) * (k + b) / N),
            lambda k: 0.5 if k in half else 1,
            lambda r: N if r in double else N / 2)


def stab(t) -> int:
    return math.prod(math.factorial(c) for c in Counter(t).values())


def weights_and_norms(kind: str, n: int, N: int, labels, grid):
    """Grid weights and label norms of a multivariate kind, one formula per
    kind: n! times the node weights over |Stab| for the weights, the label
    norms times |Stab| for the norms."""
    nf = math.factorial(n)
    if kind == "anti_exp":
        return [nf] * len(grid), [1] * len(labels)
    if kind == "sym_exp":
        return [nf / stab(t) for t in grid], [stab(r) for r in labels]
    if kind == "anti_sine":
        return [nf] * len(grid), [(2 * N) ** n] * len(labels)
    if kind == "sym_cosine":
        return ([nf * math.prod(0.5 if s in (0, 1) else 1 for s in t) / stab(t)
                 for t in grid],
                [N ** n * math.prod(4 if m in (0, N) else 2 for m in r) * stab(r)
                 for r in labels])
    # amdct/smdct: weight 1/2 on the end nodes, norm doubled on the end
    # labels of the DCT variant, over the base norm (N/2)^n
    half = {"1": (0, N), "2": (0,), "3": (), "4": ()}[kind[-1]]
    double = {"1": (0, N), "2": (), "3": (0,), "4": ()}[kind[-1]]
    st = stab if kind.startswith("s") else (lambda t: 1)
    return ([nf * math.prod(0.5 if k in half else 1 for k in t) / st(t) for t in grid],
            [(N / 2) ** n * math.prod(2 if m in double else 1 for m in r) * st(r)
             for r in labels])


KINDS = ("anti_exp", "sym_exp", "anti_sine", "sym_cosine",
         "amdct1", "amdct2", "amdct3", "amdct4",
         "smdct1", "smdct2", "smdct3", "smdct4")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_multivariate_kernel_matches_brute_force(kind, n):
    N = 5
    plan = multivariate_plan(kind, n, N)
    assert len(plan.labels) > 1
    base = kind.split("_")[1] if "_" in kind else "dct" + kind[-1]
    ref = brute_kernel(one_variable(base, N)[2], plan.labels, plan.grid,
                       signed=kind.startswith("a"))
    assert np.max(np.abs(plan.kernel - ref)) <= 1e-12 * np.max(np.abs(ref))
    weights, norms = weights_and_norms(kind, n, N, plan.labels, plan.grid)
    np.testing.assert_allclose(plan.weights, weights, rtol=1e-14, atol=0)
    np.testing.assert_allclose(plan.norms, norms, rtol=1e-14, atol=0)


ONE_D_KINDS = ("sine", "cosine", "dct1", "dct2", "dct3", "dct4",
               "dst1", "dst2", "dst3", "dst4")


@pytest.mark.parametrize("kind", ONE_D_KINDS)
def test_one_variable_plan_matches_definition(kind):
    for N in (2, 5, 8):
        plan = dst_dct_1d(kind, N)
        labels, nodes, kernel, weight, norm = one_variable(kind, N)
        assert plan.labels == tuple(labels) and plan.grid == tuple(nodes)
        assert [type(v) for v in plan.grid] == [type(v) for v in nodes]
        ref = np.array([[kernel(r, float(k)) for k in nodes] for r in labels])
        assert np.max(np.abs(plan.kernel - ref)) <= 1e-12 * np.max(np.abs(ref))
        np.testing.assert_allclose(plan.weights, [weight(k) for k in nodes],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(plan.norms, [norm(r) for r in labels],
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", ["antisymmetric", "symmetric"])
@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4"])
def test_closed_form_orth_matches_brute_force(label, kind, monkeypatch):
    rs = build(label)
    r = orth_dim(rs)
    cases = []
    for _ in range(6):
        m = sorted(RNG.sample(range(1, 9), r), reverse=True)
        if label == "D4" and RNG.random() < 0.5:
            m[-1] = -m[-1] if RNG.random() < 0.5 else 0
        cases.append((m, [RNG.uniform(-1, 1) for _ in range(r)]))
    got = [closed_form_orth(rs, kind, m, x) for m, x in cases]
    monkeypatch.setattr(orbitfn, "_perm_sum", brute_perm_sum)
    for (m, x), value in zip(cases, got):
        ref = closed_form_orth(rs, kind, m, x)
        assert abs(value - ref) <= 1e-12 * max(abs(ref), 1.0)


_entry = st.integers(-2000, 2000).map(lambda v: v / 1000)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: hnp.arrays(
    complex, (n, n), elements=st.builds(complex, _entry, _entry))),
    st.booleans())
def test_perm_sum_matches_brute_force(values, signed):
    # the error is measured against the permanent of |values|, which
    # bounds the sum of the absolute values of the terms
    scale = brute_perm_sum(np.abs(values), signed=False).real
    ref = brute_perm_sum(values, signed)
    assert abs(_perm_sum(values, signed) - ref) <= 1e-12 * scale
    # a stack gives one value per matrix; det and permanent are
    # invariant under transposition
    got = _perm_sum(np.stack([values, values.T]), signed)
    assert got.shape == (2,)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(0, 5)),
                  elements=st.integers(-2, 2)))
def test_stab_order_matches_the_multiplicity_factorials(rows):
    # rows in any order: equal entries need not be adjacent
    assert _stab_order(rows).tolist() == [stab(r) for r in rows.tolist()]
    for r in rows.tolist():
        assert int(_stab_order(r)) == stab(r)


# the public functions that form one matrix of labels (rows) against
# coordinates (columns) and take its det or permanent
RECTANGULAR = {
    "generic_anti_poly": lambda m, x: generic_anti_poly(hermite_family(4), m, x),
    "generic_sym_poly": lambda m, x: generic_sym_poly(hermite_family(4), m, x),
    "det_powers": det_powers,
    "hermite_sym_anti": lambda m, x: hermite_sym_anti(m, x, "sym"),
}


@pytest.mark.parametrize("m,x", [((2, 1, 0), (0.1, 0.2)), ((2, 1), (0.1, 0.2, 0.3))],
                         ids=["more labels", "more coordinates"])
@pytest.mark.parametrize("name", sorted(RECTANGULAR))
def test_a_matrix_that_is_not_square_is_refused(name, m, x):
    # more labels than coordinates used to return a wrong value, fewer an IndexError
    with pytest.raises(ValueError, match=rf"got {len(m)} labels and {len(x)} coordinates$"):
        RECTANGULAR[name](m, x)
