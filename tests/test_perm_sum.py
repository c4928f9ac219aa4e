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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from orbitfuncs import orbitfn
from orbitfuncs.orbitfn import _perm_sum, closed_form_orth
from orbitfuncs.rootsys import build, orth_dim
from orbitfuncs.transforms import multivariate_plan

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


def scalar_one_dim(kind: str, N: int):
    """The one-variable kernel of a multivariate kind, evaluated with the
    scalar math functions."""
    if kind.endswith("_exp"):
        return lambda m, s: cmath.exp(2j * math.pi * m * s) / math.sqrt(N)
    if kind == "anti_sine":
        return lambda m, s: 2j * math.sin(math.pi * m * s)
    if kind == "sym_cosine":
        return lambda m, s: 2 * math.cos(math.pi * m * s)
    # dct1..4: half-integer shifts of the label and of the node
    a, b = {"1": (0, 0), "2": (0.5, 0), "3": (0, 0.5), "4": (0.5, 0.5)}[kind[-1]]
    return lambda r, k: math.cos(math.pi * (r + a) * (k + b) / N)


KINDS = ("anti_exp", "sym_exp", "anti_sine", "sym_cosine",
         "amdct1", "amdct2", "amdct3", "amdct4",
         "smdct1", "smdct2", "smdct3", "smdct4")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_multivariate_kernel_matches_brute_force(kind, n):
    N = 5
    plan = multivariate_plan(kind, n, N)
    assert len(plan.labels) > 1
    ref = brute_kernel(scalar_one_dim(kind, N), plan.labels, plan.grid,
                       signed=kind.startswith("a"))
    assert np.max(np.abs(plan.kernel - ref)) <= 1e-12 * np.max(np.abs(ref))


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
