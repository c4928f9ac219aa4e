"""The two evaluators of eval_batch against the loops they replaced.

``orbitfn._power_sum`` (A, G2, E and F) sums a prefix tree over the
exponent columns, halved where the terms are closed under K -> -K, and
``orbitfn._closed_form_sum`` (B, C and D) reads batch-last power tables.
``power_sum_oracle`` and ``closed_form_sum_oracle`` are the per-term loop
and the stacked batch-first tables before them: the power sums agree
within the rounding of a sum of |W| unit terms, and the closed forms to
the bit.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings, strategies as st

from orbitfuncs import orbitfn
from orbitfuncs.orbitfn import eval_batch
from orbitfuncs.rootsys import build, rank_vec

from orbit_oracles import closed_form_sum_oracle, power_sum_oracle

U = 2.0 ** -53
KINDS = ("antisymmetric", "symmetric", "normalized")
POWER_SUM_DIAGRAMS = ["A1", "A2", "A3", "A4", "G2", "F4"]
CLOSED_FORM_DIAGRAMS = ["B2", "B3", "B4", "C2", "C3", "C4", "D4"]


def _points(seed: int, npts: int, rank: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1, 1, (npts, rank))


@st.composite
def weights(draw, rs, kind: str):
    """A weight with coordinates k/q (and 0 for the symmetric kinds, so
    that walls are hit); on A, half of them self-dual (a palindrome), so
    that their orbit is closed under negation.  Every G2 and F4 weight is,
    since -1 is in W."""
    coordinate = st.builds(F, st.integers(1, 6), st.integers(1, 3))
    if kind != "antisymmetric":
        coordinate = st.one_of(st.just(F(0)), coordinate)
    lam = draw(st.lists(coordinate, min_size=rs.rank, max_size=rs.rank))
    if rs.family == "A" and draw(st.booleans()):
        lam[len(lam) // 2:] = lam[:(len(lam) + 1) // 2][::-1]
    return tuple(lam)


@st.composite
def power_sum_cases(draw):
    rs = build(draw(st.sampled_from(POWER_SUM_DIAGRAMS)))
    kind = draw(st.sampled_from(KINDS))
    lam = draw(weights(rs, kind))
    npts = draw(st.integers(0, 300))
    return rs, kind, lam, _points(draw(st.integers(0, 2 ** 32 - 1)), npts, rs.rank)


@settings(max_examples=100, deadline=None)
@given(power_sum_cases())
# self-dual and not: the antisymmetric rho on A2 and A3 halves, (2, 1) does not
@example((build("A2"), "antisymmetric", (1, 1), _points(1, 40, 2)))
@example((build("A3"), "antisymmetric", (1, 1, 1), _points(2, 40, 3)))
@example((build("A2"), "symmetric", (2, 1), _points(3, 40, 2)))
# the zero weight: one term, the zero row, at half its coefficient
@example((build("G2"), "normalized", (0, 0), _points(4, 10, 2)))
# a large denominator: exponents near 10**7, one exponential each
@example((build("A2"), "symmetric", (F(1, 1000003), F(5, 7)), _points(5, 50, 2)))
# two full blocks of points and a short one
@example((build("A3"), "symmetric", (2, 0, 3), _points(6, 2 * orbitfn._CHUNK + 5, 3)))
@example((build("F4"), "antisymmetric", (1, 1, 1, 1), _points(7, 60, 4)))
def test_the_power_sum_is_the_per_term_loop(case):
    # both sum the same |W| (or |orbit|) exact-exponent terms, in another
    # order and with other products: within 4 |W| u sum |c|
    rs, kind, lam, xs = case
    K, steps, coeffs = orbitfn._exponent_terms(rs, kind, rank_vec(rs, lam))
    got = orbitfn._power_sum(K, steps, coeffs)(xs)
    ref = power_sum_oracle(K, steps, coeffs)(xs)
    assert got.shape == ref.shape == (len(xs),) and got.dtype == complex
    tol = 4 * rs.weyl_order * U * sum(abs(c) for c in coeffs)
    assert np.all(np.abs(got - ref) <= tol), (rs.id.label, kind, lam)


def test_equal_rows_merge_and_the_common_factor_divides_out():
    # rows (1, 0) twice and (0, 1): the terms 2 z_0 + 2 z_0 + 4 z_1 and
    # their negatives with the same coefficients, a real sum of 4 terms
    K = [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
    coeffs = [2, 2, 4, 4, 4]
    steps = [F(1), F(1, 3)]
    xs = _points(8, 30, 2)
    got = orbitfn._power_sum(K, steps, coeffs)(xs)
    ref = power_sum_oracle(K, steps, coeffs)(xs)
    assert not got.imag.any()
    assert np.allclose(got, ref, rtol=0, atol=8 * 12 * U)
    # not closed under negation: the sum is kept whole
    got = orbitfn._power_sum(K[:3], steps, coeffs[:3])(xs)
    assert np.allclose(got, power_sum_oracle(K[:3], steps, coeffs[:3])(xs), rtol=0, atol=8 * 8 * U)


def test_sums_closed_under_negation_are_real_or_imaginary_exactly():
    xs = _points(9, 200, 2)
    a2, g2 = build("A2"), build("G2")
    # on A2, w0 rho = -rho with det w0 = -1: sigma = -1, a purely imaginary sum
    anti = eval_batch(a2, "anti", a2.rho, xs)
    assert not anti.real.any() and anti.imag.all()
    # -1 is in W(G2), so every symmetric sum is real
    sym = eval_batch(g2, "sym", (2, 1), xs)
    assert not sym.imag.any() and sym.real.all()
    # (2, 1) on A2 is not self-dual: its sums stay complex
    assert eval_batch(a2, "sym", (2, 1), xs).imag.any()


@st.composite
def closed_form_cases(draw):
    rs = build(draw(st.sampled_from(CLOSED_FORM_DIAGRAMS)))
    kind = draw(st.sampled_from(KINDS))
    lam = draw(weights(rs, kind))
    npts = draw(st.integers(1, 300))
    return rs, kind, lam, _points(draw(st.integers(0, 2 ** 32 - 1)), npts, rs.rank)


@settings(max_examples=100, deadline=None)
@given(closed_form_cases())
# D4 with m_4 = 0, where the sine part vanishes, and with m_4 < 0
@example((build("D4"), "antisymmetric", (1, 2, 3, 3), _points(10, 20, 4)))
@example((build("D4"), "symmetric", (1, 1, 1, 2), _points(11, 20, 4)))
# a det of n = 4 on fewer than 2^8 points is np.linalg.det's
@example((build("B4"), "antisymmetric", (1, 2, 1, 3), _points(12, 100, 4)))
# a large denominator: exponents near 5 * 10**6, one exponential each
@example((build("B3"), "symmetric", (F(1, 1000003), 0, F(5, 7)), _points(13, 50, 3)))
# two full blocks of points and a short one
@example((build("C3"), "normalized", (2, 0, 1), _points(14, 2 * orbitfn._CHUNK + 5, 3)))
def test_the_closed_form_is_the_stacked_tables_to_the_bit(case):
    rs, kind, lam, xs = case
    terms = orbitfn._closed_form_terms(rs, kind, rank_vec(rs, lam))
    got = orbitfn._closed_form_sum(rs.family, kind, *terms)(xs)
    assert np.array_equal(got, closed_form_sum_oracle(rs.family, kind, *terms)(xs))
    assert np.array_equal(eval_batch(rs, kind, lam, xs), got)
