"""Dominant forms and stabilizer orders as root data: the descent by simple
reflections in integers, and |W_lam| as the order of the parabolic
subgroup of the walls of the dominant form, on every diagram ``rootsys``
builds up to rank 8, E and F included, with no group closed."""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs import weyl
from orbitfuncs.orbitfn import eval_batch
from orbitfuncs.rootsys import build, convert_basis, inner, _BoundedCache
from orbitfuncs.weyl import (
    highest_short_root, positive_roots, stabilizer_order, to_dominant, _parabolic_order,
)

from orbit_oracles import stabilizer_oracle, to_dominant_oracle

DIAGRAMS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
            + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
            + ["E6", "E7", "E8", "F4", "G2"])

# |W| / |W_omega_1|: the orbit of the first fundamental weight, in the node
# order of ``rootsys`` (on E7, E8 and F4 omega_1 is the highest root, so its
# orbit is every long root)
OMEGA_1_ORBITS = {"E6": 27, "E7": 126, "E8": 240, "F4": 24, "B8": 16}


@pytest.fixture
def fresh_group_cache(monkeypatch):
    """An empty group cache in place of weyl's, to see whether a call
    closes or looks up a group."""
    cache = _BoundedCache(16)
    monkeypatch.setattr(weyl, "_GROUP_CACHE", cache)
    return cache


def _roots_of_norm(rs, norm) -> int:
    """The number of roots, positive and negative, of the given norm."""
    return 2 * sum(inner(rs, r, r) == norm for r in positive_roots(rs))


def test_the_diagrams_are_every_one_up_to_rank_8():
    assert len(set(DIAGRAMS)) == 32


@pytest.mark.parametrize("label", DIAGRAMS)
def test_root_heights_and_supports_are_the_alpha_expansions(label):
    rs = build(label)
    heights = rs._root_heights
    assert sorted(heights) == [tuple(int(c) for c in r) for r in positive_roots(rs)]
    for root, (height, support) in heights.items():
        alpha = convert_basis(rs, root, "omega", "alpha")
        assert all(type(h) is int for h in (height, support))
        assert height == sum(alpha)
        assert support == sum(1 << i for i, c in enumerate(alpha) if c)


@st.composite
def _points(draw):
    rs = build(draw(st.sampled_from(DIAGRAMS)))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6) | st.just(F(0))
    huge = st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.sampled_from([1, 3, 2 ** 66 + 1]))
    x = draw(st.lists(small | huge, min_size=rs.rank, max_size=rs.rank))
    return rs, tuple(x)


@settings(max_examples=150, deadline=None)
@given(_points())
def test_to_dominant_is_the_fraction_descent(case):
    # weight, sign and on_wall, past 2**62 too, where the int64 bound of
    # the group would refuse
    rs, x = case
    got = to_dominant(rs, x)
    assert got == to_dominant_oracle(rs, x)
    assert all(type(c) is F for c in got.weight)
    assert type(got.sign) is int and type(got.on_wall) is bool


def test_to_dominant_past_int64():
    a2 = build("A2")
    got = to_dominant(a2, (2 ** 62, -2 ** 62))
    assert got == to_dominant_oracle(a2, (2 ** 62, -2 ** 62))
    assert (got.weight, got.sign, got.on_wall) == ((0, 2 ** 62), -1, True)


@pytest.mark.parametrize("label", DIAGRAMS)
def test_stabilizers_of_the_highest_roots_and_of_zero(label, fresh_group_cache):
    # the orbit of the highest root is every long root, that of the highest
    # short root every short root (the same on a simply-laced diagram)
    rs = build(label)
    for theta in (rs.highest_root_omega, highest_short_root(rs)):
        count = _roots_of_norm(rs, inner(rs, theta, theta))
        assert stabilizer_order(rs, theta) * count == rs.weyl_order
        # the lowest root, -theta, descends to theta first
        assert stabilizer_order(rs, tuple(-c for c in theta)) * count == rs.weyl_order
    assert stabilizer_order(rs, (0,) * rs.rank) == rs.weyl_order
    assert stabilizer_order(rs, rs.rho) == 1
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label,size", sorted(OMEGA_1_ORBITS.items()))
def test_omega_1_orbit_sizes(label, size, fresh_group_cache):
    rs = build(label)
    omega_1 = (1,) + (0,) * (rs.rank - 1)
    assert rs.weyl_order // stabilizer_order(rs, omega_1) == size
    assert rs.weyl_order % size == 0
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


def test_to_dominant_on_e8_needs_no_group(fresh_group_cache):
    rs = build("E8")
    x = (-3, 1, F(1, 2), -2, 0, 5, -1, 2 ** 64)
    assert to_dominant(rs, x) == to_dominant_oracle(rs, x)
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "G2"])
def test_every_wall_mask_is_the_closed_parabolic_subgroup(label):
    rs = build(label)
    for walls in itertools.product((0, 1), repeat=rs.rank):
        lam = tuple(1 - w for w in walls)
        mask = sum(w << i for i, w in enumerate(walls))
        assert _parabolic_order(rs, mask) == stabilizer_order(rs, lam) \
            == stabilizer_oracle(rs, lam)


@pytest.mark.parametrize("label", ["B8", "C8", "D8"])
def test_symmetric_values_above_the_group_limit(label, fresh_group_cache):
    # |W| of B8, C8 and D8 exceeds DEFAULT_GROUP_LIMIT; the closed form
    # needs only the stabilizer.  At x = 0 the symmetric value is the size
    # of the orbit.
    rs = build(label)
    assert rs.weyl_order > weyl.DEFAULT_GROUP_LIMIT
    xs = np.random.default_rng(27).uniform(-1, 1, size=(5, rs.rank))
    for lam in ((1,) + (0,) * 7, (0, 1) + (0,) * 6, (2, 0, 1, 0, 0, 0, 0, 1)):
        stab = stabilizer_order(rs, lam)
        sym = eval_batch(rs, "sym", lam, xs)
        assert np.allclose(sym, eval_batch(rs, "norm", lam, xs) / stab, rtol=1e-14, atol=0)
        at_zero = eval_batch(rs, "sym", lam, np.zeros((1, rs.rank)))[0]
        assert abs(at_zero - rs.weyl_order // stab) < 1e-9 * rs.weyl_order
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)
