"""The positive roots as root data: searched from the Cartan matrix, with no
Weyl group, and what rests on them (dimensions, the rho products, the
highest short root) on every diagram ``rootsys`` builds, E and F included."""

import math
from fractions import Fraction as F

import pytest

from orbitfuncs import weyl
from orbitfuncs.orbitfn import dimension, rho_cosine_orbit_decomposition, rho_products
from orbitfuncs.rootsys import build, convert_basis, parse_diagram, _BoundedCache, _build
from orbitfuncs.transforms import lattice_index
from orbitfuncs.weyl import (
    GroupSizeError, dual_marks, highest_short_root, positive_root_count, positive_roots,
)

from orbit_oracles import dual_marks_oracle, positive_roots_group_oracle, positive_roots_oracle

# test_weyl.py compares A1-A5, B2-B5, C2-C5, D4, D5 and G2 with the same oracle
LARGER_CLASSICAL = ["A6", "A7", "A8", "B6", "B7", "B8", "C6", "C7", "C8", "D6", "D7", "D8"]
EXCEPTIONAL = ["E6", "E7", "E8", "F4"]

# the dimensions of the fundamental representations, as multisets (Bourbaki,
# Ch. VIII, Tables 2-3)
FUNDAMENTAL_DIMENSIONS = {
    "E6": [27, 27, 78, 351, 351, 2925],
    "E7": [56, 133, 912, 1539, 8645, 27664, 365750],
    "E8": [248, 3875, 30380, 147250, 2450240, 6696000, 146325270, 6899079264],
    "F4": [26, 52, 273, 1274],
    "G2": [7, 14],
}


@pytest.fixture
def fresh_group_cache(monkeypatch):
    """An empty group cache in place of weyl's, to see whether a call
    closes or looks up a group."""
    cache = _BoundedCache(16)
    monkeypatch.setattr(weyl, "_GROUP_CACHE", cache)
    return cache


def _height(rs, root) -> F:
    return sum(convert_basis(rs, root, "omega", "alpha"))


@pytest.mark.parametrize("label", LARGER_CLASSICAL)
def test_positive_roots_equal_the_orbit_oracle(label):
    rs = build(label)
    assert positive_roots(rs) == positive_roots_oracle(rs)
    assert all(type(c) is F for root in positive_roots(rs) for c in root)


@pytest.mark.parametrize("label", ["A1", "A2", "A5", "A6", "B2", "B5", "C3", "C5",
                                   "D4", "D5", "G2"])
def test_positive_roots_equal_the_group_image_oracle(label):
    rs = build(label)
    assert positive_roots(rs) == positive_roots_group_oracle(rs)


@pytest.mark.parametrize("label", EXCEPTIONAL)
def test_exceptional_positive_roots(label, fresh_group_cache):
    rs = build(label)
    pos = positive_roots(rs)
    n, h = rs.rank, 1 + sum(rs.marks)
    assert len(pos) == positive_root_count(rs) == n * h // 2 == {
        "E6": 36, "E7": 63, "E8": 120, "F4": 24}[label]
    assert list(pos) == sorted(set(pos))
    # Macdonald, Math. Ann. 199 (1972): |W| = prod (ht alpha + 1) / ht alpha
    heights = [_height(rs, a) for a in pos]
    assert all(ht.denominator == 1 and ht >= 1 for ht in heights)
    assert math.prod(F(ht + 1, ht) for ht in heights) == rs.weyl_order
    assert max(heights) == h - 1
    simple = [tuple(row) for row in rs.cartan]
    assert set(simple) <= set(pos)
    assert rs.highest_root_omega in pos
    # r_j permutes the positive roots other than alpha_j and sends it to -alpha_j
    roots = set(pos)
    for j, alpha_j in enumerate(simple):
        for beta in pos:
            image = tuple(b - beta[j] * a for b, a in zip(beta, alpha_j))
            assert image in roots or image == tuple(-a for a in alpha_j)
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label", sorted(FUNDAMENTAL_DIMENSIONS))
def test_fundamental_dimensions_without_a_group(label, fresh_group_cache):
    rs = build(label)
    n = rs.rank
    dims = [dimension(rs, [int(i == j) for j in range(n)]) for i in range(n)]
    assert sorted(dims) == FUNDAMENTAL_DIMENSIONS[label]
    # Weyl's formula at rho: every factor <2 rho, alpha> / <rho, alpha> is 2
    assert dimension(rs, rs.rho) == 2 ** positive_root_count(rs)
    assert dimension(rs, [0] * n) == 1
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label", EXCEPTIONAL + ["G2", "A4", "B3", "C4", "D5"])
def test_rho_product_at_the_principal_element(label, fresh_group_cache):
    # at x = rho^check / h every <alpha, x> is ht(alpha) / h, and
    # |prod 2 sin(pi ht(alpha) / h)|^2 = h^n |P^check / Q^check|
    rs = build(label)
    n, h = rs.rank, 1 + sum(rs.marks)
    x = [F(2, h) / norm for norm in rs.root_norms]   # rho^check / h in omega coordinates
    anti, _ = rho_products(rs, x)
    want = h ** n * lattice_index(rs)
    assert abs(abs(anti) ** 2 - want) < 1e-12 * want
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label", EXCEPTIONAL + ["G2"])
def test_highest_short_root_and_dual_marks_without_a_group(label, fresh_group_cache):
    rs = build(label)
    xi_s = highest_short_root(rs)
    assert xi_s in positive_roots(rs)
    assert dual_marks_oracle(rs) == dual_marks(rs)
    if rs.family == "E":   # simply laced: the highest root
        assert xi_s == rs.highest_root_omega
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


def test_rho_cosine_decomposition_of_f4_needs_no_group(fresh_group_cache):
    rs = build("F4")
    coeffs = rho_cosine_orbit_decomposition(rs)
    assert len(coeffs) == 58
    assert coeffs[rs.rho] == 1
    assert all(min(lab) >= 0 and c > 0 for lab, c in coeffs.items())
    assert fresh_group_cache.cache_info() == (0, 0, 16, 0)


@pytest.mark.parametrize("label,order", [("A8", 362880), ("B7", 645120),
                                         ("E7", 2903040), ("E8", 696729600)])
def test_rho_cosine_decomposition_refuses_large_groups(label, order):
    with pytest.raises(GroupSizeError, match=rf"^\|W\({label}\)\| = {order} exceeds "
                                             rf"the limit 100000$"):
        rho_cosine_orbit_decomposition(build(label))


def test_roots_are_kept_with_the_root_system_and_not_built_with_it():
    rs = _build(parse_diagram("E7"))
    assert "_positive_roots" not in vars(rs)
    roots = positive_roots(rs)
    assert positive_roots(rs) is roots and vars(rs)["_positive_roots"] is roots
    assert hash(rs) == hash(build("E7")) and rs == build("E7")

