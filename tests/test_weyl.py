import functools
import itertools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs.rootsys import build, mat_vec, vec, UnsupportedCoordinatesError
from orbitfuncs.weyl import (
    generators, generate_group, to_dominant, orbit, signed_orbit,
    stabilizer_order, affine_r0, reflect_highest_root, in_fundamental_domain,
    positive_roots, positive_root_count, orth_action, xi_pairing, dual_marks, highest_short_root,
    GroupSizeError, WallError, _close, _distinct, _dominant_forms, _dominant_rows, _group,
)

from orbit_oracles import (
    close_oracle, group_oracle, orbit_oracle, signed_orbit_oracle, stabilizer_oracle,
    orth_apply as oracle_orth_apply, orth_group as oracle_orth_group,
    dominant_rows_oracle, positive_roots_oracle,
)

WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
               "C2": 8, "C3": 48, "D4": 192, "G2": 12}

#: every diagram up to rank 8
ALL_DIAGRAMS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


def test_generator_actions():
    a2 = build("A2")
    r1, r2 = generators(a2)
    assert r1.apply((3, 5)) == vec([-3, 8])          # (a,b) -> (-a, a+b)
    assert r2.apply((3, 5)) == vec([8, -5])          # (a,b) -> (a+b, -b)
    c2 = build("C2")
    s1, s2 = generators(c2)
    assert s2.apply((3, 5)) == vec([13, -5])         # (a,b) -> (a+2b, -b)
    assert s1.apply((3, 5)) == vec([-3, 8])
    g2 = build("G2")
    t1, t2 = generators(g2)
    assert t1.apply((1, 1)) == vec([-1, 4])          # (a,b) -> (-a, 3a+b)
    assert t2.apply((1, 1)) == vec([2, -1])          # (a,b) -> (a+b, -b)


def test_generators_are_involutions_with_det_minus_one():
    # E7 and E8 too, whose groups are above DEFAULT_GROUP_LIMIT
    assert len(ALL_DIAGRAMS) == 32
    for label in ALL_DIAGRAMS:
        rs = build(label)
        for g in generators(rs):
            assert g.det == -1
            m = np.array(g.matrix)
            assert (m @ m == np.eye(rs.rank, dtype=int)).all()


def test_group_orders():
    for label, order in WEYL_ORDERS.items():
        assert len(generate_group(build(label))) == order


def test_group_size_limit():
    with pytest.raises(GroupSizeError):
        generate_group(build("A8"))


def test_f4_and_e6_close_and_only_the_group_limit_refuses():
    # DEFAULT_GROUP_LIMIT is the one rule that refuses a group: F4 and E6
    # are below it and close; E7 and E8 are above it, and each entry point
    # of the group names the limit
    assert len(generate_group(build("F4"))) == 1152
    assert len(generate_group(build("E6"))) == 51840
    for label in ("E7", "E8"):
        rs = build(label)
        for call in (generate_group, lambda rs: signed_orbit(rs, rs.rho),
                     lambda rs: orbit(rs, (1,) + (0,) * (rs.rank - 1))):
            message = f"|W({label})| = {rs.weyl_order} exceeds the limit 100000"
            with pytest.raises(GroupSizeError, match=re.escape(message)):
                call(rs)


def test_f4_and_e6_orbits_of_roots_and_of_omega_1():
    # on F4 omega_1 is the highest root: its orbit is the 24 long roots, and
    # that of the highest short root the 24 short ones; on E6 omega_1 has
    # the 27 weights of the minuscule representation
    f4 = build("F4")
    roots = set(positive_roots(f4)) | {tuple(-c for c in r) for r in positive_roots(f4)}
    long_roots = set(orbit(f4, f4.highest_root_omega))
    short_roots = set(orbit(f4, highest_short_root(f4)))
    assert len(long_roots) == len(short_roots) == 24 and long_roots | short_roots == roots
    for label, size in (("F4", 24), ("E6", 27)):
        rs = build(label)
        omega_1 = (1,) + (0,) * (rs.rank - 1)
        assert len(orbit(rs, omega_1)) == size == rs.weyl_order // stabilizer_order(rs, omega_1)


def test_group_closure_and_det_multiplicativity():
    for label in ["A2", "C2", "G2", "B3"]:
        rs = build(label)
        grp = generate_group(rs)
        mats = {w.matrix: w.det for w in grp}
        rng = random.Random(7)
        for _ in range(60):
            w1, w2 = rng.choice(grp), rng.choice(grp)
            prod = tuple(map(tuple, (np.array(w1.matrix) @ np.array(w2.matrix)).tolist()))
            assert prod in mats
            assert mats[prod] == w1.det * w2.det


def test_det_matches_word_parity():
    for label in ["A3", "C3", "G2"]:
        for w in generate_group(build(label)):
            assert w.det == (-1) ** len(w.word)


def _brute_dominant(rs, x):
    """Oracle: scan the whole group for the dominant representative."""
    hits = [(w.apply(vec(x)), w.det) for w in generate_group(rs)]
    dom = [(p, d) for p, d in hits if all(c >= 0 for c in p)]
    weights = {p for p, _ in dom}
    assert len(weights) == 1
    signs = {d for _, d in dom}
    return dom[0][0], signs


def test_to_dominant_against_brute_force():
    rng = random.Random(3)
    for label in ["A2", "C2", "G2", "A3", "B3"]:
        rs = build(label)
        for _ in range(40):
            x = [F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(rs.rank)]
            res = to_dominant(rs, x)
            weight, signs = _brute_dominant(rs, x)
            assert res.weight == weight
            assert res.sign in signs
            if not res.on_wall:
                assert len(signs) == 1 and res.sign in signs
            assert res.on_wall == any(c == 0 for c in weight)


def test_to_dominant_examples():
    a2 = build("A2")
    assert to_dominant(a2, (-1, 2)) == to_dominant(a2, (-1, 2))
    res = to_dominant(a2, (-1, 2))
    assert (res.weight, res.sign, res.on_wall) == (vec([1, 1]), -1, False)
    res = to_dominant(a2, (5, 2))
    assert (res.weight, res.sign) == (vec([5, 2]), 1)
    # (1,-1) reflects once onto the wall point (0,1)
    res = to_dominant(a2, (1, -1))
    assert (res.weight, res.sign, res.on_wall) == (vec([0, 1]), -1, True)
    # (0,-1) lands on (1,0) after two reflections (exhaustive check)
    res = to_dominant(a2, (0, -1))
    assert (res.weight, res.sign, res.on_wall) == (vec([1, 0]), 1, True)


ALGEBRA_DIAGRAMS = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                    "C2", "C3", "C4", "C5", "D4", "D5", "G2"]


@st.composite
def descent_cases(draw):
    """A diagram, a rational shift beta and integer rows over a
    denominator d; small coordinates, so that many rows end on walls."""
    rs = build(draw(st.sampled_from(ALGEBRA_DIAGRAMS)))
    n = rs.rank
    beta = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3)
                         | st.just(F(0)), min_size=n, max_size=n))
    coord = st.integers(-3, 3) | st.integers(-40, 40)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=12))
    return rs, tuple(beta), np.array(rows, dtype=np.int64), draw(st.sampled_from([1, 2, 3, 6]))


@settings(max_examples=80, deadline=None)
@given(descent_cases())
def test_batched_descent_equals_to_dominant_row_by_row(case):
    rs, beta, rows, d = case
    doms, signs, D = _dominant_forms(rs, beta, rows, d)
    for row, dom, sign in zip(rows.tolist(), doms.tolist(), signs.tolist()):
        want = to_dominant(rs, tuple(b + F(c, d) for b, c in zip(beta, row)))
        assert tuple(F(c, D) for c in dom) == want.weight
        assert (sign, 0 in dom) == (want.sign, want.on_wall)


def test_batched_descent_refuses_points_beyond_int64():
    a2 = build("A2")
    with pytest.raises(ValueError, match=r"^\(1, 1\) shifted by points over the "
                                         r"denominator 1 is too large for exact int64"):
        _dominant_forms(a2, (1, 1), np.array([[2 ** 62, 0]]), 1)


@pytest.mark.parametrize("label", ALGEBRA_DIAGRAMS)
def test_positive_roots_equal_the_oracle(label):
    rs = build(label)
    assert positive_roots(rs) == positive_roots_oracle(rs)


# -- signed orbit tables (shared fixtures) --------------------------------

from reference_tables import ORBIT_TABLES as FIXTURES, _t


@pytest.mark.parametrize("label,table,args_list", FIXTURES)
def test_signed_orbit_tables(label, table, args_list):
    rs = build(label)
    for args in args_list:
        expected = table(*args)
        got = signed_orbit(rs, args)
        assert len(got.points) == rs.weyl_order == len(expected)
        assert sorted(got.points) == sorted(expected)


def test_signed_orbit_a1xa1_by_composition():
    a1 = build("A1")
    a, b = 2, 3
    prod = [((pa[0], pb[0]), sa * sb)
            for pa, sa in signed_orbit(a1, (a,)).points
            for pb, sb in signed_orbit(a1, (b,)).points]
    expected = _t(((a, b), 1), ((-a, b), -1), ((a, -b), -1), ((-a, -b), 1))
    assert sorted(prod) == sorted(expected)


def test_signed_orbit_rejects_wall():
    with pytest.raises(WallError):
        signed_orbit(build("A2"), (1, 0))


def test_signed_orbit_tells_non_dominant_from_on_wall():
    a2 = build("A2")
    with pytest.raises(ValueError, match=r"^\(-1, 2\) is not dominant") as info:
        signed_orbit(a2, (-1, 2))
    assert type(info.value) is ValueError
    with pytest.raises(WallError, match=r"^\(1/2, 0\) lies on a wall"):
        signed_orbit(a2, (F(1, 2), 0))
    with pytest.raises(ValueError, match=r"^\(-1, 2\) is not dominant"):
        orbit(a2, (-1, 2))
    from orbitfuncs.transforms import build_plan
    with pytest.raises(ValueError, match="not dominant") as info:
        build_plan(a2, 5, labels=[(-1, 2)])
    assert type(info.value) is ValueError


def test_signed_orbit_negation_closure_c2_g2():
    # every signed orbit of C_2 and G_2 contains (-c,-d) with the same sign
    for label in ["C2", "G2"]:
        pts = dict(signed_orbit(build(label), (1, 2)).points)
        for p, s in pts.items():
            assert pts[tuple(-c for c in p)] == s


def test_generator_neighbors_flip_sign():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        pts = dict(signed_orbit(rs, (1, 2)).points)
        for g in generators(rs):
            for p, s in pts.items():
                assert pts[g.apply(p)] == -s


def test_orbit_sizes_and_stabilizer():
    a2 = build("A2")
    assert len(orbit(a2, (1, 0))) == 3
    assert orbit(a2, (0, 0)) == [vec([0, 0])]
    c2 = build("C2")
    assert len(orbit(c2, (1, 1))) == 8
    rng = random.Random(11)
    for label in ["A2", "A3", "B3", "C2", "C3", "G2", "D4"]:
        rs = build(label)
        for _ in range(50):
            lam = [rng.randint(0, 2) for _ in range(rs.rank)]
            assert len(orbit(rs, lam)) * stabilizer_order(rs, lam) == rs.weyl_order


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2))
def test_orbit_stabilizer_property_c2(lam):
    rs = build("C2")
    assert len(orbit(rs, lam)) * stabilizer_order(rs, lam) == rs.weyl_order


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "C5", "D4", "D5", "F4", "G2"])
def test_group_matches_the_bfs_oracle(label):
    # the same matrices, dets and words in the same order, as Python ints
    rs = build(label)
    grp = generate_group(rs)
    assert [(w.matrix, w.det, w.word) for w in grp] == list(group_oracle(rs))
    assert all(type(c) is int
               for w in grp for c in (w.det, *w.word, *itertools.chain(*w.matrix)))


@pytest.mark.parametrize("label", ["A5", "A6", "B5", "C5", "D5", "F4"])
def test_close_matches_the_loop_over_all_products(label):
    # The int64 bound of _scaled, rank * max(dual marks), is the closed
    # group's rank * max |entry|.
    rs = build(label)
    mats, dets, words, gain = close_oracle(rs)
    grp = _close(rs)
    assert grp.mats.dtype == mats.dtype and np.array_equal(grp.mats, mats)
    assert grp.dets.dtype == dets.dtype and np.array_equal(grp.dets, dets)
    assert grp.words == words and rs.rank * max(dual_marks(rs)) == gain
    assert grp.mats.flags.c_contiguous and not grp.mats.flags.writeable


def test_close_e6_gives_distinct_elements_with_reduced_words():
    rs = build("E6")
    grp = _close(rs)
    n = rs.rank
    assert grp.mats.shape == (51840, n, n)
    assert len(_distinct(grp.mats.reshape(len(grp.mats), -1))) == 51840
    lengths = np.array([len(w) for w in grp.words])
    assert np.array_equal(grp.dets, (-1) ** lengths)
    # the length of w is the number of positive roots it sends negative:
    # the roots are the images of the simple roots (the Cartan rows), and
    # a root is positive when its alpha-height, its pairing with the row
    # sums of the inverse Cartan matrix, is positive
    cartan = np.array(rs.cartan, dtype=np.int64)
    roots = _distinct(np.einsum("gjk,ik->gij", grp.mats, cartan).reshape(-1, n))
    sums = [sum(row) for row in rs.cartan_inv]
    d = math.lcm(*(c.denominator for c in sums))
    height = np.array([int(c * d) for c in sums])
    positive = roots[roots @ height > 0]
    assert len(roots) == 72 and len(positive) == 36
    inversions = (np.einsum("k,gkj->gj", height, grp.mats) @ positive.T < 0).sum(axis=1)
    assert np.array_equal(inversions, lengths)
    # every layer of the BFS is one length, in increasing order
    assert np.array_equal(np.unique(lengths), np.arange(37))
    assert (np.diff(lengths) >= 0).all()


def test_close_leaves_numpy_ma_unimported():
    import os
    import subprocess
    import sys
    import orbitfuncs
    code = ("import sys\n"
            "from orbitfuncs.rootsys import build\n"
            "from orbitfuncs.weyl import _close\n"
            "for label in ('A3', 'D5', 'E6'):\n"
            "    _close(build(label))\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitfuncs.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_an_evicted_group_is_closed_again_to_the_same_arrays(monkeypatch):
    from orbitfuncs import rootsys, weyl
    for cache in (rootsys._CACHE, weyl._GROUP_CACHE):
        assert cache.maxsize >= 11   # the diagrams of the largest bench workload
        monkeypatch.setattr(cache, "maxsize", 1)
        cache.clear()
    first = {}
    for label in ("B3", "A3"):
        rs = build(label)
        first[label] = rs, _group(rs)
    # each diagram and its group went when the other was built
    for label, (rs, grp) in first.items():
        again_rs = build(label)
        again = _group(again_rs)
        assert again_rs == rs and again_rs is not rs and again is not grp
        assert np.array_equal(again.mats, grp.mats) and again.mats.dtype == grp.mats.dtype
        assert np.array_equal(again.dets, grp.dets)
        assert again.words == grp.words


def _coordinate(low):
    """k/q with low <= k <= 6 and q <= 4, often k = low (a wall for 0)."""
    return st.one_of(st.just(F(low)), st.builds(F, st.integers(low, 6), st.integers(1, 4)))


@st.composite
def _weights(draw, low):
    rs = build(draw(st.sampled_from(["A2", "A3", "B3", "C3", "G2", "D4", "F4"])))
    lam = draw(st.lists(_coordinate(low), min_size=rs.rank, max_size=rs.rank))
    return rs, tuple(lam)


@settings(max_examples=60, deadline=None)
@given(_weights(0))
def test_orbit_matches_the_bfs_oracle(case):
    rs, lam = case
    assert orbit(rs, lam) == orbit_oracle(rs, lam)


@settings(max_examples=60, deadline=None)
@given(_weights(1))
def test_signed_orbit_matches_the_element_oracle(case):
    rs, lam = case
    got = signed_orbit(rs, lam)
    assert got.dominant == vec(lam)
    assert got.points == signed_orbit_oracle(rs, lam)


@settings(max_examples=60, deadline=None)
@given(_weights(0), st.integers(0, 10 ** 6))
def test_stabilizer_order_matches_the_parabolic_oracle(case, pick):
    # lam is dominant, often on a wall; its image under an element of the
    # group is in general neither dominant nor on a wall itself
    rs, lam = case
    grp = group_oracle(rs)
    x = mat_vec(grp[pick % len(grp)][0], vec(lam))
    assert stabilizer_order(rs, lam) == stabilizer_oracle(rs, lam)
    assert stabilizer_order(rs, x) == stabilizer_oracle(rs, x)


@pytest.mark.parametrize("label,lam", [("B4", (1, 0, 2, F(1, 2))),
                                       ("C5", (1, 0, F(2, 3), 0, 1)),
                                       ("D5", (F(1, 3), 1, 0, 1, 1))])
def test_large_groups_match_the_oracles(label, lam):
    rs = build(label)
    assert orbit(rs, lam) == orbit_oracle(rs, lam)
    strict = tuple(c + 1 for c in lam)
    assert signed_orbit(rs, strict).points == signed_orbit_oracle(rs, strict)
    grp = group_oracle(rs)
    for x in (lam, strict, mat_vec(grp[len(grp) // 2][0], vec(lam))):
        assert stabilizer_order(rs, x) == stabilizer_oracle(rs, x)


def test_weights_beyond_int64_are_refused():
    a2 = build("A2")
    for call in (lambda: orbit(a2, (2 ** 62, 2 ** 62)),
                 lambda: signed_orbit(a2, (2 ** 62, 1))):
        with pytest.raises(ValueError, match="too large for exact int64 arithmetic"):
            call()
    # the bound is not stricter than the arithmetic needs
    assert orbit(a2, (2 ** 60, 2 ** 60)) == orbit_oracle(a2, (2 ** 60, 2 ** 60))
    # the stabilizer is root data, exact at any size
    assert stabilizer_order(a2, (F(1, 3), 2 ** 62)) == 1
    x = (F(-1, 3), 2 ** 62)
    assert stabilizer_order(a2, x) == stabilizer_oracle(a2, x) == 1
    assert stabilizer_order(a2, (-2 ** 70, 2 ** 70)) == stabilizer_oracle(a2, (-2 ** 70, 2 ** 70))


def test_affine_reflection():
    for label in ["A2", "C2", "G2", "B3"]:
        rs = build(label)
        xi = rs.highest_root_omega
        zero = vec([0] * rs.rank)
        assert affine_r0(rs, zero) == xi
        half = tuple(c / 2 for c in xi)
        assert affine_r0(rs, half) == half
        rng = random.Random(5)
        for _ in range(10):
            x = vec([F(rng.randint(-9, 9), 4) for _ in range(rs.rank)])
            assert affine_r0(rs, affine_r0(rs, x)) == x
            # r0 after r_xi is the translation by xi^check
            assert affine_r0(rs, reflect_highest_root(rs, x)) == \
                tuple(a + b for a, b in zip(x, xi))


def test_fundamental_domain_membership():
    a2 = build("A2")
    for v in [(0, 0), (1, 0), (0, 1)]:
        assert in_fundamental_domain(a2, v) == "boundary"
    assert in_fundamental_domain(a2, (F(1, 3), F(1, 3))) == "interior"
    assert in_fundamental_domain(a2, (1, 1)) == "outside"
    assert in_fundamental_domain(a2, (-F(1, 8), F(1, 2))) == "outside"
    g2 = build("G2")
    for v in [(0, 0), (F(1, 2), 0), (0, 1)]:
        assert in_fundamental_domain(g2, v) == "boundary"
    assert in_fundamental_domain(g2, (F(1, 8), F(1, 8))) == "interior"


@pytest.mark.parametrize("call", [xi_pairing, reflect_highest_root, affine_r0,
                                  in_fundamental_domain])
@pytest.mark.parametrize("x", [(F(1, 10),), (F(1, 10),) * 3])
def test_affine_geometry_refuses_points_of_the_wrong_length(call, x):
    with pytest.raises(ValueError, match=f"expected 2 coordinates for A2, got {len(x)}"):
        call(build("A2"), x)


def test_positive_root_counts():
    assert positive_root_count(build("A2")) == 3
    assert positive_root_count(build("A3")) == 6
    assert positive_root_count(build("B3")) == 9
    assert positive_root_count(build("C3")) == 9
    assert positive_root_count(build("C2")) == 4
    assert positive_root_count(build("D4")) == 12
    assert positive_root_count(build("G2")) == 6


def test_cached_results_cannot_be_changed_by_a_caller():
    from orbitfuncs.orbitfn import dimension, rho_cosine_orbit_decomposition
    a2 = build("A2")
    for cached in (positive_roots(a2), generate_group(a2)):
        with pytest.raises(AttributeError):
            cached.pop()
    with pytest.raises(ValueError, match="read-only"):
        signed_orbit(a2, (1, 2)).dets[0] = 5
    rho_cosine_orbit_decomposition(a2).clear()
    assert rho_cosine_orbit_decomposition(a2)[a2.rho] == 1
    assert dimension(a2, (1, 1)) == 8
    assert len(generate_group(a2)) == 6


def test_positive_roots_contain_simple_and_highest():
    for label in ["A2", "C2", "G2", "B3"]:
        rs = build(label)
        pos = set(positive_roots(rs))
        for i in range(rs.rank):
            assert vec(rs.cartan[i]) in pos
        assert rs.highest_root_omega in pos


def _orth_elements(rs) -> list:
    """(perm, signs, det) of every element, in the order of the group."""
    perm, signs = orth_action(rs)
    return list(zip(map(tuple, perm.tolist()), map(tuple, signs.tolist()),
                    _group(rs).dets.tolist()))


def test_orth_action_b_equals_c_and_d_even():
    b2, c2 = build("B2"), build("C2")
    assert set(_orth_elements(b2)) == set(_orth_elements(c2))
    m = np.array([F(5, 2), F(3, 2)], dtype=object)
    orb_b, orb_c = (sorted(map(tuple, signs * m[perm]))
                    for perm, signs in (orth_action(b2), orth_action(c2)))
    assert orb_b == orb_c
    d4 = build("D4")
    perm, signs = orth_action(d4)
    assert perm.shape == signs.shape == (192, 4)
    assert np.all((signs == -1).sum(axis=1) % 2 == 0)
    # computed once per diagram, read-only
    assert orth_action(d4) is orth_action(d4)
    assert not perm.flags.writeable and not signs.flags.writeable
    with pytest.raises(UnsupportedCoordinatesError):
        orth_action(build("G2"))


def test_orth_action_matches_omega_action():
    # the orthogonal-coordinate signed orbit equals the omega one, mapped
    # over, element by element in the order of the group
    from orbitfuncs.rootsys import to_orthogonal
    for label, lam in [("A2", (1, 2)), ("B3", (1, 2, 1)), ("C3", (2, 1, 1)), ("D4", (1, 1, 1, 1))]:
        rs = build(label)
        omega_pts = [(to_orthogonal(rs, p), s) for p, s in signed_orbit(rs, lam).points]
        m = to_orthogonal(rs, lam)
        orth_pts = [(tuple(s * m[i] for i, s in zip(p, signs)), d)
                    for p, signs, d in _orth_elements(rs)]
        assert omega_pts == orth_pts


_ORTH_DIAGRAMS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "B5",
                  "C2", "C3", "C4", "C5", "D4", "D5"]


@functools.lru_cache(maxsize=None)
def _oracle_elements(label: str) -> frozenset:
    return frozenset(oracle_orth_group(build(label)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ORTH_DIAGRAMS),
       st.sets(st.fractions(min_value=F(1, 4), max_value=12, max_denominator=4),
               min_size=6, max_size=6))
def test_orth_action_equals_the_orth_group_oracle(label, coords):
    rs = build(label)
    elements = _orth_elements(rs)
    assert len(elements) == rs.weyl_order
    assert set(elements) == _oracle_elements(label)
    # on a strictly dominant m the images are all distinct and are the
    # oracle's, each with its det
    m = tuple(sorted(coords, reverse=True))[:len(elements[0][0])]
    got = [(tuple(s * m[i] for i, s in zip(p, signs)), d) for p, signs, d in elements]
    assert len({pt for pt, _ in got}) == len(got)
    assert set(got) == {(oracle_orth_apply(p, s, m), d)
                        for p, s, d in _oracle_elements(label)}


@st.composite
def _orth_rows(draw, width: int):
    """Rows of orthogonal coordinates for the strict-dominance mask: int64
    rows of small and large coordinates, as drawn or sorted decreasing (so
    that strict dominance occurs), or object rows of sorted Fractions."""
    form = draw(st.sampled_from(["int", "sorted", "fraction"]))
    if form == "fraction":
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    else:
        coord = st.integers(-4, 4) | st.integers(-2 ** 61, 2 ** 61)
    rows = draw(st.lists(st.lists(coord, min_size=width, max_size=width), max_size=30))
    if form != "int":
        rows = [sorted(row, reverse=True) for row in rows]
    dtype = object if form == "fraction" else np.int64
    return np.array(rows, dtype=dtype).reshape(len(rows), width)


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("family", "ABCD")
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dominant_rows_equal_the_per_family_oracle(family, width, data):
    t = data.draw(_orth_rows(width))
    got = _dominant_rows(family, t)
    assert got.dtype == bool and got.shape == (len(t),)
    assert np.array_equal(got, dominant_rows_oracle(family, t))


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("family", "ABCD")
def test_dominant_rows_equal_the_oracle_on_every_small_row(family, width):
    t = np.array(list(itertools.product(range(-2, 3), repeat=width)), dtype=np.int64)
    assert np.array_equal(_dominant_rows(family, t), dominant_rows_oracle(family, t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "C2", "G2", "B3"]),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8),
                min_size=3, max_size=3))
def test_to_dominant_property(label, coords):
    rs = build(label)
    x = vec(coords[: rs.rank])
    res = to_dominant(rs, x)
    assert all(c >= 0 for c in res.weight)
    assert res.sign in (-1, 1)
    # the result lies in the orbit of x
    assert any(w.apply(x) == res.weight for w in generate_group(rs))
