import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitfuncs import orbitfn
from orbitfuncs.rootsys import build, vec, to_orthogonal, orth_pairing_scale
from orbitfuncs.weyl import generate_group, affine_r0, WallError
from orbitfuncs.orbitfn import (
    rho_cosine_orbit_decomposition, character_highprec,
    eval_orbit_function, eval_batch, eval_coroot_point, eval_orth,
    eval_orth_batch,
    closed_form_orth, rho_products, rho_products_orth, rho_orth,
    character, dimension, an_identity, vandermonde, partitions,
    NearSingularEvaluationError, is_strictly_dominant_orth,
)

from orbit_oracles import group_sum, group_sum_terms

RNG = random.Random(20240)


def rand_x(n, lo=-1.0, hi=1.0):
    return [RNG.uniform(lo, hi) for _ in range(n)]


def rand_strict(n, hi=4):
    return tuple(F(RNG.randint(1, hi), RNG.choice([1, 1, 2])) for _ in range(n))


def test_a1_sine_and_cosine():
    a1 = build("A1")
    for m in (1, 2, 5):
        for theta in (0.3, 0.71, -0.2):
            anti = eval_orbit_function(a1, "anti", (m,), (theta,))
            sym = eval_orbit_function(a1, "sym", (m,), (theta,))
            assert abs(anti - 2j * math.sin(math.pi * m * theta)) < 1e-12
            assert abs(sym - 2 * math.cos(math.pi * m * theta)) < 1e-12


def test_vanishing_at_origin_and_orbit_size_at_zero():
    for label in ["A2", "C2", "G2", "B3"]:
        rs = build(label)
        lam = rand_strict(rs.rank)
        assert abs(eval_orbit_function(rs, "anti", lam, [0] * rs.rank)) < 1e-12
        assert eval_orbit_function(rs, "norm", lam, [0] * rs.rank).real == \
            pytest.approx(rs.weyl_order)


def test_a2_explicit_value():
    a2 = build("A2")
    val = eval_orbit_function(a2, "anti", (1, 1), (0.25, 0.25))
    assert abs(val - (-4j)) < 1e-12


def a2_closed_form(a, b, t1, t2):
    w = 2j * math.pi / 3
    return (cmath.exp(w * ((2 * a + b) * t1 + (a + 2 * b) * t2))
            - cmath.exp(w * ((-a + b) * t1 + (a + 2 * b) * t2))
            - cmath.exp(w * ((2 * a + b) * t1 + (a - b) * t2))
            + cmath.exp(-w * ((a - b) * t1 + (2 * a + b) * t2))
            + cmath.exp(-w * ((a + 2 * b) * t1 + (-a + b) * t2))
            - cmath.exp(-w * ((a + 2 * b) * t1 + (2 * a + b) * t2)))


def c2_closed_form(a, b, t1, t2):
    c = lambda z: 2 * math.cos(math.pi * z)
    return (c((a + b) * t1 + (a + 2 * b) * t2) - c(b * t1 + (a + 2 * b) * t2)
            - c((a + b) * t1 + a * t2) + c(b * t1 - a * t2))


def g2_closed_form(a, b, t1, t2):
    c = lambda z: 2 * math.cos(math.pi * z)
    return (c((2 * a + b) * t1 + (a + 2 * b / 3) * t2)
            - c((a + b) * t1 + (a + 2 * b / 3) * t2)
            - c((2 * a + b) * t1 + (a + b / 3) * t2)
            + c((a + b) * t1 + (b / 3) * t2)
            + c(a * t1 + (a + b / 3) * t2)
            - c(a * t1 - (b / 3) * t2))


def test_rank2_closed_forms():
    a2, c2, g2 = build("A2"), build("C2"), build("G2")
    for _ in range(50):
        a, b = RNG.randint(1, 5), RNG.randint(1, 5)
        t1, t2 = rand_x(2)
        va = eval_orbit_function(a2, "anti", (a, b), (t1, t2))
        assert abs(va - a2_closed_form(a, b, t1, t2)) < 1e-10 * (1 + abs(va))
        vc = eval_orbit_function(c2, "anti", (a, b), (t1, t2))
        assert abs(vc - c2_closed_form(a, b, t1, t2)) < 1e-10 * (1 + abs(vc))
        # the G_2 quadratic form quoted with these cosines is half of
        # M^-1 D, so the formula evaluates the function at x/2 here
        vg = eval_orbit_function(g2, "anti", (a, b), (t1 / 2, t2 / 2))
        assert abs(vg - g2_closed_form(a, b, t1, t2)) < 1e-10 * (1 + abs(vg))


def test_a2_equal_coordinates_pure_imaginary_form():
    a2 = build("A2")
    for a in (1, 2, 3):
        t1, t2 = rand_x(2)
        v = eval_orbit_function(a2, "anti", (a, a), (t1, t2))
        s = lambda z: math.sin(2 * math.pi * z)
        expect = 2j * (s(a * (t1 + t2)) - s(a * t1) - s(a * t2))
        assert abs(v - expect) < 1e-10


def test_omega_vs_orthogonal_evaluation():
    for label in ["A2", "A3", "B2", "B3", "C2", "C3", "D4"]:
        rs = build(label)
        scale = float(orth_pairing_scale(rs))
        for _ in range(10):
            lam = rand_strict(rs.rank)
            x = rand_x(rs.rank)
            m = to_orthogonal(rs, lam)
            mx = to_orthogonal(rs, vec([F(c).limit_denominator(64) for c in
                                        [F(xx).limit_denominator(64) for xx in x]]))
            xq = [float(v) / scale for v in mx]
            xo = [F(xx).limit_denominator(64) for xx in x]
            lhs = eval_orbit_function(rs, "anti", lam, [float(v) for v in xo])
            rhs = eval_orth(rs, "anti", m, xq)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def rand_orth_strict(rs):
    r = rs.rank + 1 if rs.family == "A" else rs.rank
    while True:
        m = sorted({F(RNG.randint(1, 12), RNG.choice([1, 2])) for _ in range(r)},
                   reverse=True)
        if len(m) == r:
            break
    if rs.family == "A":
        shift = sum(m) / len(m)
        m = [v - shift for v in m]
    if rs.family == "D" and RNG.random() < 0.3:
        m[-1] = -m[-1] if RNG.random() < 0.5 else F(0)
    return tuple(m)


def test_closed_forms_match_group_sums():
    for label in ["A2", "A3", "B3", "C3", "C2", "D4"]:
        rs = build(label)
        for kind in ("anti", "sym"):
            for _ in range(12):
                m = rand_orth_strict(rs)
                x = rand_x(len(m))
                ref = eval_orth(rs, kind, m, x)
                got = closed_form_orth(rs, kind, m, x)
                assert abs(ref - got) < 1e-10 * (1 + abs(ref)), (label, kind, m)


def test_orth_batch_refuses_what_the_single_point_refuses():
    b3 = build("B3")
    xs = np.array([[0.1, 0.2, 0.3], [0.3, -0.1, 0.05]])
    for call in (lambda m, kind: eval_orth(b3, kind, m, xs[0]),
                 lambda m, kind: eval_orth_batch(b3, kind, m, xs)):
        with pytest.raises(ValueError, match="only defined on omega"):
            call((3, 2, 1), "normalized")
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            call((3, 2), "anti")
        with pytest.raises(WallError):
            call((2, 2, 1), "anti")
    one = eval_orth(b3, "anti", (3, 2, 1), xs[1])
    assert abs(eval_orth_batch(b3, "anti", (3, 2, 1), xs)[1] - one) < 1e-12 * abs(one)


def test_batches_refuse_bad_points():
    a2, b3 = build("A2"), build("B3")
    for call, n, label in ((lambda xs: eval_batch(a2, "anti", (1, 2), xs), 2, "A2"),
                           (lambda xs: eval_batch(b3, "sym", (1, 0, 2), xs), 3, "B3"),
                           (lambda xs: eval_orth_batch(b3, "anti", (3, 2, 1), xs), 3, "B3")):
        good = np.full((3, n), 0.1)
        with pytest.raises(ValueError, match=f"expected {n} coordinates per point for {label}"):
            call(np.full((3, n + 1), 0.1))
        for bad in (np.nan, np.inf):
            xs = good.copy()
            xs[1, -1] = bad
            with pytest.raises(ValueError, match="point 1 is not finite"):
                call(xs)
    with pytest.raises(ValueError, match="expected 3 coordinates per point for B3"):
        eval_orth(b3, "anti", (3, 2, 1), [0.1, 0.2])
    for kind in ("anti", "sym"):
        with pytest.raises(ValueError, match="expected 3 coordinates per point for B3"):
            closed_form_orth(b3, kind, (3, 2, 1), [0.1, 0.2])
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            closed_form_orth(b3, kind, (3, 2), [0.1, 0.2, 0.3])


def test_orthogonal_entry_points_refuse_bad_weights_and_points():
    b3 = build("B3")
    with pytest.raises(ValueError, match="expected 3 coordinates per point for B3"):
        rho_products_orth(b3, (0.1, 0.2))
    with pytest.raises(ValueError, match="expected 3 coordinates per weight for B3"):
        is_strictly_dominant_orth(b3, (1,))
    with pytest.raises(ValueError, match="no orthogonal model for G2"):
        is_strictly_dominant_orth(build("G2"), (2, 1))
    for bad in (math.nan, math.inf, -math.inf):
        for call in (closed_form_orth, eval_orth):
            with pytest.raises(ValueError, match="weight 0 is not finite for B3"):
                call(b3, "anti", (3, bad, 1), (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="weight 0 is not finite for B3"):
            is_strictly_dominant_orth(b3, (bad, 2, 1))
        with pytest.raises(ValueError, match="point 0 is not finite for B3"):
            rho_products_orth(b3, (0.1, bad, 0.3))


def test_closed_form_d_with_zero_last_coordinate():
    d4 = build("D4")
    m = (3, 2, 1, 0)
    x = rand_x(4)
    ref = eval_orth(d4, "anti", m, x)
    got = closed_form_orth(d4, "anti", m, x)
    assert abs(ref - got) < 1e-10 * (1 + abs(ref))
    # the sine determinant itself vanishes when the last coordinate is 0
    sin_det = np.linalg.det(np.sin(2 * np.pi * np.outer(m, x)))
    assert abs(sin_det) < 1e-12


def test_b2_equals_c2_in_orthogonal_coordinates():
    b2, c2 = build("B2"), build("C2")
    m = (F(7, 2), F(3, 2))
    for _ in range(5):
        x = rand_x(2)
        assert abs(eval_orth(b2, "anti", m, x) - eval_orth(c2, "anti", m, x)) < 1e-12


def test_closed_form_rejects_walls():
    with pytest.raises(WallError):
        closed_form_orth(build("C2"), "anti", (2, 2), (0.1, 0.2))
    assert not is_strictly_dominant_orth(build("B3"), (3, 1, 1))


def test_rho_sine_product_matches_definition():
    for label in ["A2", "A3", "B3", "C3", "C2", "D4", "G2"]:
        rs = build(label)
        for _ in range(20):
            x = rand_x(rs.rank)
            anti, _ = rho_products(rs, x)
            ref_a = eval_orbit_function(rs, "anti", rs.rho, x)
            assert abs(anti - ref_a) < 1e-10 * (1 + abs(ref_a))


def test_rho_cosine_product_decomposes_into_orbit_sums():
    # the cosine product is the rho orbit sum plus lower orbit sums; the
    # naive identity fails for every rank >= 2 diagram
    for label in ["A1", "A2", "C2", "G2", "B3"]:
        rs = build(label)
        coeffs = rho_cosine_orbit_decomposition(rs)
        assert coeffs[rs.rho] == 1
        if label == "A1":
            assert coeffs == {rs.rho: 1}
        else:
            assert len(coeffs) > 1
        for _ in range(8):
            x = rand_x(rs.rank)
            _, cosprod = rho_products(rs, x)
            expanded = sum(c * eval_orbit_function(rs, "sym", lab, x)
                           for lab, c in coeffs.items())
            assert abs(cosprod - expanded) < 1e-10 * (1 + abs(cosprod))
    # counterexample pinning the defect: for A_2 the difference is the
    # constant coefficient on the zero orbit
    a2 = build("A2")
    x = rand_x(2)
    _, cosprod = rho_products(a2, x)
    ref_s = eval_orbit_function(a2, "sym", a2.rho, x)
    assert abs(cosprod - ref_s - 2.0) < 1e-10


def test_rho_products_orthogonal_formulas():
    for label in ["A2", "A3", "B3", "C3", "C2", "D4"]:
        rs = build(label)
        m = rho_orth(rs)
        scale = float(orth_pairing_scale(rs))
        for _ in range(10):
            x = rand_x(len(m))
            if rs.family == "A":
                shift = sum(x) / len(x)
                x = [v - shift for v in x]
            anti, cosprod = rho_products_orth(rs, x)
            ref_a = eval_orth(rs, "anti", m, x)
            assert abs(anti - ref_a) < 1e-9 * (1 + abs(ref_a))
        # the products agree with their omega-coordinate counterparts
        for _ in range(6):
            xo = [F(RNG.randint(-20, 20), 32) for _ in range(rs.rank)]
            mx = [v / scale for v in to_orthogonal(rs, xo)]
            po = rho_products(rs, [float(v) for v in xo])
            pm = rho_products_orth(rs, [float(v) for v in mx])
            assert abs(po[0] - pm[0]) < 1e-9 * (1 + abs(po[0]))
            assert abs(po[1] - pm[1]) < 1e-9 * (1 + abs(po[1]))


def test_rho_vanishes_on_walls_not_inside():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        # wall of the chamber: first coordinate zero
        x = [0.0] + rand_x(rs.rank - 1)
        anti, _ = rho_products(rs, x)
        assert abs(anti) < 1e-9
        # <alpha, x> integral for the highest root: scaled lattice point
        interior = _interior_point(rs)
        anti, _ = rho_products(rs, interior)
        assert abs(anti) > 1e-6


def test_rho_products_refuse_bad_points():
    a2 = build("A2")
    for x in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(ValueError, match="expected 2 coordinates per point for A2"):
            rho_products(a2, x)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="point 0 is not finite"):
            rho_products(a2, (0.1, bad))


def _interior_point(rs):
    # a strictly interior point of F: small positive coordinates
    q = sum(rs.comarks)
    return [0.9 / (q * (i + 2)) for i in range(rs.rank)]


# -- invariances ----------------------------------------------------------

def test_anti_invariance():
    for label in ["A2", "C2", "G2", "A3", "B3"]:
        rs = build(label)
        grp = generate_group(rs)
        for _ in range(12):
            lam = rand_strict(rs.rank)
            x = [F(RNG.randint(-600, 600), 512) for _ in range(rs.rank)]
            w = RNG.choice(grp)
            xf = np.array([[float(c) for c in x]])
            wx = np.array([[float(c) for c in w.apply(x)]])
            ref = eval_batch(rs, "anti", lam, xf)[0]
            got = eval_batch(rs, "anti", lam, wx)[0]
            assert abs(got - w.det * ref) < 1e-10 * (1 + abs(ref))


def test_affine_anti_invariance_and_boundary_vanishing():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for _ in range(10):
            lam = tuple(RNG.randint(1, 3) for _ in range(rs.rank))
            xq = vec([F(RNG.randint(-40, 40), 64) for _ in range(rs.rank)])
            r0x = affine_r0(rs, xq)
            a = eval_orbit_function(rs, "anti", lam, [float(c) for c in xq])
            b = eval_orbit_function(rs, "anti", lam, [float(c) for c in r0x])
            assert abs(a + b) < 1e-10 * (1 + abs(a))
        # points on the affine wall <x, xi> = 1
        for _ in range(8):
            lam = tuple(RNG.randint(1, 3) for _ in range(rs.rank))
            x = [RNG.uniform(0.01, 0.3) for _ in range(rs.rank)]
            level = sum(q * v for q, v in zip(rs.comarks, x))
            x = [v / level for v in x]
            val = eval_orbit_function(rs, "anti", lam, x)
            assert abs(val) < 1e-9


def test_scaling_symmetry():
    for label in ["A2", "C2", "B3"]:
        rs = build(label)
        for _ in range(10):
            lam = rand_strict(rs.rank)
            c = F(RNG.randint(1, 9), RNG.randint(1, 5))
            x = rand_x(rs.rank)
            lhs = eval_orbit_function(rs, "anti", [c * l for l in lam], x)
            rhs = eval_orbit_function(rs, "anti", lam, [float(c) * v for v in x])
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_duality():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for _ in range(10):
            lam = rand_strict(rs.rank)
            x = rand_strict(rs.rank)
            lhs = eval_orbit_function(rs, "anti", lam, [float(c) for c in x])
            rhs = eval_orbit_function(rs, "anti", x, [float(c) for c in lam])
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_realness_classes():
    c2, g2 = build("C2"), build("G2")
    b3, c3 = build("B3"), build("C3")
    d4 = build("D4")
    for _ in range(10):
        x2, x3, x4 = rand_x(2), rand_x(3), rand_x(4)
        for rs in (c2, g2):
            v = eval_orbit_function(rs, "anti", rand_strict(2), x2)
            assert abs(v.imag) < 1e-10 * (1 + abs(v))
        for rs in (b3, c3):
            v = eval_orbit_function(rs, "anti", rand_strict(3), x3)
            assert abs(v.real) < 1e-10 * (1 + abs(v))
        v = eval_orbit_function(d4, "anti", rand_strict(4), x4)
        assert abs(v.imag) < 1e-10 * (1 + abs(v))


def test_a_family_conjugation_rule():
    # reversing the label conjugates for A_3 (n = 4k-1) and negates the
    # conjugate for A_2 (n = 4k+2)
    a2, a3 = build("A2"), build("A3")
    for _ in range(8):
        lam2, lam3 = rand_strict(2), rand_strict(3)
        x2, x3 = rand_x(2), rand_x(3)
        v = eval_orbit_function(a2, "anti", lam2, x2)
        w = eval_orbit_function(a2, "anti", lam2[::-1], x2)
        assert abs(v + w.conjugate()) < 1e-10 * (1 + abs(v))
        v = eval_orbit_function(a3, "anti", lam3, x3)
        w = eval_orbit_function(a3, "anti", lam3[::-1], x3)
        assert abs(v - w.conjugate()) < 1e-10 * (1 + abs(v))


def test_eval_coroot_point_matches_float_path():
    rs = build("C2")
    lam = (2, 1)
    b = (F(1, 7), F(3, 7))
    # omega coordinates of the same point: theta = b . S^-1
    theta = [sum(b[i] * rs.metric_inv[i][j] for i in range(2)) for j in range(2)]
    lhs = eval_coroot_point(rs, "anti", lam, b)
    rhs = eval_orbit_function(rs, "anti", lam, [float(t) for t in theta])
    assert abs(lhs - rhs) < 1e-10


# -- characters and dimensions -------------------------------------------

def test_character_trivial_and_a1():
    a1 = build("A1")
    for m in (0, 1, 4):
        theta = 0.37
        chi = character(a1, (m,), (theta,))
        expect = math.sin(math.pi * (m + 1) * theta) / math.sin(math.pi * theta)
        assert abs(chi - expect) < 1e-10
    a2 = build("A2")
    x = rand_x(2)
    assert abs(character(a2, (0, 0), x) - 1) < 1e-10


def test_character_limit_matches_dimension():
    # at eps = 1e-5 both orbit sums are ~ eps^r with O(1) terms, far below
    # double-precision resolution for C_2 and G_2, so the limit check goes
    # through the high-precision path
    eps = F(1, 100000)
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for _ in range(6):
            lam = tuple(RNG.randint(0, 3) for _ in range(rs.rank))
            x = [eps * (10 + i) / 10 for i in range(rs.rank)]
            chi = character_highprec(rs, lam, x)
            assert abs(chi - dimension(rs, lam)) < 1e-3 * dimension(rs, lam)
    # the plain float path still works where cancellation is mild
    a2 = build("A2")
    chi = character(a2, (1, 0), [1e-5, 1e-5], threshold=0.0)
    assert abs(chi - 3) < 1e-3


def test_character_near_singular_guard():
    a2 = build("A2")
    with pytest.raises(NearSingularEvaluationError):
        character(a2, (1, 0), (0.0, 0.0))


def test_dimension_values():
    a2, c2, g2 = build("A2"), build("C2"), build("G2")
    assert dimension(a2, (0, 0)) == 1
    assert dimension(a2, (1, 0)) == 3
    assert dimension(a2, (1, 1)) == 8
    assert dimension(c2, (1, 0)) == 4
    assert dimension(c2, (0, 1)) == 5
    assert dimension(g2, (0, 1)) == 7
    assert dimension(g2, (1, 0)) == 14
    assert dimension(build("A3"), (1, 0, 0)) == 4
    assert dimension(build("B3"), (1, 0, 0)) == 7
    assert dimension(build("D4"), (1, 0, 0, 0)) == 8


# -- A-family identities ---------------------------------------------------

def test_partitions_enumeration():
    assert set(partitions(2, 2)) == {(2, 0), (1, 1)}
    assert set(partitions(0, 3)) == {(0, 0, 0)}
    assert len(list(partitions(4, 2))) == 3


def test_vandermonde():
    assert vandermonde((3, 1, 0)) == 6
    assert vandermonde((2, 2)) == 0


def test_cha5_exact():
    for m in range(5):
        assert an_identity("cha5", s=2, r=3, m=m) == 0.0
    assert an_identity("cha5", s=1, r=1, m=3) == 0.0
    assert an_identity("cha5", s=3, r=3, m=2) == 0.0


def test_cha6_cha7_exact():
    for n in (2, 3):
        for m in range(4):
            assert an_identity("cha6", n=n, m=m) == 0.0
            assert an_identity("cha7", n=n, m=m) == 0.0


def test_r1_and_cauchy_series():
    y = [0.23, -0.11]
    z = [0.3, 0.17]
    assert an_identity("R1", y=y, z=z, K=12) < 1e-8
    assert an_identity("cauchy", y=y, z=z, K=12) < 1e-8
    # rectangular case n1 < n2
    assert an_identity("R1", y=[0.2], z=[0.25, -0.1], K=14) < 1e-8


def test_cha3_cha4_series():
    y = [0.2, -0.15]
    assert an_identity("cha3", y=y, t=0.5, K=14) < 1e-8
    assert an_identity("cha4", y=y, t=0.5, K=14) < 1e-8
    y3 = [0.2, 0.1, -0.12]
    assert an_identity("cha4", y=y3, t=0.6, K=12) < 1e-8


def test_d5_odd_rank_conjugation_rule():
    # for odd-rank D diagrams, swapping the last two label coordinates
    # conjugates the function; equal last coordinates give a real value
    d5 = build("D5")
    lam = (1, 1, 1, 2, 1)
    swapped = (1, 1, 1, 1, 2)
    x = rand_x(5, -0.5, 0.5)
    v = eval_orbit_function(d5, "anti", lam, x)
    w = eval_orbit_function(d5, "anti", swapped, x)
    assert abs(v - w.conjugate()) < 1e-10 * (1 + abs(v))
    u = eval_orbit_function(d5, "anti", (2, 1, 3, 1, 1), x)
    assert abs(u.imag) < 1e-10 * (1 + abs(u))


def test_characters_match_known_weight_systems():
    # adjoint of the rank-2 A diagram: six nonzero weights plus the zero
    # weight twice; defining representation of the rank-2 C diagram: one
    # orbit; the 7-dimensional G2 representation: one orbit plus zero once
    cases = [("A2", (1, 1), 2.0), ("C2", (1, 0), 0.0), ("G2", (0, 1), 1.0)]
    for label, lam, zero_mult in cases:
        rs = build(label)
        done = 0
        while done < 10:
            x = rand_x(2, -0.4, 0.4)
            # keep the ratio well conditioned: stay away from the zeros of
            # the denominator function
            if abs(eval_orbit_function(rs, "anti", rs.rho, x)) < 1e-2:
                continue
            chi = character(rs, lam, x)
            phi = eval_orbit_function(rs, "sym", lam, x)
            assert abs(chi - (phi + zero_mult)) < 1e-9 * (1 + abs(chi))
            done += 1


def test_eval_antisymmetric_rejects_wall_weight():
    with pytest.raises(WallError):
        eval_orbit_function(build("A2"), "anti", (1, 0), (0.1, 0.2))


@pytest.mark.parametrize("label", ["A2", "B3"])
def test_eval_batch_refuses_bad_weights(label):
    rs = build(label)
    xs = np.full((2, rs.rank), 0.1)
    lam = (1,) * rs.rank
    with pytest.raises(ValueError, match=f"expected {rs.rank} coordinates for {label}"):
        eval_batch(rs, "anti", lam + (1,), xs)
    bad = (-1,) + lam[1:]
    for kind in ("sym", "norm", "anti"):
        with pytest.raises(ValueError, match=r"^\(-1, 1(, 1)?\) is not dominant") as info:
            eval_batch(rs, kind, bad, xs)
        assert type(info.value) is ValueError
    with pytest.raises(WallError, match="lies on a wall"):
        eval_batch(rs, "anti", (0,) + lam[1:], xs)


CLOSED_FORM_DIAGRAMS = ["B2", "C2", "B3", "C3", "D4", "B4", "C4"]
KINDS = ("antisymmetric", "symmetric", "normalized")


@st.composite
def closed_form_cases(draw):
    """A routed diagram, a kind, a weight with coordinates k/q (and 0 for
    the symmetric kinds, so that walls are hit), and 1-300 points."""
    rs = build(draw(st.sampled_from(CLOSED_FORM_DIAGRAMS)))
    kind = draw(st.sampled_from(KINDS))
    coordinate = st.builds(F, st.integers(1, 12), st.integers(1, 4))
    if kind != "antisymmetric":
        coordinate = st.one_of(st.just(F(0)), coordinate)
    lam = tuple(draw(st.lists(coordinate, min_size=rs.rank, max_size=rs.rank)))
    npts = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return rs, kind, lam, np.random.default_rng(seed).uniform(-1, 1, (npts, rs.rank))


@settings(max_examples=120, deadline=None)
@given(closed_form_cases())
# D4 weights with lam_3 = lam_4 have m_4 = 0, where the sine part vanishes
@example((build("D4"), "antisymmetric", (1, 2, 3, 3), np.full((2, 4), 0.3)))
@example((build("D4"), "symmetric", (0, 2, 3, 3), np.full((2, 4), 0.3)))
# lam_3 < lam_4 gives m_4 < 0: negative exponents, the conjugate powers
@example((build("D4"), "antisymmetric", (1, 1, 1, 2),
          np.random.default_rng(7).uniform(-1, 1, (40, 4))))
@example((build("D4"), "symmetric", (0, 3, F(1, 2), F(5, 2)),
          np.random.default_rng(8).uniform(-1, 1, (40, 4))))
# m = (3, 2, 0) and (1, 0, 0): rows of exponent 0
@example((build("B3"), "symmetric", (1, 2, 0), np.random.default_rng(9).uniform(-1, 1, (40, 3))))
@example((build("C3"), "normalized", (2, 0, 0), np.random.default_rng(9).uniform(-1, 1, (40, 3))))
# a large denominator: exponents near 5 * 10**6, one exponential each
@example((build("B3"), "symmetric", (F(1, 1000003), 0, F(5, 7)),
          np.random.default_rng(5).uniform(-1, 1, (50, 3))))
@example((build("C4"), "antisymmetric", (3, 2, 1, F(1, 5)), np.zeros((0, 4))))
# two full blocks of points and a short one
@example((build("B3"), "antisymmetric", (1, 2, 3),
          np.random.default_rng(3).uniform(-1, 1, (2 * orbitfn._CHUNK + 5, 3))))
@example((build("C3"), "symmetric", (2, 0, 1),
          np.random.default_rng(4).uniform(-1, 1, (2 * orbitfn._CHUNK + 5, 3))))
@example((build("D4"), "normalized", (1, 0, 2, 1),
          np.random.default_rng(6).uniform(-1, 1, (2 * orbitfn._CHUNK + 5, 4))))
def test_eval_batch_matches_the_group_sum(case):
    rs, kind, lam, xs = case
    got = eval_batch(rs, kind, lam, xs)
    ref = group_sum(*group_sum_terms(rs, kind, lam), xs)
    # both routes round every phase; that error grows with |W|
    tol = 1e-13 * rs.weyl_order * np.maximum(1.0, np.abs(ref))
    assert got.shape == ref.shape == (len(xs),) and got.dtype == complex
    assert np.all(np.abs(got - ref) <= tol)


POWER_TABLE_DIAGRAMS = ["A1", "A2", "A3", "A4", "G2"]


@st.composite
def power_table_cases(draw):
    """A diagram of the power-table route, a kind, a weight with
    coordinates k/q (and 0 for the symmetric kinds, so that walls are hit)
    and 0-300 points."""
    rs = build(draw(st.sampled_from(POWER_TABLE_DIAGRAMS)))
    kind = draw(st.sampled_from(KINDS))
    coordinate = st.builds(F, st.integers(1, 12), st.integers(1, 4))
    if kind != "antisymmetric":
        coordinate = st.one_of(st.just(F(0)), coordinate)
    lam = tuple(draw(st.lists(coordinate, min_size=rs.rank, max_size=rs.rank)))
    npts = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return rs, kind, lam, np.random.default_rng(seed).uniform(-1, 1, (npts, rs.rank))


@settings(max_examples=120, deadline=None)
@given(power_table_cases())
# exponents up to 39 = (2 * 40 + 37) / 3: the powers z**32 by five squarings
@example((build("A2"), "antisymmetric", (40, 37), np.full((3, 2), 0.37)))
@example((build("G2"), "normalized", (0, 0), np.zeros((0, 2))))
# a large denominator: exponents near 10**7, one exponential each
@example((build("A2"), "symmetric", (F(1, 1000003), F(5, 7)),
          np.random.default_rng(5).uniform(-1, 1, (50, 2))))
# two full blocks of points and a short one
@example((build("A3"), "symmetric", (2, 0, 3),
          np.random.default_rng(3).uniform(-1, 1, (2 * orbitfn._CHUNK + 5, 3))))
def test_power_tables_match_the_group_sum(case):
    rs, kind, lam, xs = case
    got = eval_batch(rs, kind, lam, xs)
    ref = group_sum(*group_sum_terms(rs, kind, lam), xs)
    tol = 1e-13 * rs.weyl_order * np.maximum(1.0, np.abs(ref))
    assert got.shape == ref.shape == (len(xs),) and got.dtype == complex
    assert np.all(np.abs(got - ref) <= tol)


def test_cis_matches_mpmath():
    import mpmath as mp

    rng = np.random.default_rng(11)
    big = 2.0 ** 40
    special = [0.0, 0.5, -0.5, 0.25, -0.25, 0.125, -0.375, 1e-300, -1e-9, 7.0, -3.0,
               big, -big, big + 0.5, -big - 0.25, big - 2.0 ** -12, 2.0 ** 39 + 0.375]
    turns = np.concatenate([special, rng.uniform(-1, 1, 300), rng.uniform(-40, 40, 300),
                            rng.uniform(-big, big, 300)])
    got = orbitfn._cis(turns)
    with mp.workdps(40):
        exact = np.array([complex(mp.expjpi(2 * mp.mpf(t))) for t in turns])
    assert got.shape == turns.shape and got.dtype == complex
    assert np.max(np.abs(got - exact)) < 4e-16
    # integers, half and quarter turns come out exact
    for t, z in ((3.0, 1), (-big, 1), (0.5, -1), (-0.5, -1), (big + 0.5, -1),
                 (0.25, 1j), (-0.25, -1j), (2.75, -1j)):
        assert orbitfn._cis(np.array([t]))[0] == z
    assert orbitfn._cis(np.zeros((2, 0, 3))).shape == (2, 0, 3)


@pytest.mark.parametrize("name", ["_TERMS_CACHE", "_ORTH_CACHE"])
def test_caches_are_bounded_and_an_evicted_key_evaluates_the_same(name, monkeypatch):
    cache = getattr(orbitfn, name)
    assert cache.cache_info().maxsize == orbitfn._CACHE_SIZE
    monkeypatch.setattr(cache, "maxsize", 3)
    cache.clear()
    b3 = build("B3")
    xs = np.random.default_rng(12).uniform(-1, 1, (20, 3))
    evaluate = eval_batch if name == "_TERMS_CACHE" else eval_orth_batch
    weights = [(3, 2, 1), (4, 2, 1), (5, 2, 1), (5, 3, 1), (5, 3, 2)]
    first = [evaluate(b3, "anti", lam, xs) for lam in weights]
    info = cache.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (0, 5, 3, 3)
    cached = lambda lam: any(lam in key for key in cache)
    assert [cached(lam) for lam in weights] == [False, False, True, True, True]
    # a hit makes weights[2] the most recently used, so weights[3] and then
    # weights[4] go; the evicted keys evaluate to the same values again
    assert np.array_equal(evaluate(b3, "anti", weights[2], xs), first[2])
    for lam, before in zip(weights[:2], first):
        assert np.array_equal(evaluate(b3, "anti", lam, xs), before)
    assert [cached(lam) for lam in weights] == [True, True, True, False, False]
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 7, 3)
    assert len(cache) == 3
