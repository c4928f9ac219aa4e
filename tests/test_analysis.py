import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from orbitfuncs import analysis
from orbitfuncs.orbitfn import _cis, _float_points, eval_batch, eval_orth_batch
from orbitfuncs.rootsys import build, inner, orth_dim
from orbitfuncs.weyl import orth_action
from orbitfuncs.analysis import (
    laplace_check, laplace_check_omega, sigma2_check, omega_basis_operator,
    shift_operator_check, gradient_sum_residual,
    hermite_polynomial, hermite_sym_anti,
    PlaneWaveQuadrature, transform_eigen_check, transform_fourth_power_residual,
    monomial_family, hermite_family, generic_sym_poly, generic_anti_poly,
    generic_anti_quotient, generic_anti_orthogonality, _central_differences, _eigen_residual,
    _hermite_factors,
)

from orbit_oracles import (
    eigen_residual_dense_oracle, gaussian_hermite_samples, gradient_oracle, hermite_explicit,
    hermite_tensor, quadratic_operator_oracle,
    shift_operator_check_oracle, sigma2_stencil_oracle, transform_eigen_check_oracle,
    transform_fourth_power_oracle,
)

RNG = random.Random(777)


def interior_orth_point(rs):
    """A point safely inside the chamber, away from all walls."""
    r = orth_dim(rs)
    base = sorted([RNG.uniform(0.05, 0.45) for _ in range(r)], reverse=True)
    # push coordinates apart
    return [v + 0.3 * (r - i) for i, v in enumerate(base)]


def rand_orth_label(rs, hi=4):
    r = orth_dim(rs)
    vals = RNG.sample(range(1, hi + r + 1), r)
    m = sorted(vals, reverse=True)
    if rs.family == "A":
        return m
    return m


def test_laplace_orthogonal_families():
    for label in ["A2", "A3", "B3", "C2", "C3", "D4"]:
        rs = build(label)
        for _ in range(6):
            m = rand_orth_label(rs)
            x = interior_orth_point(rs)
            _, _, rel = laplace_check(rs, m, x, h=1e-4)
            assert rel < 1e-5, (label, m, rel)


def test_laplace_c2_fixed_point():
    rs = build("C2")
    _, ref, rel = laplace_check(rs, (2, 1), (0.21, 0.13), h=1e-4)
    assert rel < 1e-6
    # eigenvalue is -4 pi^2 (m_1^2 + m_2^2)
    f = ref / (-4 * math.pi ** 2 * 5)
    assert abs(f) > 0


def test_laplace_omega_route_matches_metric():
    # the inverse-metric operator reproduces -4 pi^2 <lam, lam> for every
    # diagram, including G_2; sample away from the zero set so the
    # relative error is meaningful
    from orbitfuncs.orbitfn import eval_orbit_function
    for label in ["A2", "C2", "G2", "B3"]:
        rs = build(label)
        done = 0
        while done < 4:
            lam = tuple(RNG.randint(1, 3) for _ in range(rs.rank))
            x = [RNG.uniform(0.05, 0.3) for _ in range(rs.rank)]
            if abs(eval_orbit_function(rs, "anti", lam, x)) < 1.0:
                continue
            _, _, rel = laplace_check_omega(rs, lam, x, h=1e-4)
            assert rel < 1e-4, (label, lam, rel)
            done += 1


def test_rho_eigenvalue_a2():
    a2 = build("A2")
    assert inner(a2, a2.rho, a2.rho) == 2
    _, ref, rel = laplace_check_omega(a2, a2.rho, (0.11, 0.17))
    f0 = ref / (-4 * math.pi ** 2 * 2)
    assert rel < 1e-5 and abs(f0) > 0


def test_sigma2_checks():
    c2 = build("C2")
    assert sigma2_check(c2, (2, 1), (0.23, 0.11), h=1e-3) < 1e-3
    b3 = build("B3")
    m = (F(7, 2), F(5, 2), F(1, 2))
    assert sigma2_check(b3, m, (0.31, 0.19, 0.07), h=1e-3) < 1e-3


def _ratios(disp, dual, n):
    return {F(disp[i][j]) / dual[i][j]
            for i in range(n) for j in range(n) if dual[i][j] != 0}


def test_omega_basis_operator_forms():
    # the traditional rank 2/3 coefficient matrices are proportional to the
    # inverse metric (which carries the eigenvalue -4 pi^2 <lam,lam>); the
    # proportionality constant varies by diagram
    displays = {
        "A2": [[1, F(-1, 2)], [F(-1, 2), 1]],
        "C2": [[2, -1], [-1, 1]],
        "G2": [[1, F(-3, 2)], [F(-3, 2), 3]],
        "A3": [[1, F(-1, 2), 0], [F(-1, 2), 1, F(-1, 2)], [0, F(-1, 2), 1]],
        "B3": [[1, F(-1, 2), 0], [F(-1, 2), 1, -1], [0, -1, 2]],
    }
    for label, disp in displays.items():
        rs = build(label)
        dual = omega_basis_operator(rs)["metric_dual"]
        assert len(_ratios(disp, dual, rs.rank)) == 1, label
    # the C_3 form as often quoted ends in 2 d_3^2, which breaks the
    # proportionality; the consistent coefficient is 1
    c3 = build("C3")
    dual = omega_basis_operator(c3)["metric_dual"]
    printed = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    corrected = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert len(_ratios(printed, dual, 3)) > 1
    assert _ratios(corrected, dual, 3) == {F(1, 2)}
    # the half-inverse-norm Cartan form matches the metric dual only up to
    # a diagram-dependent normalization; for simply-laced it is one quarter
    a2 = build("A2")
    ops = omega_basis_operator(a2)
    assert {ops["cartan_form"][i][j] / ops["metric_dual"][i][j]
            for i in range(2) for j in range(2)} == {F(1, 4)}


def test_shift_operator_eigenrelations():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for variant in ("det_on_anti", "plain_on_anti", "det_on_sym"):
            for _ in range(6):
                lam = tuple(RNG.randint(1, 3) for _ in range(rs.rank))
                x = [RNG.uniform(-0.6, 0.6) for _ in range(rs.rank)]
                y = [RNG.uniform(-0.6, 0.6) for _ in range(rs.rank)]
                rel = shift_operator_check(rs, lam, x, y, variant)
                assert rel < 1e-10, (label, variant, lam, rel)


def test_shift_operator_eigenrelations_on_f4():
    f4 = build("F4")
    rng = random.Random(28)
    for lam in ((1, 1, 1, 1), (2, 1, 1, 3)):
        x = [rng.uniform(-0.6, 0.6) for _ in range(4)]
        y = [rng.uniform(-0.6, 0.6) for _ in range(4)]
        for variant in ("det_on_anti", "plain_on_anti", "det_on_sym"):
            assert shift_operator_check(f4, lam, x, y, variant) < 1e-10, (lam, variant)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3"])
def test_shift_operator_check_is_the_object_product(label):
    # float points have power-of-two denominators near 2**53: the Python-int
    # branch of the pairing; small rationals take the int64 one
    rs = build(label)
    rng = random.Random(label)
    for _ in range(3):
        lam = tuple(rng.randint(1, 3) for _ in range(rs.rank))
        for x, y in (([rng.uniform(-0.6, 0.6) for _ in range(rs.rank)],
                      [rng.uniform(-0.6, 0.6) for _ in range(rs.rank)]),
                     ([F(rng.randint(-9, 9), rng.randint(1, 40)) for _ in range(rs.rank)],
                      [F(rng.randint(-9, 9), rng.randint(1, 40)) for _ in range(rs.rank)])):
            for variant in ("det_on_anti", "plain_on_anti", "det_on_sym"):
                assert (shift_operator_check(rs, lam, x, y, variant)
                        == shift_operator_check_oracle(rs, lam, x, y, variant))


def test_shift_operator_at_zero_shift():
    # with y = 0 the plain average of phi over the group vanishes, matching
    # the eigenvalue phi_lam(0) = 0
    c2 = build("C2")
    lam = (2, 1)
    x = [0.21, 0.34]
    from orbitfuncs.weyl import generate_group
    from orbitfuncs.orbitfn import eval_orbit_function
    total = sum(eval_orbit_function(c2, "anti", lam,
                                    [float(c) for c in w.apply(x)])
                for w in generate_group(c2))
    assert abs(total) < 1e-10


def test_gradient_sum_annihilation():
    for label in ["A2", "A3", "B3", "C2", "C3", "D4"]:
        rs = build(label)
        m = rand_orth_label(rs)
        x = interior_orth_point(rs)
        assert gradient_sum_residual(rs, m, x) < 1e-6, label


def test_hermite_polynomials():
    xs = np.linspace(-2, 2, 9)
    for n in range(8):
        rec = hermite_polynomial(n, xs)
        ref = np.array([hermite_explicit(n, float(x)) for x in xs])
        assert np.max(np.abs(rec - ref)) < 1e-8 * (1 + np.max(np.abs(ref)))
    assert hermite_polynomial(1, 0.5) == 1.0
    assert hermite_polynomial(2, 0.5) == pytest.approx(4 * 0.25 - 2)


@pytest.mark.parametrize("n", [-1, -3, 2.5, "2", True, False])
def test_a_hermite_degree_that_is_not_a_natural_number_is_refused(n):
    with pytest.raises(ValueError, match=rf"^the Hermite polynomial H_n needs an integer "
                                         rf"degree n >= 0, got n = {n}$"):
        hermite_polynomial(n, 0.5)
    if isinstance(n, int):
        for variant, m in (("anti", (1, n)), ("sym", (n, n)), ("anti", (n, n - 1))):
            with pytest.raises(ValueError, match=rf"got n = {n}$"):
                hermite_sym_anti(m, (0.3, -0.2), variant)


def test_hermite_sym_anti_values():
    # anti with m = (1,0): H_1(a) H_0(b) - H_0(a) H_1(b) = 2a - 2b
    for a, b in [(0.3, -0.7), (1.5, 0.2)]:
        assert hermite_sym_anti((1, 0), (a, b), "anti") == pytest.approx(2 * a - 2 * b)
        assert hermite_sym_anti((1, 0), (a, a), "anti") == pytest.approx(0.0)
    # sym with m = (1,1): both permutations contribute the same product
    a, b = 0.4, -1.1
    assert hermite_sym_anti((1, 1), (a, b), "sym") == \
        pytest.approx(2 * (2 * a) * (2 * b))


def test_hermite_anti_antisymmetry():
    m = (3, 1)
    a, b = 0.37, -0.82
    v = hermite_sym_anti(m, (a, b), "anti")
    w = hermite_sym_anti(m, (b, a), "anti")
    assert v == pytest.approx(-w)


QUAD = PlaneWaveQuadrature.make(6.0, 400)


@pytest.mark.parametrize("resolution", [400, 401, 7, 2, 1])
def test_quadrature_from_a_quarter_block_is_the_full_kernel(resolution):
    # the nodes are exactly antisymmetric, so filling K from its top-left
    # block by K = K^T and K[R-1-p] = conj(K[p]) changes no value
    q = PlaneWaveQuadrature.make(6.0, resolution)
    cell = 12.0 / resolution
    assert np.array_equal(q.nodes[::-1], -q.nodes)
    assert q.matrix.shape == (resolution, resolution) and q.matrix.dtype == complex
    assert np.array_equal(q.matrix, _cis(np.outer(q.nodes, q.nodes)) * cell)


def test_transform_eigen_small_labels():
    for m, variant in [((1, 0), "anti"), ((2, 0), "anti"), ((2, 1), "anti"),
                       ((3, 1), "anti"), ((0, 0), "sym"), ((1, 1), "sym"),
                       ((2, 2), "sym"), ((2, 1), "sym")]:
        rel = transform_eigen_check(m, variant, quadrature=QUAD)
        assert rel < 1e-5, (m, variant, rel)


def test_transform_fourth_power():
    for m, variant in [((2, 1), "anti"), ((1, 0), "anti"), ((2, 0), "sym")]:
        assert transform_fourth_power_residual(m, variant, quadrature=QUAD) < 1e-4


def test_gaussian_is_fixed_point():
    rel = transform_eigen_check((0, 0), "sym", quadrature=QUAD)
    assert rel < 1e-8  # eigenvalue exactly 1


# every decreasing label with |m| <= 4: strictly for "anti", weakly for "sym"
HERMITE_LABELS = [((m1, m2), variant) for m1 in range(5) for m2 in range(min(m1, 4 - m1) + 1)
                  for variant in ("anti", "sym") if variant == "sym" or m1 > m2]


@pytest.mark.parametrize("m, variant", HERMITE_LABELS)
def test_factor_route_matches_the_two_sided_oracle(m, variant):
    # the residuals are about 4e-15: the factor route K f_k and the dense
    # K g K^T round differently, by a few ulps of the residual
    assert abs(transform_eigen_check(m, variant, quadrature=QUAD)
               - transform_eigen_check_oracle(QUAD, m, variant)) < 1e-15
    assert abs(transform_fourth_power_residual(m, variant, quadrature=QUAD)
               - transform_fourth_power_oracle(QUAD, m, variant)) < 1e-15


@pytest.mark.parametrize("resolution", [400, 401])
def test_blocked_residual_is_the_dense_factor_route(resolution):
    # summed a block of rows at a time from the rank-4 factors, against both
    # R x R tensors formed.  At the eigenvalue the residual is rounding
    # noise of about 4e-15, and the two round its entries differently, by
    # about 1e-17 (an expansion through the 4 x 4 Gram matrices would be
    # off by u ||g0||^2, the size of the residual).  Off the eigenvalue it
    # is of order 1, so a row left out of the sums would show.
    q = QUAD if resolution == 400 else PlaneWaveQuadrature.make(6.0, resolution)
    for m, variant in HERMITE_LABELS:
        for power, eig in ((1, 1j ** sum(m)), (4, 1)):
            assert abs(_eigen_residual(q, m, variant, power, eig)
                       - eigen_residual_dense_oracle(q, m, variant, power, eig)) < 1e-16
            for wrong in (0, -eig, 1j * eig):
                assert _eigen_residual(q, m, variant, power, wrong) == pytest.approx(
                    eigen_residual_dense_oracle(q, m, variant, power, wrong), rel=1e-13)


def test_eigen_checks_refuse_labels_without_an_eigenfunction():
    for m, variant in [((1, 1), "anti"), ((2, 1, 0), "anti"), ((-1, 0), "sym"), ((1,), "sym")]:
        for check in (transform_eigen_check, transform_fourth_power_residual):
            with pytest.raises(ValueError, match=r"^no nonzero \w+ Gaussian-Hermite function"):
                check(m, variant, quadrature=QUAD)
    with pytest.raises(ValueError, match="^unknown variant 'anty'$"):
        transform_eigen_check((2, 1), "anty", quadrature=QUAD)


@pytest.mark.parametrize("m, variant", HERMITE_LABELS)
def test_factor_route_rebuilds_the_sampled_eigenfunction(m, variant):
    g0 = hermite_tensor(_hermite_factors(QUAD, m), variant)
    ref = gaussian_hermite_samples(QUAD, m, variant)
    assert np.linalg.norm(g0 - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(g0, -g0.T if variant == "anti" else g0.T)


def test_generic_monomials_give_schur():
    fam = monomial_family(6)
    xs = (0.7, -0.3)
    assert generic_anti_quotient(fam, (1, 0), xs) == pytest.approx(1.0)
    assert generic_anti_quotient(fam, (2, 0), xs) == pytest.approx(xs[0] + xs[1])
    assert generic_anti_quotient(fam, (2, 1), xs) == pytest.approx(xs[0] * xs[1])
    # coinciding coordinates through the confluent determinant
    assert generic_anti_quotient(fam, (2, 0), (0.5, 0.5)) == pytest.approx(1.0)
    xs3 = (0.4, 0.4, -0.2)
    s1 = generic_anti_quotient(fam, (3, 1, 0), xs3)
    eps = 1e-6
    s1_limit = generic_anti_quotient(fam, (3, 1, 0), (0.4 + eps, 0.4, -0.2))
    assert s1 == pytest.approx(s1_limit, abs=1e-4)


def test_generic_hermite_matches_dedicated():
    fam = hermite_family(6)
    m = (3, 1)
    xs = (0.8, -0.45)
    norm = math.sqrt(2.0 ** 3 * math.factorial(3) * math.sqrt(math.pi)) * \
        math.sqrt(2.0 ** 1 * math.factorial(1) * math.sqrt(math.pi))
    got = generic_anti_poly(fam, m, xs) * norm
    ref = hermite_sym_anti(m, xs, "anti")
    assert got == pytest.approx(ref, rel=1e-10)
    sym_got = generic_sym_poly(fam, (2, 2), xs)
    sym_norm = 2.0 ** 2 * math.factorial(2) * math.sqrt(math.pi)
    # the coset sum has a single term for a repeated label
    assert sym_got * sym_norm == pytest.approx(
        hermite_sym_anti((2, 2), xs, "sym") / 2, rel=1e-10)


@pytest.mark.parametrize("m", [(5, 1), (1, 3), (2, -1), (2, 1.0)])
@pytest.mark.parametrize("call", [generic_anti_poly, generic_sym_poly, generic_anti_quotient])
def test_a_degree_beyond_the_family_table_is_refused_by_name(call, m):
    # an IndexError past the top degree before; -1 read the top degree
    bad = next(k for k in m if k not in (0, 1, 2) or isinstance(k, float))
    with pytest.raises(ValueError, match=rf"^the hermite family has the degrees 0\.\.2, "
                                         rf"got degree {bad!r}$"):
        call(hermite_family(2), m, (0.1, 0.2))


def test_generic_anti_orthogonality_hermite():
    fam = hermite_family(8)
    labels = [(1, 0), (2, 0), (2, 1), (3, 1)]
    for m1 in labels:
        for m2 in labels:
            assert generic_anti_orthogonality(fam, m1, m2) < 1e-10, (m1, m2)


def test_sigma_k_dispatcher():
    from orbitfuncs.analysis import sigma_k_check
    c2 = build("C2")
    assert sigma_k_check(c2, (2, 1), (0.21, 0.13), 1) < 1e-5
    assert sigma_k_check(c2, (2, 1), (0.23, 0.11), 2) < 1e-3
    with pytest.raises(ValueError):
        sigma_k_check(c2, (2, 1), (0.2, 0.1), 3)


def test_malformed_points_are_named():
    a2, c2 = build("A2"), build("C2")
    with pytest.raises(ValueError, match=r"^expected 2 coordinates for A2, got 1: "):
        shift_operator_check(a2, (2, 1), (0.1,), (0.2, 0.3), "det_on_anti")
    with pytest.raises(ValueError, match=r"^\(0\.2, None\) are not finite rational "
                                         r"coordinates for A2$"):
        shift_operator_check(a2, (2, 1), (0.1, 0.2), (0.2, None), "det_on_anti")
    with pytest.raises(ValueError, match=r"^expected 2 coordinates per point for C2, "
                                         r"got an array of shape \(1, 1\)$"):
        gradient_sum_residual(c2, (2, 1), (0.1,))
    for call in (lambda x: laplace_check(c2, (2, 1), x),
                 lambda x: laplace_check_omega(c2, (1, 1), x),
                 lambda x: sigma2_check(c2, (2, 1), x),
                 lambda x: gradient_sum_residual(c2, (2, 1), x)):
        with pytest.raises(ValueError, match=r"^point 0 is not 2 real numbers in float "
                                             r"range for C2"):
            call((0.1, (1, 2)))
        for bad in (None, math.nan):   # numpy reads None as NaN
            with pytest.raises(ValueError, match=r"^point 0 is not finite for C2") as err:
                call((0.1, bad))
            # the message shows the row as given, not numpy's reading of it
            assert str(err.value).endswith(f": [0.1, {bad}]")


# -- the one stencil builder against the three stencils it replaced ---------

U = 2.0 ** -53


def _stencil_cases() -> list:
    """(diagram, orthogonal label, point): the fixed points of the tests and
    of selftest, the D4 point where |f| = 4e-14, and interior points drawn
    as in test_laplace_orthogonal_families."""
    rng = random.Random(24)
    cases = [("C2", (2, 1), (0.21, 0.13)), ("C2", (2, 1), (0.23, 0.11)),
             ("C2", (2, 1), (0.71, 0.33)), ("B3", (F(7, 2), F(5, 2), F(1, 2)), (0.31, 0.19, 0.07)),
             ("D4", (5, 3, 2, 1), (1.3, 0.9, 0.6, 0.2))]
    for label in ["A2", "A3", "B3", "C2", "C3", "D4"]:
        r = orth_dim(build(label))
        for _ in range(3):
            m = sorted(rng.sample(range(1, 5 + r), r), reverse=True)
            base = sorted((rng.uniform(0.05, 0.45) for _ in range(r)), reverse=True)
            cases.append((label, tuple(m), tuple(v + 0.3 * (r - i) for i, v in enumerate(base))))
    return cases


STENCIL_CASES = _stencil_cases()


def _pointwise(evaluate):
    """evaluate one point per call, so that a value does not depend on the
    batch it is computed in and the two routes differ only in how they sum"""
    return lambda rs, kind, lam, pts: np.array([evaluate(rs, kind, lam, [p])[0] for p in pts])


def _rounding(points: int, scale: float) -> float:
    """The rounding of a sum of `points` stencil terms of total size scale,
    on either route, as tests/test_phase_kernel.py bounds a phase sum."""
    return (2 * points + 8) * U * scale


@pytest.mark.parametrize("label, m, x", STENCIL_CASES)
def test_laplace_check_is_the_quadratic_operator_oracle(label, m, x, monkeypatch):
    monkeypatch.setattr(analysis, "eval_orth_batch", _pointwise(eval_orth_batch))
    rs = build(label)
    r = orth_dim(rs)
    fd, ref, rel = laplace_check(rs, m, x)
    f = lambda pts: analysis.eval_orth_batch(rs, "anti", m, pts)
    ofd, f0, scale = quadratic_operator_oracle(f, np.eye(r), _float_points(rs, [x], r)[0], 1e-4)
    assert ref == -4 * math.pi ** 2 * float(sum(F(v) ** 2 for v in m)) * f0
    bound = _rounding(2 * r + 1, scale)
    assert abs(fd - ofd) <= bound
    assert abs(rel - abs(ofd - ref) / abs(ref)) <= bound / abs(ref) + 4 * U * rel


@pytest.mark.parametrize("label, lam, x", [
    ("A2", (1, 1), (0.11, 0.17)), ("A2", (2, 1), (0.2, 0.1)), ("C2", (1, 2), (0.05, 0.3)),
    ("G2", (2, 1), (0.13, 0.07)), ("G2", (1, 3), (0.29, 0.05)),
    ("B3", (1, 2, 1), (0.11, 0.23, 0.07))])
def test_laplace_check_omega_is_the_quadratic_operator_oracle(label, lam, x, monkeypatch):
    monkeypatch.setattr(analysis, "eval_batch", _pointwise(eval_batch))
    rs = build(label)
    n = rs.rank
    fd, ref, _ = laplace_check_omega(rs, lam, x)
    coeffs = [[float(c) for c in row] for row in rs.metric_inv]
    f = lambda pts: analysis.eval_batch(rs, "anti", lam, pts)
    ofd, f0, scale = quadratic_operator_oracle(f, coeffs, _float_points(rs, [x], n)[0], 1e-4)
    assert ref == -4 * math.pi ** 2 * float(inner(rs, lam, lam)) * f0
    assert abs(fd - ofd) <= _rounding(1 + 2 * n * n, scale)


@pytest.mark.parametrize("label, m, x", STENCIL_CASES)
def test_sigma2_check_is_the_nine_point_oracle(label, m, x, monkeypatch):
    monkeypatch.setattr(analysis, "eval_orth_batch", _pointwise(eval_orth_batch))
    rs = build(label)
    r = orth_dim(rs)
    rel = sigma2_check(rs, m, x)
    f = lambda pts: analysis.eval_orth_batch(rs, "anti", m, pts)
    total, f0, scale = sigma2_stencil_oracle(f, _float_points(rs, [x], r)[0], 1e-3)
    sig2 = sum(F(m[i]) ** 2 * F(m[j]) ** 2 for i in range(r) for j in range(i + 1, r))
    ref = (4 * math.pi ** 2) ** 2 * float(sig2) * f0
    bound = _rounding(9 * r * (r - 1) // 2, scale) / abs(ref) + 4 * U * rel
    assert abs(rel - abs(total - ref) / abs(ref)) <= bound


@pytest.mark.parametrize("label, m, x", STENCIL_CASES)
def test_gradient_sum_residual_is_the_per_axis_oracle(label, m, x, monkeypatch):
    monkeypatch.setattr(analysis, "eval_orth_batch", _pointwise(eval_orth_batch))
    rs = build(label)
    perm, signs = orth_action(rs)
    images = signs * _float_points(rs, [x], orth_dim(rs))[0][perm]
    grads, scales = gradient_oracle(lambda pts: analysis.eval_orth_batch(rs, "anti", m, pts),
                                    images, 1e-5)
    size = np.abs(grads).sum(axis=1)
    oracle = np.abs(grads.sum(axis=1)) / size
    # each gradient rounds within a 3-point bound, and each sum over the
    # |W| images within |W| u of its size; the ratio at most doubles that
    err = _rounding(3, scales.sum(axis=1)) + len(images) * U * size
    assert abs(gradient_sum_residual(rs, m, x) - np.max(oracle)) <= np.max(2 * err / size)


def test_each_derivative_check_calls_its_function_once(monkeypatch):
    calls = []
    for name in ("eval_orth_batch", "eval_batch"):
        def spy(*args, _name=name, _call=getattr(analysis, name)):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(analysis, name, spy)
    c2, a3, g2 = build("C2"), build("A3"), build("G2")
    for check, name in [(lambda: laplace_check(c2, (2, 1), (0.21, 0.13)), "eval_orth_batch"),
                        (lambda: laplace_check(a3, (4, 2, 1, 0), (1.2, 0.9, 0.5, 0.1)),
                         "eval_orth_batch"),
                        (lambda: laplace_check_omega(g2, (2, 1), (0.13, 0.07)), "eval_batch"),
                        (lambda: laplace_check_omega(a3, (1, 2, 1), (0.1, 0.2, 0.05)),
                         "eval_batch"),
                        (lambda: sigma2_check(a3, (4, 2, 1, 0), (1.2, 0.9, 0.5, 0.1)),
                         "eval_orth_batch"),
                        (lambda: gradient_sum_residual(a3, (4, 2, 1, 0), (1.2, 0.9, 0.5, 0.1)),
                         "eval_orth_batch")]:
        calls.clear()
        check()
        assert calls == [name]


def test_central_differences_are_exact_on_quadratics():
    # the central differences are exact for a polynomial of degree <= 2 in
    # each variable, so only rounding (about u |f| / h^4) is left
    def f(pts):
        x0, x1, x2 = pts.T
        return (x0 ** 2 * x1 ** 2 + 3 * x0 * x1 + x2 ** 2).astype(complex)
    ops = (((1.0, ((0, 2),)),), ((2.0, ((0, 1), (1, 1))),),
           ((1.0, ((0, 2), (1, 2))), (-1.0, ((2, 1),))))
    x = np.array([[0.3, -0.7, 0.4], [1.1, 0.2, -0.5]])
    vals, f0 = _central_differences(f, x, ops, 1e-2)
    x0, x1, x2 = x.T
    want = [2 * x1 ** 2, 2 * (4 * x0 * x1 + 3), 4 - 2 * x2]
    assert np.allclose(vals, want, rtol=0, atol=1e-6)
    assert np.array_equal(f0, f(x))
