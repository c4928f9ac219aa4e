"""Every public entry point refuses bad input with a named error.

One property test feeds the entry points that take weights or points a
weight or point of the wrong length, with a NaN, infinite, ``None`` or
nested coordinate, ``None`` itself, a string of digits, a coordinate
written as a str or bytes, a weight that is not dominant where dominance
is needed, and one on a wall where strict dominance is needed.
Each must raise a ``ValueError`` (or a subclass: ``WallError``,
``UnsupportedCoordinatesError``) whose message names the diagram, never
a ``TypeError``, an ``IndexError``, a ``KeyError`` or a bare numpy
message.  Plans and torus Gram matrices without labels are refused the
same way, and quadrature sizes, finite-difference steps, integral-transform
labels and the sizes of the polynomial families by the name of the
argument.  A kind (of a transform, an evaluation or an identity) that is
not a string is refused as an unknown kind, by its repr.  A plan refuses
a vector of the wrong length, and a series one coefficient too many or
too few, by the count it expected.
"""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs.analysis import (
    gradient_sum_residual, hermite_family, laplace_check, laplace_check_omega, monomial_family,
    shift_operator_check, sigma2_check, sigma_k_check, transform_eigen_check,
)
from orbitfuncs.orbitalg import (
    BranchRule, branch, product_plain_plain, product_plain_signed, product_signed_signed,
)
from orbitfuncs.orbitfn import (
    an_identity, character, character_highprec, closed_form_orth, dimension, eval_batch,
    eval_coroot_point, eval_orth, rho_orth, rho_products,
)
from orbitfuncs.rootsys import (
    DiagramId, InvalidDiagramError, UnsupportedCoordinatesError, build, convert_basis,
    from_orthogonal, inner, to_orthogonal,
)
from orbitfuncs.transforms import (
    PlanSeparationError, build_plan, continuous_orthogonality_residual,
    cosine_integral_transform, default_labels, dst_dct_1d, fundamental_domain_quadrature,
    gram_over_torus, grid_fm, multivariate_plan, series_coefficients, series_synthesis,
    sine_integral_transform,
)
from orbitfuncs.weyl import (
    in_fundamental_domain, orbit, signed_orbit, stabilizer_order, to_dominant,
)

DIAGRAMS = [build(label) for label in ("A2", "C2", "B3", "G2")]


def _dim(rs, space: str) -> int:
    """The number of coordinates of the space: rank, or the orthogonal
    dimension (the rank on G2, which has no orthogonal model)."""
    if space == "orth" and rs.family != "G":
        return rs.rank + (rs.family == "A")
    return rs.rank


def _good(rs, space: str, need: str) -> tuple:
    """A point inside the fundamental domain, or a strictly dominant
    weight, of the space."""
    if need == "point":
        return (0.11, 0.07, 0.05, 0.03)[:_dim(rs, space)]
    if space == "orth":
        return tuple(range(_dim(rs, space), 0, -1))
    return (1,) * rs.rank


def _rho(rs):
    return _good(rs, "omega", "strict")


def _m(rs):
    return _good(rs, "orth", "strict")


def _x(rs, space: str = "omega") -> tuple:
    return _good(rs, space, "point")


def _q(rs) -> tuple:
    return tuple(F(1, p) for p in (9, 13, 17)[:rs.rank])


# name: (space, what the slot takes: a point, or a weight that may be any,
# dominant or strictly dominant, and the call with the value v in the slot)
ENTRIES = {
    "orbit": ("omega", "dominant", lambda rs, v: orbit(rs, v)),
    "signed_orbit": ("omega", "strict", lambda rs, v: signed_orbit(rs, v)),
    "to_dominant": ("omega", "point", lambda rs, v: to_dominant(rs, v)),
    "stabilizer_order": ("omega", "any", lambda rs, v: stabilizer_order(rs, v)),
    "in_fundamental_domain": ("omega", "point", lambda rs, v: in_fundamental_domain(rs, v)),
    "product_plain_plain-lam": ("omega", "dominant",
                                lambda rs, v: product_plain_plain(rs, v, _rho(rs))),
    "product_plain_plain-mu": ("omega", "dominant",
                               lambda rs, v: product_plain_plain(rs, _rho(rs), v)),
    "product_plain_signed-lam": ("omega", "dominant",
                                 lambda rs, v: product_plain_signed(rs, v, _rho(rs))),
    "product_plain_signed-mu": ("omega", "strict",
                                lambda rs, v: product_plain_signed(rs, _rho(rs), v)),
    "product_signed_signed-lam": ("omega", "strict",
                                  lambda rs, v: product_signed_signed(rs, v, _rho(rs))),
    "product_signed_signed-mu": ("omega", "strict",
                                 lambda rs, v: product_signed_signed(rs, _rho(rs), v)),
    "dimension": ("omega", "dominant", lambda rs, v: dimension(rs, v)),
    "eval_batch-anti": ("omega", "strict", lambda rs, v: eval_batch(rs, "anti", v, [_x(rs)])),
    "eval_batch-sym": ("omega", "dominant", lambda rs, v: eval_batch(rs, "sym", v, [_x(rs)])),
    "eval_batch-point": ("omega", "point", lambda rs, v: eval_batch(rs, "anti", _rho(rs), [v])),
    "eval_coroot_point-weight": ("omega", "strict",
                                 lambda rs, v: eval_coroot_point(rs, "anti", v, _q(rs))),
    "eval_coroot_point-point": ("omega", "point",
                                lambda rs, v: eval_coroot_point(rs, "anti", _rho(rs), v)),
    "eval_coroot_point-stack": ("omega", "point", lambda rs, v: eval_coroot_point(
        rs, "anti", _rho(rs), [_q(rs), v])),
    "eval_coroot_point-labels": ("omega", "strict", lambda rs, v: eval_coroot_point(
        rs, "anti", [_rho(rs), v], _q(rs))),
    "inner-x": ("omega", "point", lambda rs, v: inner(rs, v, _rho(rs))),
    "inner-y": ("omega", "point", lambda rs, v: inner(rs, _rho(rs), v)),
    "convert_basis": ("omega", "point", lambda rs, v: convert_basis(rs, v, "omega", "alpha")),
    "to_orthogonal": ("omega", "point", lambda rs, v: to_orthogonal(rs, v)),
    "from_orthogonal": ("orth", "point", lambda rs, v: from_orthogonal(rs, v)),
    "branch": ("orth", "strict", lambda rs, v: branch(rs, BranchRule("drop"), v)),
    "build_plan-label": ("omega", "strict", lambda rs, v: build_plan(rs, 6, labels=[v])),
    "gram_over_torus-label": ("omega", "strict", lambda rs, v: gram_over_torus(rs, 3, [v])),
    "shift_operator_check-lam": ("omega", "strict", lambda rs, v: shift_operator_check(
        rs, v, _x(rs), _x(rs), "det_on_anti")),
    "shift_operator_check-x": ("omega", "point", lambda rs, v: shift_operator_check(
        rs, _rho(rs), v, _x(rs), "det_on_anti")),
    "shift_operator_check-y": ("omega", "point", lambda rs, v: shift_operator_check(
        rs, _rho(rs), _x(rs), v, "det_on_anti")),
    "character-weight": ("omega", "dominant", lambda rs, v: character(rs, v, _x(rs))),
    "character-point": ("omega", "point", lambda rs, v: character(rs, _rho(rs), v)),
    "character_highprec-weight": ("omega", "dominant",
                                  lambda rs, v: character_highprec(rs, v, _q(rs), dps=20)),
    "character_highprec-point": ("omega", "point",
                                 lambda rs, v: character_highprec(rs, _rho(rs), v, dps=20)),
    "rho_products": ("omega", "point", lambda rs, v: rho_products(rs, v)),
    "laplace_check-weight": ("orth", "strict", lambda rs, v: laplace_check(
        rs, v, _x(rs, "orth"))),
    "laplace_check-point": ("orth", "point", lambda rs, v: laplace_check(rs, _m(rs), v)),
    "laplace_check_omega-weight": ("omega", "strict",
                                   lambda rs, v: laplace_check_omega(rs, v, _x(rs))),
    "laplace_check_omega-point": ("omega", "point",
                                  lambda rs, v: laplace_check_omega(rs, _rho(rs), v)),
    "sigma2_check-weight": ("orth", "strict", lambda rs, v: sigma2_check(
        rs, v, _x(rs, "orth"))),
    "sigma2_check-point": ("orth", "point", lambda rs, v: sigma2_check(rs, _m(rs), v)),
    "gradient_sum_residual-weight": ("orth", "strict", lambda rs, v: gradient_sum_residual(
        rs, v, _x(rs, "orth"))),
    "gradient_sum_residual-point": ("orth", "point",
                                    lambda rs, v: gradient_sum_residual(rs, _m(rs), v)),
    "eval_orth-weight": ("orth", "strict", lambda rs, v: eval_orth(
        rs, "anti", v, _x(rs, "orth"))),
    "eval_orth-point": ("orth", "point", lambda rs, v: eval_orth(rs, "anti", _m(rs), v)),
    "closed_form_orth-weight": ("orth", "strict", lambda rs, v: closed_form_orth(
        rs, "anti", v, _x(rs, "orth"))),
    "closed_form_orth-point": ("orth", "point",
                               lambda rs, v: closed_form_orth(rs, "anti", _m(rs), v)),
}

_BAD_COORDINATES = [math.nan, math.inf, -math.inf, None, (1, 2), [1]]


def _string(good) -> str:
    """The digits of a good value joined into one string of its length,
    which must not be read as one coordinate per character."""
    return "".join(str(int(c) % 10) for c in good)


def _string_cell(good, i: int, text: type) -> tuple:
    """The good value with coordinate i written as a str or bytes, which
    Fraction or numpy would parse as the number."""
    cell = str(good[i])
    return tuple(good[:i]) + (cell if text is str else cell.encode(),) + tuple(good[i + 1:])


@st.composite
def _bad_value(draw, rs, space: str, need: str):
    """A value that the slot must refuse."""
    good = list(_good(rs, space, need))
    n = len(good)
    cases = ["length", "coordinate", "none", "string", "string cell"]
    if need in ("dominant", "strict"):
        cases.append("not dominant")
    if need == "strict":
        cases.append("wall")
    case = draw(st.sampled_from(cases))
    i = draw(st.integers(0, n - 1))
    if case == "length":
        return (1,) * draw(st.integers(0, n + 2).filter(lambda k: k != n))
    if case == "none":
        return None
    if case == "string":
        return _string(good)
    if case == "string cell":
        return _string_cell(good, i, draw(st.sampled_from([str, bytes])))
    if case == "coordinate":
        good[i] = draw(st.sampled_from(_BAD_COORDINATES))
    elif case == "not dominant":
        good = good[::-1] if space == "orth" else good[:i] + [-1] + good[i + 1:]
    else:   # on a wall: a zero coordinate, or two equal orthogonal ones
        if space == "orth":
            good[min(i, n - 2) + 1] = good[min(i, n - 2)]
        else:
            good[i] = 0
    return tuple(good)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bad_input_raises_a_named_error(data):
    name = data.draw(st.sampled_from(sorted(ENTRIES)), label="entry")
    rs = data.draw(st.sampled_from(DIAGRAMS), label="diagram")
    space, need, call = ENTRIES[name]
    value = data.draw(_bad_value(rs, space, need), label="value")
    if name == "eval_coroot_point-point" and value == ():
        # no coordinates at all is no points, as in eval_batch
        assert call(rs, value).shape == (0,)
        return
    with pytest.raises(ValueError) as info:
        call(rs, value)
    assert re.search(rf"\b{rs.id.label}\b", str(info.value)), (name, str(info.value))


@pytest.mark.parametrize("rs", DIAGRAMS, ids=lambda rs: rs.id.label)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_good_input_is_accepted(name, rs):
    # the property above is only meaningful if the same call succeeds on
    # the good value (G2 has no orthogonal model: every such call refuses)
    space, need, call = ENTRIES[name]
    if rs.family == "G" and (space == "orth" or name == "to_orthogonal"):
        with pytest.raises(ValueError, match=r"\bG2\b"):
            call(rs, _good(rs, space, need))
        return
    call(rs, _good(rs, space, need))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_string_is_refused(name):
    # a whole string, and each coordinate written as a str or as bytes
    space, need, call = ENTRIES[name]
    for rs in DIAGRAMS:
        good = _good(rs, space, need)
        for value in [_string(good)] + [_string_cell(good, i, text)
                                        for i in range(len(good)) for text in (str, bytes)]:
            with pytest.raises(ValueError, match=rf"\b{rs.id.label}\b"):
                call(rs, value)


@pytest.mark.parametrize("rs", DIAGRAMS, ids=lambda rs: rs.id.label)
def test_plans_without_labels_are_refused(rs):
    for call in (lambda: build_plan(rs, 6, labels=[]), lambda: build_plan(rs, 1)):
        with pytest.raises(ValueError, match=rf"^a plan on the F_\d grid of {rs.id.label} "
                                             "needs at least one label"):
            call()
    with pytest.raises(ValueError, match=rf"\b{rs.id.label}\b"):   # as before its own check
        gram_over_torus(rs, 3, [])


def test_rho_orth_without_an_orthogonal_model_is_named():
    with pytest.raises(UnsupportedCoordinatesError, match=r"^no orthogonal model for G2$"):
        rho_orth(build("G2"))


def _ones(pts):
    return [1.0] * len(pts)


_A2, _B2 = build("A2"), build("B2")

# the argument each call gets wrong: before these were refused, a size of
# zero or below came back as inf, nan or [0], or as a ZeroDivisionError, a
# step h = 0 as nan (as a residual of 0.0 from gradient_sum_residual, and
# as the default step from sigma_k_check), and labels that are missing or
# ragged as an IndexError
SIZES_STEPS_AND_LABELS = [
    ("resolution", lambda: fundamental_domain_quadrature(_A2, 0)),
    ("resolution", lambda: continuous_orthogonality_residual(_A2, (2, 1), (1, 2), 0)),
    ("resolution", lambda: series_coefficients(_A2, _ones, [(1, 1)], -1)),
    ("resolution", lambda: transform_eigen_check((1, 0), "anti", resolution=0)),
    ("resolution", lambda: transform_eigen_check((1, 0), "anti", resolution=-3)),
    ("half_width", lambda: transform_eigen_check((1, 0), "anti", half_width=0)),
    ("resolution", lambda: sine_integral_transform(_ones, [(1, 2)], 1.0, resolution=0)),
    ("upper", lambda: cosine_integral_transform(_ones, [(1, 2)], -1.0)),
    ("lams", lambda: sine_integral_transform(_ones, [], 1.0)),
    ("lams", lambda: sine_integral_transform(_ones, [(1, 2), (1,)], 1.0)),
    ("h", lambda: laplace_check(_B2, (2, 1), (0.3, 0.1), h=0)),
    ("h", lambda: laplace_check(_B2, (2, 1), (0.3, 0.1), h=math.nan)),
    ("h", lambda: laplace_check_omega(_B2, (2, 1), (0.3, 0.1), h=0)),
    ("h", lambda: sigma2_check(_B2, (2, 1), (0.3, 0.1), h=0)),
    ("h", lambda: gradient_sum_residual(_B2, (2, 1), (0.3, 0.1), h=0)),
    ("h", lambda: sigma_k_check(_B2, (2, 1), (0.3, 0.1), 2, h=0)),
]


# a size that is not an integer >= 1 was a TypeError from range or
# math.comb, and M = True made "the F_True grid"; the integer beside it
# works, as a Python or a numpy int
SIZES = [
    ("M", 2.5, 3, lambda v: grid_fm(_A2, v)),
    ("M", 7.5, 7, lambda v: build_plan(_A2, v)),
    ("M", True, 5, lambda v: build_plan(_A2, v)),
    ("M", 7.5, 8, lambda v: default_labels(_A2, v)),
    ("N", 2.5, 3, lambda v: dst_dct_1d("dct2", v)),
    ("N", 3.5, 4, lambda v: multivariate_plan("anti_exp", 2, v)),
    ("n", 2.5, 2, lambda v: multivariate_plan("anti_exp", v, 4)),
    ("n", "2", 2, lambda v: multivariate_plan("sym_cosine", v, 4)),
]


@pytest.mark.parametrize("arg,bad,good,call", SIZES,
                         ids=[f"{arg}-{i}" for i, (arg, *_) in enumerate(SIZES)])
def test_a_size_that_is_not_a_whole_number_is_refused_by_name(arg, bad, good, call):
    with pytest.raises(ValueError, match=rf"^{arg} must be an integer >= 1, "
                                         rf"got {arg} = {re.escape(repr(bad))}$"):
        call(bad)
    np.testing.assert_equal(*(vars(out) if hasattr(out, "__dict__") else out
                              for out in (call(good), call(np.int64(good)))))


# a kind that is not a str was an AttributeError from its .lower()
KINDS = [
    ("multivariate kind", "anti_exp", lambda k: multivariate_plan(k, 2, 5)),
    ("1-D transform kind", "dct2", lambda k: dst_dct_1d(k, 5)),
    ("kind", "anti", lambda k: eval_batch(_A2, k, (1, 1), np.array([[0.1, 0.2]]))),
    ("kind", "sym", lambda k: eval_coroot_point(_A2, k, (1, 1), (F(1, 3), F(1, 5)))),
    ("identity", "cha5", lambda k: an_identity(k, s=2, r=3, m=2)),
]


@pytest.mark.parametrize("bad", [None, 3])
@pytest.mark.parametrize("what,good,call", KINDS, ids=[good for _, good, _ in KINDS])
def test_a_kind_that_is_not_a_str_is_refused_by_name(what, good, call, bad):
    with pytest.raises(ValueError, match=rf"^unknown {what} {re.escape(repr(bad))}\b"):
        call(bad)
    call(good)
    call(good.upper())


# a plan tolerance that is not a positive finite number switched the
# separation check off (NaN: a plan with residual 147 from two equal
# labels), refused valid labels (-1), or was a bare TypeError ("1e-9")
@pytest.mark.parametrize("bad", [math.nan, -1, 0, math.inf, "1e-9", None, -1e-9])
def test_a_plan_tolerance_that_is_not_positive_and_finite_is_refused_by_name(bad):
    with pytest.raises(ValueError, match=rf"^tol must be a positive finite number, "
                                         rf"got tol = {re.escape(repr(bad))}$"):
        build_plan(_A2, 7, labels=[(1, 1), (1, 1)], tol=bad)
    with pytest.raises(PlanSeparationError, match="are not separated"):
        build_plan(_A2, 7, labels=[(1, 1), (1, 1)])
    assert build_plan(_A2, 7, labels=[(1, 1), (2, 1)], tol=1e-12).residual < 1e-12 * 49 * 3


@pytest.mark.parametrize("arg,call", SIZES_STEPS_AND_LABELS,
                         ids=[f"{arg}-{i}" for i, (arg, _) in enumerate(SIZES_STEPS_AND_LABELS)])
def test_sizes_steps_and_labels_are_refused_by_name(arg, call):
    with pytest.raises(ValueError, match=rf"\b{arg}\b"):
        call()


# a family size that is not an integer >= 0 was a TypeError from range
# (2.5), an empty family (-1), or numpy's "deg must be a positive integer"
@pytest.mark.parametrize("name,family", [("hermite", hermite_family),
                                         ("monomial", monomial_family)])
@pytest.mark.parametrize("bad", [2.5, -1, True, "2", None])
def test_a_family_size_that_is_not_an_integer_is_refused_by_name(name, family, bad):
    with pytest.raises(ValueError, match=rf"^the {name} family needs an integer max_degree "
                                         rf">= 0, got max_degree = {re.escape(repr(bad))}$"):
        family(bad)
    assert family(np.int64(3)).coefficients == family(3).coefficients
    assert len(family(0).coefficients) == 1


# a vector of the wrong length was numpy's "matmul: Input operand 1 has a
# mismatch in its core dimension"
@pytest.mark.parametrize("plan", [build_plan(_A2, 5), multivariate_plan("anti_exp", 2, 4)],
                         ids=["build_plan", "multivariate_plan"])
def test_a_plan_refuses_a_vector_of_the_wrong_length_by_its_count(plan):
    labels, points = plan.kernel.shape
    for call, count, per in ((plan.forward, points, "grid point"),
                             (plan.inverse, labels, "label")):
        for bad in (np.ones(count - 1), np.ones(count + 1), 1.0):
            with pytest.raises(ValueError, match=rf"^expected {count} values, one per {per}, "):
                call(bad)
    a = np.arange(labels) + 1j
    assert np.max(np.abs(plan.forward(plan.inverse(a)) - a)) < 1e-10


# coefficients beyond the labels were dropped by zip without a word
def test_a_series_refuses_coefficients_that_do_not_match_its_labels():
    xs = np.array([[0.1, 0.2], [0.2, 0.1]])
    labels = [(1, 1), (2, 1)]
    for coeffs in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match=rf"^expected one coefficient per label, got "
                                             rf"{len(coeffs)} coefficients for 2 labels$"):
            series_synthesis(_A2, coeffs, labels, xs)
    assert series_synthesis(_A2, [1.0, 2.0], labels, xs).shape == (2,)


# a family that is not a one-letter str was a bare TypeError from
# "in <string>" (["A"], None), or a KeyError from the rank bounds ("AB", "")
@pytest.mark.parametrize("family", [["A"], None, "AB", "", 3])
def test_a_diagram_family_that_is_not_a_letter_is_refused_by_name(family):
    with pytest.raises(InvalidDiagramError, match=rf"^unknown family {re.escape(repr(family))}$"):
        DiagramId(family, 2)
    assert DiagramId("A", 2).label == "A2"
