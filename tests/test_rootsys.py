import re
from fractions import Fraction as F

import numpy as np
import pytest

from orbitfuncs.rootsys import (
    build, parse_diagram, inner, convert_basis, to_orthogonal, from_orthogonal,
    DiagramId, InvalidDiagramError, UnsupportedCoordinatesError, orth_pairing_scale,
    to_json, from_json, mat, orth_dim, vec,
)

from orbit_oracles import from_orthogonal_oracle

ALL_DESK = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"]


def test_parse_labels():
    assert parse_diagram("A2").label == "A2"
    assert parse_diagram("d4").label == "D4"
    for bad in ["A0", "B1", "D3", "G3", "E5", "F5", "H2", "A", "2A"]:
        with pytest.raises(InvalidDiagramError):
            parse_diagram(bad)


# a bool rank built "ATrue" with |W| = 2, a float rank labelled "A2.0",
# and a rank of 2.5 was a bare TypeError from range in build
@pytest.mark.parametrize("family, rank", [("A", True), ("A", False), ("A", 2.0), ("B", 2.5),
                                          ("C", "3"), ("D", None), ("G", F(2))])
def test_a_rank_that_is_not_an_integer_is_refused_by_name(family, rank):
    with pytest.raises(InvalidDiagramError, match=rf"^rank {re.escape(repr(rank))} of family "
                                                  rf"{family} is not an integer$"):
        build(DiagramId(family, rank))


def test_a_numpy_integer_rank_is_a_rank():
    assert DiagramId("A", np.int64(2)).label == "A2"
    assert type(DiagramId("A", np.int64(2)).rank) is int
    assert build(DiagramId("B", np.int64(3))).weyl_order == 48


def test_cartan_matrices_rank2_rank3():
    assert build("A2").cartan == mat([[2, -1], [-1, 2]])
    assert build("C2").cartan == mat([[2, -1], [-2, 2]])
    assert build("G2").cartan == mat([[2, -3], [-1, 2]])
    assert build("A3").cartan == mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert build("B3").cartan == mat([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    assert build("C3").cartan == mat([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])


def test_inverse_cartan_tables():
    third = F(1, 3)
    assert build("A2").cartan_inv == mat([[2 * third, third], [third, 2 * third]])
    assert build("C2").cartan_inv == mat([[1, F(1, 2)], [1, 1]])
    assert build("G2").cartan_inv == mat([[2, 3], [1, 2]])
    assert build("A3").cartan_inv == mat(
        [[F(3, 4), F(1, 2), F(1, 4)], [F(1, 2), 1, F(1, 2)], [F(1, 4), F(1, 2), F(3, 4)]])
    assert build("B3").cartan_inv == mat(
        [[1, 1, 1], [1, 2, 2], [F(1, 2), 1, F(3, 2)]])
    assert build("C3").cartan_inv == mat(
        [[1, 1, F(1, 2)], [1, 2, 1], [1, 2, F(3, 2)]])


def test_marks_and_comarks():
    assert build("G2").marks == (2, 3)
    assert build("G2").comarks == (2, 1)
    assert build("C3").marks == (2, 2, 1)
    assert build("C3").comarks == (1, 1, 1)
    assert build("B3").marks == (1, 2, 2)
    assert build("B3").comarks == (1, 2, 1)
    assert build("D4").marks == (1, 2, 1, 1)
    assert build("F4").marks == (2, 3, 4, 2)
    assert build("F4").comarks == (2, 3, 2, 1)
    assert build("E8").marks == (2, 3, 4, 5, 6, 4, 2, 3)


def test_weyl_orders():
    orders = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
              "C2": 8, "C3": 48, "D4": 192, "G2": 12, "F4": 1152,
              "E6": 51840, "E7": 2903040, "E8": 696729600}
    for label, order in orders.items():
        assert build(label).weyl_order == order


def test_metric_symmetric_positive_definite():
    for label in ALL_DESK + ["F4", "E6", "E7", "E8"]:
        rs = build(label)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                assert rs.metric[i][j] == rs.metric[j][i]
        # leading principal minors positive (exact Sylvester criterion)
        for k in range(1, n + 1):
            sub = mat([row[:k] for row in rs.metric[:k]])
            det = _det(sub)
            assert det > 0


def _det(m):
    m = [list(r) for r in m]
    n = len(m)
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_quadratic_form_values_match_tables():
    # S(A_2) = (1/3)[[2,1],[1,2]], S(C_2) = (1/2)[[1,1],[1,2]]
    assert build("A2").metric == mat([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])
    assert build("C2").metric == mat([[F(1, 2), F(1, 2)], [F(1, 2), 1]])


def test_inner_examples():
    a2 = build("A2")
    e1, e2 = (1, 0), (0, 1)
    assert inner(a2, e1, e1) == F(2, 3)
    assert inner(a2, (0, 0), (3, 7)) == 0
    assert inner(a2, a2.rho, a2.rho) == 2
    # symmetry at random rationals
    assert inner(a2, (F(1, 3), 5), (2, F(7, 2))) == inner(a2, (2, F(7, 2)), (F(1, 3), 5))


def test_convert_basis_roundtrip_and_examples():
    a2 = build("A2")
    assert convert_basis(a2, (1, 0), "alpha", "omega") == vec([2, -1])
    assert convert_basis(a2, (5, -3), "omega", "omega") == vec([5, -3])
    c2 = build("C2")
    assert convert_basis(c2, (1, 0), "omega", "alpha") == vec([1, F(1, 2)])
    for label in ALL_DESK:
        rs = build(label)
        v = vec([F(3, 7), -2, 5, F(-1, 3), 1][: rs.rank])
        for frm in ("omega", "alpha", "alpha_check"):
            for to in ("omega", "alpha", "alpha_check"):
                w = convert_basis(rs, convert_basis(rs, v, frm, to), to, frm)
                assert w == v


def test_coroot_weight_duality():
    # <alpha_i^check, omega_k> = delta_ik
    for label in ALL_DESK:
        rs = build(label)
        for i in range(rs.rank):
            coroot = convert_basis(rs, [int(j == i) for j in range(rs.rank)],
                                   "alpha_check", "omega")
            for k in range(rs.rank):
                omega_k = [int(j == k) for j in range(rs.rank)]
                assert inner(rs, coroot, omega_k) == (1 if i == k else 0)


def test_highest_root_normalization():
    for label in ALL_DESK:
        rs = build(label)
        xi = rs.highest_root_omega
        assert inner(rs, xi, xi) == 2


def test_orthogonal_coordinates_examples():
    a2 = build("A2")
    assert to_orthogonal(a2, (1, 1)) == vec([1, 0, -1])
    b3 = build("B3")
    assert to_orthogonal(b3, b3.rho) == vec([F(5, 2), F(3, 2), F(1, 2)])
    for n in (2, 3):
        cn = build(f"C{n}")
        assert to_orthogonal(cn, cn.rho) == vec(range(n, 0, -1))
    d4 = build("D4")
    assert to_orthogonal(d4, d4.rho) == vec([3, 2, 1, 0])
    a3 = build("A3")
    assert to_orthogonal(a3, a3.rho, offset=F(3, 2)) == vec([3, 2, 1, 0])


def test_orthogonal_roundtrip_and_gauge():
    for label in ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4"]:
        rs = build(label)
        v = vec([F(5, 3), 2, F(1, 7), 3, 1][: rs.rank])
        assert from_orthogonal(rs, to_orthogonal(rs, v)) == v
        if rs.family == "A":
            assert sum(to_orthogonal(rs, v)) == 0
            assert from_orthogonal(rs, to_orthogonal(rs, v, offset=F(9, 4))) == v


def test_orthogonal_rejects_g2():
    with pytest.raises(UnsupportedCoordinatesError):
        to_orthogonal(build("G2"), (1, 1))
    with pytest.raises(UnsupportedCoordinatesError):
        to_orthogonal(build("F4"), (1, 1, 1, 1))


def test_metric_vs_orthogonal_dot():
    # sum m_i(x) m_i(y) = scale * <x,y>, exactly, with scale 2 for C_n.
    for label in ["A2", "A3", "B2", "B3", "C2", "C3", "D4"]:
        rs = build(label)
        scale = orth_pairing_scale(rs)
        x = vec([F(2, 3), -1, F(7, 5), 2][: rs.rank])
        y = vec([1, F(1, 2), -3, F(4, 7)][: rs.rank])
        mx, my = to_orthogonal(rs, x), to_orthogonal(rs, y)
        assert sum(a * b for a, b in zip(mx, my)) == scale * inner(rs, x, y)
    assert orth_pairing_scale(build("C2")) == 2
    assert orth_pairing_scale(build("B3")) == 1


def test_json_roundtrip():
    rs = build("C3")
    text = to_json(rs)
    assert '"1/2"' in text  # exact fraction strings survive
    assert from_json(text) is rs


from hypothesis import given, settings, strategies as st

rational = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_DESK), st.lists(rational, min_size=5, max_size=5))
def test_basis_roundtrip_property(label, coords):
    rs = build(label)
    v = vec(coords[: rs.rank])
    for frm in ("omega", "alpha", "alpha_check"):
        for to in ("omega", "alpha", "alpha_check"):
            assert convert_basis(rs, convert_basis(rs, v, frm, to), to, frm) == v


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "A3", "B3", "C3", "D4"]),
       st.lists(rational, min_size=5, max_size=5))
def test_orthogonal_roundtrip_property(label, coords):
    rs = build(label)
    v = vec(coords[: rs.rank])
    assert from_orthogonal(rs, to_orthogonal(rs, v)) == v


@pytest.mark.parametrize("x, shown", [
    (None, "None"), (5, "5"), ((None, 1), "(None, 1)"), ((1, (2, 3)), "(1, (2, 3))"),
    ((float("nan"), 1), "(nan, 1)"), (("a", 1), "('a', 1)"), ((b"1", 2), "(b'1', 2)"),
])
def test_malformed_exact_coordinates_are_named(x, shown):
    a2 = build("A2")
    for call in (lambda: inner(a2, x, (1, 1)), lambda: inner(a2, (1, 1), x),
                 lambda: convert_basis(a2, x, "omega", "alpha"),
                 lambda: to_orthogonal(a2, x)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{shown} are not finite rational coordinates for A2"
    with pytest.raises(ValueError) as err:
        from_orthogonal(a2, x)
    assert str(err.value) == f"{shown} are not finite rational orthogonal coordinates for A2"


@pytest.mark.parametrize("x", ["12", b"12", "1,2", ""])
def test_a_string_is_not_read_as_coordinates(x):
    a2 = build("A2")
    for call in (lambda: inner(a2, x, (1, 1)), lambda: to_orthogonal(a2, x)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{x!r} is a string, not coordinates for A2"
    with pytest.raises(ValueError) as err:
        from_orthogonal(a2, x)
    assert str(err.value) == f"{x!r} is a string, not orthogonal coordinates for A2"


def test_coordinate_counts_are_named():
    a2, b3 = build("A2"), build("B3")
    for call in (lambda: inner(a2, (1,), (1, 1)), lambda: inner(a2, (1, 1), (1,)),
                 lambda: convert_basis(a2, (1,), "alpha", "omega"),
                 lambda: to_orthogonal(a2, (1,))):
        with pytest.raises(ValueError, match=r"^expected 2 coordinates for A2, got 1: \(1\)$"):
            call()
    with pytest.raises(ValueError, match=r"^expected 3 orthogonal coordinates for A2, "
                                         r"got 2: \(1, 0\)$"):
        from_orthogonal(a2, (1, 0))
    with pytest.raises(ValueError, match=r"^expected 3 orthogonal coordinates for B3, "
                                         r"got 4: \(1, 2, 3, 4\)$"):
        from_orthogonal(b3, (1, 2, 3, 4))
    with pytest.raises(UnsupportedCoordinatesError, match="^no orthogonal model for G2$"):
        from_orthogonal(build("G2"), (1, 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                        "C2", "C3", "C4", "C5", "D4", "D5", "D6"]),
       st.lists(rational, min_size=6, max_size=6))
def test_from_orthogonal_equals_the_per_family_oracle(label, coords):
    rs = build(label)
    m = coords[:orth_dim(rs)]
    got = from_orthogonal(rs, m)
    assert got == from_orthogonal_oracle(rs, m)
    assert type(got) is tuple and all(type(c) is F for c in got)
