import dataclasses
import logging
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from orbitfuncs.rootsys import build, vec
from orbitfuncs.orbitfn import eval_coroot_point, eval_batch
from orbitfuncs.weyl import dual_marks
from orbitfuncs import transforms
from orbitfuncs.transforms import (
    GridPoint, grid_fm, tm_expand, build_plan, default_labels, gram_over_torus,
    lattice_index, dst_dct_1d, multivariate_plan, PlanSeparationError,
    fundamental_domain_quadrature, continuous_orthogonality_residual,
    mixed_symmetry_orthogonality_residual, series_coefficients,
    plancherel_residual, sine_integral_transform, _alcove, _grid_points, _integral_transform,
)

from orbit_oracles import (
    grid_oracle, labels_oracle, tm_expand_oracle, dst_dct_1d_oracle,
    multivariate_plan_oracle, dual_marks_oracle, fundamental_domain_quadrature_oracle,
    integral_transform_oracle,
)

RNG = random.Random(4242)


def omega_check_coords(grid):
    return {tuple(F(si, p.M) for si in p.s) for p in grid.points}


def test_grid_tables_rank2():
    a2 = build("A2")
    assert omega_check_coords(grid_fm(a2, 2)) == {
        (0, 0), (1, 0), (0, 1), (F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2))}
    assert omega_check_coords(grid_fm(a2, 3)) == {
        (0, 0), (1, 0), (0, 1), (F(1, 3), 0), (0, F(1, 3)), (F(2, 3), 0),
        (0, F(2, 3)), (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)), (F(1, 3), F(1, 3))}
    interior5 = {tuple(F(si, 5) for si in p.s)
                 for p in grid_fm(a2, 5).interior_points()}
    assert interior5 == {
        (F(1, 5), F(3, 5)), (F(2, 5), F(2, 5)), (F(3, 5), F(1, 5)),
        (F(1, 5), F(2, 5)), (F(2, 5), F(1, 5)), (F(1, 5), F(1, 5))}
    c2 = build("C2")
    assert omega_check_coords(grid_fm(c2, 2)) == {
        (0, 0), (0, 1), (F(1, 2), 0), (0, F(1, 2))}
    assert omega_check_coords(grid_fm(c2, 3)) == {
        (0, 0), (0, 1), (F(1, 3), 0), (0, F(1, 3)), (0, F(2, 3)),
        (F(1, 3), F(1, 3))}
    interior7 = {tuple(F(si, 7) for si in p.s)
                 for p in grid_fm(c2, 7).interior_points()}
    assert interior7 == {
        (F(1, 7), F(4, 7)), (F(2, 7), F(2, 7)), (F(1, 7), F(3, 7)),
        (F(2, 7), F(1, 7)), (F(1, 7), F(2, 7)), (F(1, 7), F(1, 7))}


def test_grid_tables_g2():
    g2 = build("G2")
    # the traditionally tabulated F_2 point (1,0) is out of the domain;
    # the grid rule gives (1/2, 0), consistent with F_4 = F_2 union ...
    assert omega_check_coords(grid_fm(g2, 2)) == {(0, 0), (F(1, 2), 0)}
    assert omega_check_coords(grid_fm(g2, 3)) == {(0, 0), (0, F(1, 3)), (F(1, 3), 0)}
    assert omega_check_coords(grid_fm(g2, 4)) == {
        (0, 0), (F(1, 2), 0), (F(1, 4), 0), (0, F(1, 4))}
    assert omega_check_coords(grid_fm(g2, 5)) == {
        (0, 0), (0, F(1, 5)), (F(1, 5), 0), (F(1, 5), F(1, 5)), (F(2, 5), 0)}
    # tabulations of F_8 sometimes omit (3/8, 0) and (1/8, 1/4), which
    # satisfy the defining constraint 2 s_1 + 3 s_2 <= 8 like the others
    assert omega_check_coords(grid_fm(g2, 8)) == {
        (0, 0), (F(1, 2), 0), (F(1, 4), 0), (0, F(1, 4)),
        (F(1, 8), 0), (0, F(1, 8)), (F(1, 8), F(1, 8)), (F(1, 4), F(1, 8)),
        (F(3, 8), 0), (F(1, 8), F(1, 4))}
    interior14 = {tuple(F(si, 14) for si in p.s)
                  for p in grid_fm(g2, 14).interior_points()}
    assert interior14 == {
        (F(1, 7), F(3, 14)), (F(5, 14), F(1, 14)), (F(3, 14), F(1, 7)),
        (F(1, 14), F(3, 14)), (F(2, 7), F(1, 14)), (F(1, 7), F(1, 7)),
        (F(3, 14), F(1, 14)), (F(1, 14), F(1, 7)), (F(1, 7), F(1, 14)),
        (F(1, 14), F(1, 14))}


def test_grid_point_count_a2():
    for M in range(1, 9):
        assert len(grid_fm(build("A2"), M).points) == (M + 1) * (M + 2) // 2


def test_grid_membership_and_a1():
    from orbitfuncs.weyl import in_fundamental_domain
    for label, M in [("A2", 4), ("C2", 5), ("G2", 6), ("B3", 3)]:
        rs = build(label)
        for p in grid_fm(rs, M).points:
            status = in_fundamental_domain(rs, p.omega)
            assert status != "outside"
            assert (status == "interior") == p.interior
    a1 = build("A1")
    assert omega_check_coords(grid_fm(a1, 4)) == {
        (0,), (F(1, 4),), (F(1, 2),), (F(3, 4),), (1,)}


def test_tm_expand_sizes():
    # the Weyl expansion modulo the coroot lattice fills the refined torus
    # (1/M) P^check / Q^check, of size det(cartan) * M^n
    a1, a2, c2 = build("A1"), build("A2"), build("C2")
    assert len(tm_expand(a1, grid_fm(a1, 2))) == 2 * 2
    assert len(tm_expand(a2, grid_fm(a2, 3))) == 3 * 9
    assert len(tm_expand(c2, grid_fm(c2, 2))) == 2 * 4
    zero_only = [p for p in grid_fm(a2, 1).points if all(c == 0 for c in p.s)]
    assert len(zero_only) == 1



@pytest.mark.parametrize("label,M", [("A3", 6), ("B3", 8), ("C2", 9), ("G2", 12), ("C3", 6)])
def test_tm_expand_matches_the_element_oracle(label, M):
    rs = build(label)
    grid = grid_fm(rs, M)
    assert tm_expand(rs, grid) == tm_expand_oracle(rs, grid)

# |P^check / Q^check| from Bourbaki, Plates I-IX
_LATTICE_INDEX = {
    **{f"A{n}": n + 1 for n in range(1, 9)}, **{f"B{n}": 2 for n in range(2, 9)},
    **{f"C{n}": 2 for n in range(2, 9)}, **{f"D{n}": 4 for n in range(4, 9)},
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1,
}


def test_lattice_index():
    for label, index in _LATTICE_INDEX.items():
        rs = build(label)
        assert lattice_index(rs) == index, label
        assert round(np.linalg.det(np.array(rs.cartan, dtype=float))) == index, label


def _same(a, b) -> bool:
    """Equal values of identical Python types, element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _assert_grid_is_the_oracle(rs, M):
    grid, oracle = grid_fm(rs, M), grid_oracle(rs, M)
    assert grid.M == M and len(grid.points) == len(oracle.points)
    for p, q in zip(grid.points, oracle.points):
        for f in dataclasses.fields(GridPoint):
            assert _same(getattr(p, f.name), getattr(q, f.name)), (rs.id.label, M, f.name)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "D5", "G2"])
def test_grid_and_labels_equal_the_oracle(label):
    rs = build(label)
    for M in range(1, 13):
        _assert_grid_is_the_oracle(rs, M)
        assert _same(default_labels(rs, M), labels_oracle(rs, M)), M


@pytest.mark.parametrize("label", ["E6", "E8", "F4"])
def test_exceptional_grids_equal_the_oracle(label):
    rs = build(label)
    for M in range(1, 13):
        _assert_grid_is_the_oracle(rs, M)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3", "B3", "C3"])
def test_plan_grid_is_the_interior_of_the_oracle_grid(label):
    # the integer rows of the interior points (s - 1 in the alcove of M - 1 -
    # sum of the marks), and what _grid_points gives for them: int64 coroot
    # numerators over L M and the GridPoints, which are the plan's grid; below
    # the default labels' M no plan exists
    rs = build(label)
    L = rs._coweight_rows[1]
    for M in range(1, 16):
        rows = _alcove(rs.marks, M - 1 - sum(rs.marks), label) + 1
        want = tuple(p for p in grid_oracle(rs, M).points if p.interior)
        assert rows.dtype == np.int64 and rows.tolist() == [list(p.s) for p in want], M
        points, numerators, den = _grid_points(rs, M, rows)
        assert den == L * M
        assert numerators.dtype == np.int64 and numerators.shape == (len(want), rs.rank)
        assert [tuple(F(c, den) for c in row) for row in numerators.tolist()] == \
            [p.coroot for p in want]
        assert _same(points, want), M
        if M > sum(dual_marks(rs)):
            assert _same(build_plan(rs, M).grid, want), M
    assert (_alcove(rs.marks, -1, label) + 1).shape == (0, rs.rank)


def test_grid_constants_are_kept_with_the_root_system():
    rs = build("G2")
    C, L = rs._coweight_rows
    assert rs._coweight_rows[0] is C and all(type(c) is int for row in C for c in row)
    assert all(p.omega == tuple(F(c, L * 5) for c in
                                (np.array(p.s) @ np.array(C))[:2].tolist())
               for p in grid_fm(rs, 5).points)


def test_alcove_allocates_the_simplex_in_order():
    rows = _alcove((1,) * 8, 12, "A8")
    assert rows.shape == (math.comb(20, 8), 8) == (125970, 8)
    assert np.all(rows >= 0) and np.all(rows.sum(axis=1) <= 12)
    assert np.all(np.diff(rows @ 13 ** np.arange(7, -1, -1)) > 0)   # strictly lexicographic
    assert _alcove((2, 3), -1, "G2").shape == (0, 2)
    assert _alcove((2, 3), 0, "G2").tolist() == [[0, 0]]


@pytest.mark.parametrize("call,match", [
    (lambda: grid_fm(build("A1"), 2 ** 63), r"^the F_9223372036854775808 grid of A1 could have"),
    (lambda: grid_fm(build("E8"), 20), r"^the F_20 grid of E8 could have C\(20 \+ 8, 8\) = 3108105"),
    (lambda: default_labels(build("A2"), 10 ** 4), r"^the default labels of A2 at M = 10000"),
    (lambda: build_plan(build("A1"), 2 ** 63),
     r"^the interior of the F_9223372036854775808 grid of A1 could have"),
])
def test_alcove_beyond_its_ceiling_is_refused_before_allocating(call, match):
    with pytest.raises(ValueError, match=match + ".* more than ALCOVE_LIMIT = 500000$"):
        call()


def test_plan_stores_its_gram_residual():
    for label, M in [("A2", 5), ("C2", 7), ("G2", 14)]:
        plan = build_plan(build(label), M)
        g = plan.gram()
        assert plan.residual == float(np.max(np.abs(g - plan.norm * np.eye(len(plan.labels)))))


def test_plan_gram_and_roundtrip_a2():
    a2 = build("A2")
    plan = build_plan(a2, 5)
    assert len(plan.labels) == 6
    norm = 3 * 25  # lattice index times M^n
    g = plan.gram()
    assert np.max(np.abs(g - norm * np.eye(6))) < 1e-9 * norm
    rng = np.random.default_rng(7)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    f = plan.inverse(a)
    assert np.max(np.abs(plan.forward(f) - a)) < 1e-10
    assert np.max(np.abs(plan.inverse(plan.forward(f)) - f)) < 1e-10


def test_plan_gram_c2():
    c2 = build("C2")
    plan = build_plan(c2, 7)
    assert set(map(tuple, plan.labels)) == {
        (1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2)}
    norm = 2 * 49
    g = plan.gram()
    assert np.max(np.abs(g - norm * np.eye(len(plan.labels)))) < 1e-9 * norm


def test_grid_index_tuples_are_not_valid_labels_for_c2():
    # reusing the interior grid tuples as weights, as the self-dual cases
    # allow, aliases (1,2) with (1,4): their orbits differ by 7 alpha_1
    c2 = build("C2")
    naive = [vec(p.s) for p in grid_fm(c2, 7).interior_points()]
    with pytest.raises(PlanSeparationError):
        build_plan(c2, 7, labels=naive)
    # the aliasing element is a reflection, so the functions agree up to
    # sign on every sampling point
    b1 = vec((F(1, 7), F(3, 7)))
    v1 = eval_coroot_point(c2, "anti", (1, 2), b1)
    v2 = eval_coroot_point(c2, "anti", (1, 4), b1)
    assert abs(v1 + v2) < 1e-12


def test_dual_marks():
    from orbitfuncs.weyl import dual_marks
    assert dual_marks(build("A3")) == (1, 1, 1)
    assert dual_marks(build("C2")) == (1, 2)
    assert dual_marks(build("C3")) == (1, 2, 2)
    assert dual_marks(build("B3")) == (2, 2, 1)
    assert dual_marks(build("G2")) == (3, 2)
    assert dual_marks(build("D4")) == (1, 2, 1, 1)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "D5", "G2",
                                   "A6", "A7", "A8", "B5", "B6", "B7", "B8",
                                   "C5", "C6", "C7", "C8", "D6", "D7", "D8",
                                   "E6", "E7", "E8", "F4"])
def test_static_dual_marks_match_the_highest_short_root(label):
    from orbitfuncs.weyl import dual_marks
    rs = build(label)
    assert dual_marks(rs) == dual_marks_oracle(rs)
    assert all(type(c) is int for c in dual_marks(rs))


def test_dual_marks_of_the_exceptional_diagrams():
    # Bourbaki, Plates VIII and V: F4 is its own dual with the node order
    # reversed, and the simply-laced E6 has its marks
    from orbitfuncs.weyl import dual_marks
    assert build("F4").marks == (2, 3, 4, 2)
    assert dual_marks(build("F4")) == (2, 4, 3, 2)
    assert dual_marks(build("E6")) == build("E6").marks == (1, 2, 3, 2, 1, 2)


@pytest.mark.parametrize("label,M", [("A2", 7), ("C2", 9), ("G2", 12), ("B3", 8)])
def test_plan_grid_is_the_interior_of_the_grid(label, M):
    rs = build(label)
    got, want = build_plan(rs, M).grid, grid_fm(rs, M).interior_points()
    assert got == want
    for p, q in zip(got, want):
        for f in dataclasses.fields(GridPoint):
            assert _same(getattr(p, f.name), getattr(q, f.name)), f.name


def test_a_plan_keeps_a_numpy_size_as_an_int():
    rs = build("A2")
    plan, ref = build_plan(rs, np.int64(5)), build_plan(rs, 5)
    assert type(plan.M) is int and plan.M == 5
    assert all(type(p.M) is int for p in plan.grid)
    assert _same(plan.grid, ref.grid) and _same(plan.labels, ref.labels)
    assert np.array_equal(plan.kernel, ref.kernel)
    assert (plan.norm, plan.residual) == (ref.norm, ref.residual)


def test_plan_phases_are_logged_at_debug(caplog, capsys):
    a2 = build("A2")
    build_plan(a2, 6)
    assert not caplog.records and capsys.readouterr() == ("", "")
    with caplog.at_level(logging.DEBUG, logger="orbitfuncs.transforms"):
        plan = build_plan(a2, 6)
    (record,) = caplog.records
    assert record.name == "orbitfuncs.transforms" and record.levelno == logging.DEBUG
    msg = record.getMessage()
    assert msg.startswith(f"build_plan A2 M=6, {len(plan.labels)} labels x "
                          f"{len(plan.grid)} points: grid ")
    for phase in ("grid", "labels", "kernel", "separation check"):
        assert re.search(rf"{phase} \d+\.\d{{3}} ms", msg), phase
    assert capsys.readouterr() == ("", "")


def test_label_and_grid_counts_match():
    for label in ["A2", "A3", "B3", "C2", "C3", "G2", "D4"]:
        rs = build(label)
        for M in range(2, 9):
            n_grid = len(grid_fm(rs, M).interior_points())
            n_labels = len(default_labels(rs, M))
            assert n_grid == n_labels, (label, M)


def test_torus_gram_includes_weyl_order():
    a2 = build("A2")
    labels = default_labels(a2, 5)
    g = gram_over_torus(a2, 5, labels)
    expect = 3 * 25 * a2.weyl_order
    assert np.max(np.abs(g - expect * np.eye(len(labels)))) < 1e-9 * expect


def test_unseparated_labels_on_coarse_torus():
    # On the naive torus (1/M) Q^check / Q^check the labels (1,3) and
    # (3,1) of the M=5 A_2 plan coincide as functions: the Weyl-expanded
    # grid is strictly finer and is what separates them.
    a2 = build("A2")
    pts = [vec((F(d1, 5), F(d2, 5))) for d1 in range(5) for d2 in range(5)]
    v1 = np.array([eval_coroot_point(a2, "anti", (1, 3), b) for b in pts])
    v2 = np.array([eval_coroot_point(a2, "anti", (3, 1), b) for b in pts])
    assert np.max(np.abs(v1 - v2)) < 1e-12
    gram = np.vdot(v1, v2)
    assert abs(gram - 25 * 6) < 1e-9  # far from zero: not separated


def test_plan_detects_separation_failure():
    a2 = build("A2")
    with pytest.raises(PlanSeparationError):
        # duplicated label: trivially not separated
        build_plan(a2, 5, labels=[(1, 1), (1, 1)])


def test_separation_error_names_the_worst_pair_as_fractions():
    a2 = build("A2")
    with pytest.raises(PlanSeparationError,
                       match=r"^labels \(1, 1\) and \(3/2, 1\) are not separated"):
        build_plan(a2, 5, labels=[(1, 1), (F(3, 2), 1)])
    # (2, 1) and (6, 2) coincide on the grid; their Gram entry is the
    # worst although the (1, 1), (3/2, 1) entry comes first
    with pytest.raises(PlanSeparationError,
                       match=r"^labels \(2, 1\) and \(6, 2\) are not separated"):
        build_plan(a2, 5, labels=[(1, 1), (F(3, 2), 1), (2, 1), (6, 2)])


def test_separation_error_on_a_wall_label_names_it_once():
    # (2, 3) lies on the wall of the 5-fold dual alcove of A2, so its
    # function vanishes on the grid: a diagonal Gram failure
    with pytest.raises(PlanSeparationError,
                       match=r"^label \(2, 3\) does not have the full norm"):
        build_plan(build("A2"), 5, labels=[(1, 1), (2, 3)])


def test_plan_without_labels_is_refused():
    a2 = build("A2")
    with pytest.raises(ValueError, match="at least one label"):
        build_plan(a2, 2)
    with pytest.raises(ValueError, match="at least one label"):
        build_plan(a2, 5, labels=[])


@pytest.mark.parametrize("build_it, kind, n, N", [
    (multivariate_plan, "anti_sine", 3, 3),
    (multivariate_plan, "anti_exp", 3, 2),
    (multivariate_plan, "amdct2", 0, 4),
    (multivariate_plan, "smdct1", 2, 0),
    (dst_dct_1d, "sine", 1, 1),
    (dst_dct_1d, "dst1", 1, 1),
    (dst_dct_1d, "dct2", 1, 0),
    (dst_dct_1d, "cosine", 1, 0),
    (dst_dct_1d, "dct1", 1, 0),
])
def test_discrete_plan_without_labels_is_refused(build_it, kind, n, N):
    # no labels at all, or sizes whose one-variable table is degenerate
    args = (kind, n, N) if build_it is multivariate_plan else (kind, N)
    with pytest.raises(ValueError, match=rf"^{kind} has no plan with n = {n}, N = {N}:"):
        build_it(*args)


def _built(build_it, *args):
    """The plan, or the type and text of the ValueError that refused it."""
    try:
        return build_it(*args)
    except ValueError as err:
        return type(err), str(err)


def _assert_same_plan(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert got.name == ref.name
    for a, b in ((got.labels, ref.labels), (got.grid, ref.grid)):
        assert a == b
        assert [type(v) for v in np.ravel(np.array(a, dtype=object))] == \
            [type(v) for v in np.ravel(np.array(b, dtype=object))]
    for a, b in ((got.kernel, ref.kernel), (got.weights, ref.weights),
                 (got.norms, ref.norms)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["sine", "cosine", "dct1", "dct2", "dct3", "dct4",
                                  "dst1", "dst2", "dst3", "dst4"])
def test_one_variable_plans_match_the_per_point_table(kind):
    for N in range(1, 20):
        _assert_same_plan(_built(dst_dct_1d, kind, N), _built(dst_dct_1d_oracle, kind, N))


@pytest.mark.parametrize("kind", ["anti_exp", "sym_exp", "anti_sine", "sym_cosine",
                                  *(f"{p}mdct{v}" for p in "as" for v in "1234")])
def test_multivariate_plans_match_the_per_tuple_loops(kind):
    for n in range(5):
        for N in range(6 if n == 4 else 10):
            _assert_same_plan(_built(multivariate_plan, kind, n, N),
                              _built(multivariate_plan_oracle, kind, n, N))


def test_a_numpy_size_gives_nodes_of_python_ints():
    # a numpy N was kept as the denominator of every Fraction node
    for make, args in ((multivariate_plan, ("anti_sine", 2)), (multivariate_plan, ("sym_cosine", 3)),
                       (dst_dct_1d, ("sine",)), (dst_dct_1d, ("cosine",))):
        plan, ref = make(*args, np.int64(6)), make(*args, 6)
        nodes = [c for t in plan.grid for c in (t if isinstance(t, tuple) else (t,))]
        assert nodes and all(type(c) is F and type(c.numerator) is int and
                             type(c.denominator) is int for c in nodes), args
        _assert_same_plan(plan, ref)
    _assert_same_plan(multivariate_plan("anti_sine", np.int64(2), 6),
                      multivariate_plan("anti_sine", 2, 6))


def test_sampled_function_roundtrip():
    # synthesize an anti-invariant function from known coefficients,
    # sample it on the interior grid, and recover the coefficients
    for label, M in [("A2", 5), ("C2", 7), ("G2", 8)]:
        rs = build(label)
        plan = build_plan(rs, M)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=len(plan.labels))
        f = plan.inverse(coeffs)
        rec = plan.forward(f)
        assert np.max(np.abs(rec - coeffs)) < 1e-10


# -- 1-D discrete transforms -----------------------------------------------

ALL_1D = ["sine", "cosine", "dct1", "dct2", "dct3", "dct4",
          "dst1", "dst2", "dst3", "dst4"]


@pytest.mark.parametrize("kind", ALL_1D)
def test_1d_orthogonality_and_roundtrip(kind):
    for N in (2, 3, 5, 8, 13, 16):
        plan = dst_dct_1d(kind, N)
        scale = float(np.max(plan.norms))
        assert plan.gram_residual() < 1e-12 * scale
        rng = np.random.default_rng(N)
        f = rng.normal(size=len(plan.grid))
        a = plan.forward(f)
        assert np.max(np.abs(plan.inverse(a) - f)) < 1e-12 * (1 + np.max(np.abs(f)))
        g = rng.normal(size=len(plan.labels))
        assert np.max(np.abs(plan.forward(plan.inverse(g)) - g)) < 1e-12


def test_sine_constants():
    M = 9
    plan = dst_dct_1d("sine", M)
    g = plan.gram()
    assert np.max(np.abs(g - 2 * M * np.eye(M - 1))) < 1e-12 * M


def test_cosine_constants():
    M = 6
    plan = dst_dct_1d("cosine", M)
    g = plan.gram()
    expect = np.diag([(4.0 if m in (0, M) else 2.0) * M for m in plan.labels])
    assert np.max(np.abs(g - expect)) < 1e-12 * M


def test_dct1_exact_small_table():
    plan = dst_dct_1d("dct1", 2)
    # kernel rows: (1,1,1), (1,0,-1), (1,-1,1); weights (1/2,1,1/2)
    expect = np.diag([2.0, 1.0, 2.0])
    assert np.max(np.abs(plan.gram() - expect)) < 1e-15


def test_dct4_self_inverse():
    for N in (3, 8):
        plan = dst_dct_1d("dct4", N)
        K = plan.kernel.real
        assert np.max(np.abs(K @ K - (N / 2) * np.eye(N))) < 1e-12 * N


def test_periodicity_of_discrete_sine():
    # the label period on the grid {k/M} is 2M: a shift by M alone flips
    # the sign on odd nodes, so only the doubled index gives periodicity
    M = 7
    plan = dst_dct_1d("sine", M)
    s = np.array([float(v) for v in plan.grid])
    for m in (1, 3):
        shifted = 2j * np.sin(math.pi * (m + 2 * M) * s)
        base = 2j * np.sin(math.pi * m * s)
        assert np.max(np.abs(shifted - base)) < 1e-10
        half = 2j * np.sin(math.pi * (m + M) * s)
        signs = np.array([(-1) ** k for k in range(1, M)])
        assert np.max(np.abs(half - signs * base)) < 1e-10


# -- multivariate discrete transforms ---------------------------------------

MV_KINDS = ["anti_exp", "sym_exp", "anti_sine", "sym_cosine",
            "amdct1", "amdct2", "amdct3", "amdct4",
            "smdct1", "smdct2", "smdct3", "smdct4"]


@pytest.mark.parametrize("kind", MV_KINDS)
def test_multivariate_orthogonality_and_roundtrip(kind):
    for n, N in [(2, 4), (2, 7), (3, 5)]:
        plan = multivariate_plan(kind, n, N)
        assert len(plan.labels) == len(plan.grid)
        scale = float(np.max(plan.norms))
        assert plan.gram_residual() < 1e-10 * scale
        rng = np.random.default_rng(3 * n + N)
        f = rng.normal(size=len(plan.grid))
        a = plan.forward(f)
        assert np.max(np.abs(plan.inverse(a) - f)) < 1e-10 * (1 + np.max(np.abs(f)))


def test_anti_sine_constants_small():
    plan = multivariate_plan("anti_sine", 2, 4)
    assert set(plan.labels) == {(2, 1), (3, 1), (3, 2)}
    g = plan.gram()
    assert np.max(np.abs(g - 64 * np.eye(3))) < 1e-10 * 64


def test_sym_cosine_stabilizer_weight():
    M = 3
    plan = multivariate_plan("sym_cosine", 2, M)
    idx = plan.labels.index((2, 2))
    # diagonal entry M^n r_m |S_m| with r_m = 2*2 and |S_m| = 2
    assert plan.norms[idx] == pytest.approx(M ** 2 * 4 * 2)
    idx0 = plan.labels.index((M, 0))
    assert plan.norms[idx0] == pytest.approx(M ** 2 * 16)  # r = 4 at both ends


def test_amdct4_orthogonal_up_to_scale():
    N = 4
    plan = multivariate_plan("amdct4", 2, N)
    g = plan.gram()
    assert np.max(np.abs(g - (N / 2) ** 2 * np.eye(len(plan.labels)))) < 1e-10 * N * N


def test_multivariate_degenerations_to_1d():
    for mv, one in [("anti_sine", "sine"), ("amdct1", "dct1"),
                    ("amdct2", "dct2"), ("amdct3", "dct3"), ("amdct4", "dct4")]:
        N = 6
        p1 = multivariate_plan(mv, 1, N)
        p2 = dst_dct_1d(one, N)
        rows = [[t[0] for t in p1.labels].index(l) for l in p2.labels]
        cols = [[g[0] for g in p1.grid].index(g) for g in p2.grid]
        assert np.max(np.abs(p1.kernel[np.ix_(rows, cols)] - p2.kernel)) < 1e-12
        assert np.max(np.abs(p1.norms[rows] - p2.norms)) < 1e-12
        assert np.max(np.abs(p1.weights[cols] - p2.weights)) < 1e-12


def test_anti_exp_unitary():
    plan = multivariate_plan("anti_exp", 2, 5)
    g = plan.gram()
    assert np.max(np.abs(g - np.eye(len(plan.labels)))) < 1e-12


def test_sym_exp_norms():
    plan = multivariate_plan("sym_exp", 2, 4)
    idx = plan.labels.index((3, 3))
    assert plan.norms[idx] == pytest.approx(2.0)  # |S_m| = 2
    assert plan.gram_residual() < 1e-12 * 2


# -- continuous transforms ---------------------------------------------------

def test_quadrature_volume():
    # the raw volume converges only at first order in the resolution; the
    # orbit-function integrals themselves converge far faster
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        pts, w = fundamental_domain_quadrature(rs, 400)
        assert abs(len(pts) * w - 1 / rs.weyl_order) < 1e-3


def test_continuous_orthogonality():
    # exhaustive over integral strictly dominant labels with coordinates
    # up to 3: one evaluation matrix per diagram, then the full Gram
    from orbitfuncs.transforms import fundamental_domain_quadrature
    for label in ["A2", "C2"]:
        rs = build(label)
        labels = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        pts, w = fundamental_domain_quadrature(rs, 200)
        V = np.array([eval_batch(rs, "anti", lam, pts) for lam in labels])
        gram = (V * w) @ V.conj().T
        assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-4, label


def test_mixed_symmetry_orthogonality():
    for label in ["A2", "C2"]:
        rs = build(label)
        for mu in [(1, 1), (2, 1), (1, 3)]:
            assert mixed_symmetry_orthogonality_residual(rs, mu, 200) < 1e-4


def test_series_recovers_unit_coefficient():
    a2 = build("A2")
    labels = [(1, 1), (2, 1), (1, 2), (2, 2)]
    mu = (2, 1)
    f = lambda pts: eval_batch(a2, "anti", mu, pts)
    coeffs = series_coefficients(a2, f, labels, 200)
    expect = np.array([1.0 if lab == mu else 0.0 for lab in labels])
    assert np.max(np.abs(coeffs - expect)) < 1e-4


def test_plancherel_residual_truncated():
    a2 = build("A2")
    labels = [(1, 1), (2, 1), (1, 2)]
    weights = [0.7, -0.3, 0.45j]

    def f(pts):
        return sum(w * eval_batch(a2, "anti", lab, pts)
                   for w, lab in zip(weights, labels))

    assert plancherel_residual(a2, f, labels, 200) < 1e-3


def test_plancherel_residual_calls_f_once():
    # one quadrature and one call of f, shared with the coefficient loop; the
    # residual is the one from series_coefficients and a second quadrature
    a2, labels, calls = build("A2"), [(1, 1), (2, 1)], []

    def f(pts):
        calls.append(len(pts))
        return eval_batch(a2, "anti", (2, 1), pts)

    residual = plancherel_residual(a2, f, labels, 60)
    assert len(calls) == 1 and residual < 1e-3
    pts, w = fundamental_domain_quadrature(a2, 60)
    assert residual == abs(float(np.sum(np.abs(series_coefficients(a2, f, labels, 60)) ** 2))
                           - float(np.sum(np.abs(f(pts)) ** 2) * w))


def test_sine_integral_transform_a1_analytic():
    # f = sin(2 pi x) on [0, L]: the transform has the closed form
    # (sin(2 pi (l-1) L) / (2 pi (l-1)) - sin(2 pi (l+1) L) / (2 pi (l+1))) / 2
    L = 1.0

    def f(pts):
        return np.sin(2 * np.pi * pts[:, 0])

    lams = [(0.5,), (1.7,), (2.3,)]
    got = sine_integral_transform(f, lams, L, resolution=2000)
    for (lam,), g in zip(lams, got):
        a = 2 * np.pi * (lam - 1)
        b = 2 * np.pi * (lam + 1)
        expect = 0.5 * (np.sin(a * L) / a - np.sin(b * L) / b)
        assert abs(g - expect) < 1e-6


def test_sine_integral_transform_n2_orthogonality():
    # on the chamber {1/2 > x_1 > x_2 > 0} the integer-label kernels are
    # orthogonal with constant 2^{-2n}
    def make_f(lam):
        def f(pts):
            return (np.sin(2 * np.pi * lam[0] * pts[:, 0]) * np.sin(2 * np.pi * lam[1] * pts[:, 1])
                    - np.sin(2 * np.pi * lam[1] * pts[:, 0]) * np.sin(2 * np.pi * lam[0] * pts[:, 1]))
        return f

    got = sine_integral_transform(make_f((2, 1)), [(2, 1), (3, 1)], 0.5,
                                  resolution=400)
    assert abs(got[0] - 2.0 ** -4) < 1e-4
    assert abs(got[1]) < 1e-4


def test_cosine_integral_transform_orthogonality():
    from orbitfuncs.transforms import cosine_integral_transform

    def make_f(lam):
        def f(pts):
            return (np.cos(2 * np.pi * lam[0] * pts[:, 0]) * np.cos(2 * np.pi * lam[1] * pts[:, 1])
                    + np.cos(2 * np.pi * lam[1] * pts[:, 0]) * np.cos(2 * np.pi * lam[0] * pts[:, 1]))
        return f

    got = cosine_integral_transform(make_f((2, 1)), [(2, 1), (3, 1)], 0.5,
                                    resolution=400)
    assert abs(got[0] - 2.0 ** -4) < 1e-4  # matched permanent kernel
    assert abs(got[1]) < 1e-4


@pytest.mark.parametrize("signed", [True, False], ids=["sine", "cosine"])
@pytest.mark.parametrize("lams", [[(0.5,), (1.7,), (2.3,)], [(2, 1), (3, 1), (2.5, 0.3)]],
                         ids=["n1", "n2"])
def test_integral_transform_from_1d_tables_is_the_dense_kernel(lams, signed):
    # outer(s_0, s_1) -/+ outer(s_1, s_0) are the products of _perm_sum on
    # the 2 x 2 kernel at every node, in its order: equal to the bit
    def f(pts):
        return np.sin(2 * np.pi * pts[:, 0]) * (1 + pts[:, -1])

    for resolution in (1, 7, 400):
        got = _integral_transform(f, lams, 0.5, resolution, signed)
        assert np.array_equal(got, integral_transform_oracle(f, lams, 0.5, resolution, signed))


@pytest.mark.parametrize("label, resolutions", [
    ("A2", (1, 2, 17, 300)), ("C2", (5, 41, 300)), ("G2", (3, 60, 300)),
    ("A3", (1, 9, 50)), ("B3", (7, 30, 45))])
@pytest.mark.parametrize("slab", [1, 50, None], ids=["slab1", "slab50", "default"])
def test_quadrature_by_slabs_is_the_masked_box(label, resolutions, slab, monkeypatch):
    # the same nodes in the same C order as the whole box masked at once,
    # slab rows of the first axis of one, a few or many box points each
    if slab is not None:
        monkeypatch.setattr(transforms, "_SLAB", slab)
    rs = build(label)
    for resolution in resolutions:
        pts, w = fundamental_domain_quadrature(rs, resolution)
        ref, w_ref = fundamental_domain_quadrature_oracle(rs, resolution)
        assert pts.shape == ref.shape and np.array_equal(pts, ref) and w == w_ref


def test_plan_builds_for_all_desk_diagrams():
    # build_plan itself raises on any separation failure, so constructing
    # these is already a strong check of the label recipe
    for label, M in [("A3", 7), ("B3", 8), ("C3", 8), ("D4", 8), ("G2", 8)]:
        rs = build(label)
        plan = build_plan(rs, M)
        assert len(plan.labels) == len(plan.grid) > 0
        rng = np.random.default_rng(1)
        a = rng.normal(size=len(plan.labels))
        assert np.max(np.abs(plan.forward(plan.inverse(a)) - a)) < 1e-10


@pytest.mark.parametrize("label, Ms", [("F4", range(12, 17)), ("E6", range(12, 15))])
def test_plans_separate_their_labels_on_f4_and_e6(label, Ms):
    # a Gram entry sums products of kernel values that are each a sum of
    # |W| unit terms: its rounding is bounded by the condition number |W|
    # in units of u, times the norm
    rs = build(label)
    for M in Ms:
        plan = build_plan(rs, M)
        assert len(plan.labels) == len(plan.grid) > 0
        assert plan.residual <= rs.weyl_order * 2.0 ** -53 * plan.norm, M
    a = np.random.default_rng(3).normal(size=len(plan.labels))
    assert np.max(np.abs(plan.forward(plan.inverse(a)) - a)) < 1e-10


def test_a_plan_on_an_empty_grid_fails_its_separation_check():
    # F_2 of A2 has no interior point: the kernel is (1, 0), not refused
    with pytest.raises(PlanSeparationError, match="gram = 0.000e"):
        build_plan(build("A2"), 2, labels=[(1, 1)])


def test_plan_recovers_float_route_synthesis():
    # synthesize through the floating omega-coordinate evaluator and
    # analyze through the exact-phase plan kernel: the two evaluation
    # routes and the grid coordinate conversions must agree
    for label, M in [("A2", 5), ("C2", 7)]:
        rs = build(label)
        plan = build_plan(rs, M)
        rng = np.random.default_rng(17)
        coeffs = rng.normal(size=len(plan.labels))
        xs = np.array([[float(c) for c in p.omega] for p in plan.grid])
        f = sum(c * eval_batch(rs, "anti", lam, xs)
                for c, lam in zip(coeffs, plan.labels))
        rec = plan.forward(f)
        assert np.max(np.abs(rec - coeffs)) < 1e-10


def test_finite_transform_function_surface():
    plan = build_plan(build("A2"), 5)
    rng = np.random.default_rng(2)
    a = rng.normal(size=len(plan.labels))
    f = plan.inverse(a)
    assert np.max(np.abs(plan.forward(f) - a)) < 1e-10
    eye = np.eye(len(plan.labels))
    assert np.max(np.abs(plan.gram() - plan.norm * eye)) < 1e-9 * plan.norm


def test_series_synthesis_inverts_coefficients():
    from orbitfuncs.transforms import series_synthesis, series_coefficients
    a2 = build("A2")
    labels = [(1, 1), (2, 1), (1, 2)]
    weights = [0.4, -0.8, 0.25]
    f = lambda pts: series_synthesis(a2, weights, labels, pts)
    got = series_coefficients(a2, f, labels, 200)
    assert np.max(np.abs(got - np.array(weights))) < 1e-4
