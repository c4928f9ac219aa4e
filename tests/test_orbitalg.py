import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs.rootsys import build, vec, to_orthogonal, orth_dim
from orbitfuncs.weyl import (
    generate_group, WallError, orbit, to_dominant, stabilizer_order,
)
from orbitfuncs.orbitfn import (
    dimension, eval_coroot_point, eval_orbit_function, eval_orth,
    rho_cosine_orbit_decomposition,
)
from orbitfuncs.orbitalg import (
    product_plain_signed, product_plain_signed_coset,
    product_signed_signed, product_plain_plain, expand_function_product,
    BranchRule, branch,
)
from orbit_oracles import (
    plain_signed_oracle, signed_signed_oracle, plain_plain_oracle, rho_cosine_oracle,
    branch_oracle, branch_terms_a_drop, branch_terms_a_split,
)

RNG = random.Random(99)


def terms_dict(osum):
    return {t.label: t.coefficient for t in osum}


def _t(entries):
    return {vec(lab): c for lab, c in entries.items()}


# -- A_1 examples ----------------------------------------------------------

def test_a1_products():
    a1 = build("A1")
    assert terms_dict(product_plain_signed(a1, (2,), (5,))) == _t({(7,): 1, (3,): 1})
    assert terms_dict(product_plain_signed(a1, (5,), (2,))) == _t({(7,): 1, (3,): -1})
    assert terms_dict(product_signed_signed(a1, (5,), (2,))) == _t({(7,): 1, (3,): -1})
    assert terms_dict(product_signed_signed(a1, (3,), (3,))) == _t({(6,): 1, (0,): -2})
    assert terms_dict(product_plain_plain(a1, (5,), (2,))) == _t({(7,): 1, (3,): 1})


def test_plain_times_zero_orbit():
    a2 = build("A2")
    assert terms_dict(product_plain_plain(a2, (2, 1), (0, 0))) == _t({(2, 1): 1})
    assert terms_dict(product_plain_signed(a2, (0, 0), (2, 1))) == _t({(2, 1): 1})


def test_plain_plain_a2():
    a2 = build("A2")
    assert terms_dict(product_plain_plain(a2, (1, 0), (0, 1))) == \
        _t({(1, 1): 1, (0, 0): 3})


def test_signed_signed_brute_force_a2():
    from orbitfuncs.weyl import orbit, signed_orbit
    a2 = build("A2")
    out = terms_dict(product_signed_signed(a2, (1, 1), (1, 1)))
    # signed point count is conserved: sum of c * |O(label)| over the terms
    # equals the total signed count of the 36-term expansion
    total = sum(c * len(orbit(a2, lab)) for lab, c in out.items())
    pts = signed_orbit(a2, (1, 1)).points
    assert total == sum(s1 * s2 for _, s1 in pts for _, s2 in pts)


def test_coset_shortcut_matches_brute_force():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for _ in range(10):
            lam = tuple(RNG.randint(0, 3) for _ in range(rs.rank))
            mu = tuple(RNG.randint(1, 3) for _ in range(rs.rank))
            brute = plain_signed_oracle(rs, lam, mu)
            assert product_plain_signed(rs, lam, mu) == brute
            assert product_plain_signed_coset(rs, lam, mu) == brute


def _weight(rs, low):
    """A dominant weight (low=0) or a strictly dominant one (low=1) whose
    coordinates are k or k/2, low <= k <= 3."""
    coord = st.builds(F, st.integers(low, 3), st.sampled_from([1, 1, 2]))
    return st.lists(coord, min_size=rs.rank, max_size=rs.rank).map(tuple)


@st.composite
def product_cases(draw, low_lam, low_mu):
    rs = build(draw(st.sampled_from(["A2", "A3", "B3", "C3", "G2"])))
    return rs, draw(_weight(rs, low_lam)), draw(_weight(rs, low_mu))


@settings(max_examples=40, deadline=None)
@given(product_cases(0, 1))
def test_plain_signed_matches_pair_oracle(case):
    rs, lam, mu = case
    assert product_plain_signed(rs, lam, mu) == plain_signed_oracle(rs, lam, mu)


@settings(max_examples=40, deadline=None)
@given(product_cases(1, 1))
def test_signed_signed_matches_pair_oracle(case):
    rs, lam, mu = case
    assert product_signed_signed(rs, lam, mu) == signed_signed_oracle(rs, lam, mu)


@settings(max_examples=40, deadline=None)
@given(product_cases(0, 0))
def test_plain_plain_matches_pair_oracle(case):
    rs, lam, mu = case
    assert product_plain_plain(rs, lam, mu) == plain_plain_oracle(rs, lam, mu)


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2", "A3", "B3", "C3", "D4"])
def test_rho_cosine_matches_subset_oracle(label):
    rs = build(label)
    assert rho_cosine_orbit_decomposition(rs) == rho_cosine_oracle(rs)


A2, A3 = build("A2"), build("A3")


def _length(n, got):
    return ValueError, rf"expected {n} (orthogonal )?coordinates for A\d, got {got}:"


@pytest.mark.parametrize("call,error,match", [
    (lambda: product_plain_plain(A2, (1,), (1, 0)), *_length(2, 1)),
    (lambda: product_plain_plain(A2, (1, 0), (1,)), *_length(2, 1)),
    (lambda: product_plain_signed(A2, (1, 0, 0), (1, 1)), *_length(2, 3)),
    (lambda: product_plain_signed(A2, (1, 0), (1,)), *_length(2, 1)),
    (lambda: product_signed_signed(A2, (1, 1), (1, 1, 1)), *_length(2, 3)),
    (lambda: product_signed_signed(A2, (1,), (1, 1)), *_length(2, 1)),
    (lambda: expand_function_product(A2, "signed", (1, 1), "orbit", (1,)), *_length(2, 1)),
    (lambda: orbit(A2, (1,)), *_length(2, 1)),
    (lambda: orbit(A2, (1, 0, 0)), *_length(2, 3)),
    (lambda: to_dominant(A2, (1,)), *_length(2, 1)),
    (lambda: stabilizer_order(A2, (1,)), *_length(2, 1)),
    (lambda: branch(A3, BranchRule("drop"), (3, 2, 1)), *_length(4, 3)),
    (lambda: product_plain_signed(A2, (1, 0), (-1, 2)), ValueError,
     r"^\(-1, 2\) is not dominant"),
    (lambda: product_plain_signed(A2, (1, 0), (1, 0)), WallError, r"^\(1, 0\) lies on a wall"),
    (lambda: product_plain_signed(A2, (1, 0), (10 ** 30, 1)), ValueError,
     r"^\(1000000000000000000000000000000, 1\) is too large for exact int64 arithmetic$"),
    (lambda: dimension(A2, (1, 2, 3)), ValueError,
     r"^expected 2 coordinates for A2, got 3: \(1, 2, 3\)$"),
    (lambda: dimension(A2, (1,)), *_length(2, 1)),
    (lambda: dimension(A2, (-1, 2)), ValueError, r"^\(-1, 2\) is not dominant for A2"),
    (lambda: dimension(A2, (F(1, 2), 1)), ValueError, r"^\(1/2, 1\) is not integral for A2"),
], ids=["plain_plain-lam", "plain_plain-mu", "plain_signed-lam", "plain_signed-mu",
        "signed_signed-mu", "signed_signed-lam", "expand-mu", "orbit-short",
        "orbit-long", "to_dominant", "stabilizer_order", "branch",
        "plain_signed-not-dominant", "plain_signed-on-wall", "plain_signed-too-large",
        "dimension-long", "dimension-short", "dimension-not-dominant",
        "dimension-not-integral"])
def test_weight_of_the_wrong_length_is_refused(call, error, match):
    """A factor of the wrong length, a signed factor that is not strictly
    dominant, or one too large for int64, and a weight of ``dimension``
    that is not dominant and integral, raise the named error of its kind."""
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error


def test_plain_signed_collected_coefficients_can_exceed_one():
    # each coset contributes +-1, but two cosets may land on one label, so
    # the collected coefficient is not always a unit: confirmed pointwise
    c2 = build("C2")
    out = product_plain_signed(c2, (1, 1), (1, 1))
    assert terms_dict(out) == _t({(2, 1): -2, (2, 2): 1})
    _check_functional(c2, out, [("orbit", (1, 1)), ("signed", (1, 1))])


def test_signed_signed_multiplicity_appears_off_walls_too():
    # documented counterexample: the A_2 square of the (1,1) signed orbit
    # carries coefficient 2 on the strictly dominant label (1,1)
    a2 = build("A2")
    out = terms_dict(product_signed_signed(a2, (1, 1), (1, 1)))
    assert out[vec((1, 1))] == 2
    _check_functional(a2, product_signed_signed(a2, (1, 1), (1, 1)),
                      [("signed", (1, 1)), ("signed", (1, 1))])


def _check_functional(rs, osum, factors, n_points=12, tol=1e-9):
    """product of the factor functions == sum of coefficient * function."""
    kind_of = {"orbit": "sym", "signed": "anti"}
    for _ in range(n_points):
        x = [RNG.uniform(-1, 1) for _ in range(rs.rank)]
        prod = 1.0 + 0j
        for kind, lam in factors:
            prod *= eval_orbit_function(rs, kind_of[kind], lam, x)
        total = sum(t.coefficient * eval_orbit_function(rs, kind_of[t.kind], t.label, x)
                    for t in osum)
        assert abs(prod - total) < tol * (1 + abs(prod))


def test_function_product_expansions_match_pointwise():
    for label in ["A2", "C2", "G2"]:
        rs = build(label)
        for kinds in [("orbit", "signed"), ("signed", "signed"), ("orbit", "orbit")]:
            for _ in range(4):
                lam = tuple(RNG.randint(0 if kinds[0] == "orbit" else 1, 3)
                            for _ in range(rs.rank))
                mu = tuple(RNG.randint(0 if kinds[1] == "orbit" else 1, 3)
                           for _ in range(rs.rank))
                osum = expand_function_product(rs, kinds[0], lam, kinds[1], mu)
                _check_functional(rs, osum, [(kinds[0], lam), (kinds[1], mu)])


def test_f4_products_match_pointwise():
    # at exact coroot points, the terms of each product (340 of the square
    # of rho) stacked into one eval_coroot_point call
    f4 = build("F4")
    rho, lam = (1, 1, 1, 1), (1, 0, 0, 0)
    pts = [tuple(F(RNG.randint(-40, 40), 41) for _ in range(4)) for _ in range(4)]
    anti = eval_coroot_point(f4, "anti", rho, pts)
    for osum, prod in ((product_plain_signed(f4, lam, rho),
                        eval_coroot_point(f4, "sym", lam, pts) * anti),
                       (product_signed_signed(f4, rho, rho), anti * anti)):
        kind = {"orbit": "sym", "signed": "anti"}[osum[0].kind]
        values = eval_coroot_point(f4, kind, [t.label for t in osum], pts)
        total = np.array([t.coefficient for t in osum]) @ values
        assert np.all(np.abs(prod - total) < 1e-9 * (1 + np.abs(prod)))


def test_a1_function_identities():
    a1 = build("A1")
    a, b = 5, 2
    out = expand_function_product(a1, "signed", (a,), "signed", (b,))
    assert terms_dict(out) == _t({(a + b,): 1, (a - b,): -1})
    out = expand_function_product(a1, "orbit", (b,), "signed", (a,))
    assert terms_dict(out) == _t({(a + b,): 1, (a - b,): 1})


# -- the rank-2 decomposition tables ---------------------------------------

from reference_tables import A2_PRODUCT_ROWS, C2_PRODUCT_ROWS


def test_a2_product_table_rows():
    a2 = build("A2")
    for a, b, c, expected in A2_PRODUCT_ROWS:
        out = terms_dict(product_plain_signed(a2, (c, 0), (a, b)))
        assert out == _t(expected), (a, b, c)
        osum = product_plain_signed(a2, (c, 0), (a, b))
        _check_functional(a2, osum, [("orbit", (c, 0)), ("signed", (a, b))])


def test_c2_product_table_rows():
    c2 = build("C2")
    for a, b, c, expected in C2_PRODUCT_ROWS:
        out = terms_dict(product_plain_signed(c2, (c, 0), (a, b)))
        assert out == _t(expected), (a, b, c)
        osum = product_plain_signed(c2, (c, 0), (a, b))
        _check_functional(c2, osum, [("orbit", (c, 0)), ("signed", (a, b))])


def test_c2_traditional_row_defects_documented():
    # In the c > a+2b regime the fourth-term fate is -(c-a-2b, b); the
    # variant -(c-a, a+b-c) sometimes quoted would not even be dominant there.
    a, b, c = 1, 1, 5
    out = terms_dict(product_plain_signed(build("C2"), (c, 0), (a, b)))
    assert vec((c - a - 2 * b, b)) in out
    assert (c - a, a + b - c) == (4, -3)  # not a dominant label at all


# -- branching --------------------------------------------------------------

def test_branch_a2_to_a1():
    a2 = build("A2")
    out = branch(a2, BranchRule("drop"), (2, 1, 0))
    assert terms_dict(out) == {(2, 1): 1, (2, 0): -1, (1, 0): 1}
    assert terms_dict(branch_terms_a_drop((2, 1, 0))) == terms_dict(out)


def test_branch_a3_to_a2():
    a3 = build("A3")
    m = vec((5, 3, 2, 0))
    out = branch(a3, BranchRule("drop"), m)
    assert terms_dict(out) == terms_dict(branch_terms_a_drop(m))
    assert len(out) == 4
    # functional: restriction to the hyperplane x_4 = 0
    for _ in range(10):
        x = [RNG.uniform(-1, 1) for _ in range(3)]
        lhs = eval_orth(a3, "anti", m, x + [0.0])
        rhs = sum(t.coefficient * _eval_factor("A", t.label, x) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_branch_a3_to_a1_x_a1():
    a3 = build("A3")
    m = vec((3, 2, 1, 0))
    out = branch(a3, BranchRule("split", 2), m)
    assert len(out) == 6
    assert terms_dict(out) == terms_dict(branch_terms_a_split(m, 2))
    for _ in range(10):
        xa = [RNG.uniform(-1, 1) for _ in range(2)]
        xb = [RNG.uniform(-1, 1) for _ in range(2)]
        lhs = eval_orth(a3, "anti", m, xa + xb)
        rhs = sum(t.coefficient * _eval_factor("A", t.label[0], xa)
                  * _eval_factor("A", t.label[1], xb) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_branch_b_c_drop_vanishes():
    assert branch(build("C3"), BranchRule("drop"), (3, 2, 1)) == ()
    assert branch(build("B3"), BranchRule("drop"), (F(7, 2), F(5, 2), F(1, 2))) == ()
    # the restricted function vanishes identically
    c3 = build("C3")
    for _ in range(6):
        x = [RNG.uniform(-1, 1) for _ in range(2)]
        assert abs(eval_orth(c3, "anti", (3, 2, 1), [0.0] + x)) < 1e-10


def test_branch_d4_to_d3():
    d4 = build("D4")
    m = vec((4, 3, 2, 1))
    out = branch(d4, BranchRule("drop"), m)
    assert len(out) == 8
    assert all(t.coefficient in (-1, 1) for t in out)
    labels = set(terms_dict(out))
    assert vec((4, 3, 2)) in labels and vec((4, 3, -2)) in labels
    for _ in range(8):
        x = [RNG.uniform(-1, 1) for _ in range(3)]
        lhs = eval_orth(d4, "anti", m, [0.0] + x)
        rhs = sum(t.coefficient * _eval_factor("D", t.label, x) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_branch_c3_split():
    c3 = build("C3")
    m = vec((3, 2, 1))
    out = branch(c3, BranchRule("split", 1), m)
    assert len(out) == 6  # one per value and sign of the A_0 part
    for _ in range(8):
        xa = [RNG.uniform(-1, 1)]
        xb = [RNG.uniform(-1, 1) for _ in range(2)]
        lhs = eval_orth(c3, "anti", m, xa + xb)
        rhs = sum(t.coefficient * _eval_factor("A", t.label[0], xa)
                  * _eval_factor("C", t.label[1], xb) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))
    out = branch(c3, BranchRule("split", 2), m)
    assert len(out) == 12
    for _ in range(8):
        xa = [RNG.uniform(-1, 1) for _ in range(2)]
        xb = [RNG.uniform(-1, 1)]
        lhs = eval_orth(c3, "anti", m, xa + xb)
        rhs = sum(t.coefficient * _eval_factor("A", t.label[0], xa)
                  * _eval_factor("C", t.label[1], xb) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_branch_point_conservation():
    # every group element lands in exactly one (term, W'-element) slot, up
    # to the wall cancellations; for A-drops nothing cancels
    a3 = build("A3")
    out = branch(a3, BranchRule("drop"), (3, 2, 1, 0))
    assert sum(abs(t.coefficient) for t in out) * 6 == 24  # |W(A_2)| = 6


def _eval_factor(fam, t, x):
    """Orbit function of one branching factor from its orthogonal label."""
    phases = np.outer([float(v) for v in t], [float(v) for v in x])
    plus = np.exp(2j * np.pi * phases)
    minus = np.exp(-2j * np.pi * phases)
    if fam == "A":
        return np.linalg.det(plus)
    if fam in ("B", "C"):
        return np.linalg.det(plus - minus)
    if fam == "D":
        return 0.5 * (np.linalg.det(plus - minus) + np.linalg.det(plus + minus))
    raise ValueError(fam)


def test_same_rank_decomposition_c2_long_roots():
    # W' generated by the two long-root reflections of C_2 acts on the
    # orthogonal coordinates by independent sign flips; coset reps {e, r_1}
    c2 = build("C2")
    grp = generate_group(c2)
    ident = next(w for w in grp if len(w.word) == 0)
    r1 = next(w for w in grp if w.word == (0,))
    m = (2, 1)
    lam = vec((1, 1))  # omega coords of orth (2, 1)
    assert to_orthogonal(c2, lam) == vec(m)
    terms = [(w.det, w.apply(lam)) for w in (ident, r1)]
    for _ in range(8):
        x = [RNG.uniform(-1, 1) for _ in range(2)]
        lhs = eval_orth(c2, "anti", m, x)
        rhs = 0j
        for det, wlam in terms:
            orth = to_orthogonal(c2, wlam)
            rhs += det * (2j * np.sin(2 * np.pi * float(orth[0]) * x[0])) \
                * (2j * np.sin(2 * np.pi * float(orth[1]) * x[1]))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_branch_rejects_bad_input():
    with pytest.raises(WallError):
        branch(build("C3"), BranchRule("drop"), (3, 2, 0))
    with pytest.raises(ValueError):
        branch(build("B3"), BranchRule("split", 1), (3, 2, 1))
    with pytest.raises(ValueError):
        branch(build("G2"), BranchRule("drop"), (1, 1))
    with pytest.raises(ValueError, match="too large for exact int64"):
        branch(build("C3"), BranchRule("drop"), (10 ** 30, 2, 1))


@pytest.mark.parametrize("label,m", [("D4", (4, 3, 2, -1)), ("D4", (4, 3, 2, 0)),
                                     ("D5", (5, 4, 3, 2, -1)), ("D5", (6, 4, 3, 1, 0))])
def test_branch_d_with_a_last_coordinate_not_positive(label, m):
    # m_(n-1) > |m_n| is strictly dominant for D_n, whatever the sign of m_n
    rs = build(label)
    for br in [BranchRule("drop")] + [BranchRule("split", p) for p in range(1, rs.rank)]:
        assert branch(rs, br, m) == branch_oracle(rs, br, m), br
    with pytest.raises(WallError, match=r"^\(5, 3, 1, -1\) is not strictly dominant for D4"):
        branch(build("D4"), BranchRule("drop"), (5, 3, 1, -1))


def test_branch_d4_split():
    d4 = build("D4")
    m = vec((4, 3, 2, 1))
    out = branch(d4, BranchRule("split", 1), m)
    assert len(out) == 8  # each value with either sign in the single A slot
    for _ in range(8):
        xa = [RNG.uniform(-1, 1)]
        xb = [RNG.uniform(-1, 1) for _ in range(3)]
        lhs = eval_orth(d4, "anti", m, xa + xb)
        rhs = sum(t.coefficient * _eval_factor("A", t.label[0], xa)
                  * _eval_factor("D", t.label[1], xb) for t in out)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


# the eight rules of the algebra bench workload
_BENCH_RULES = [("A4", "drop", 0), ("B4", "drop", 0), ("C4", "drop", 0), ("D5", "drop", 0),
                ("A5", "drop", 0), ("C4", "split", 2), ("A3", "split", 2), ("A5", "split", 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_BENCH_RULES),
       st.sets(st.fractions(min_value=F(1, 3), max_value=9, max_denominator=3),
               min_size=6, max_size=6),
       st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_branch_equals_the_element_loop_oracle(rule, coords, shift):
    label, kind, p = rule
    rs = build(label)
    m = sorted(coords, reverse=True)[:orth_dim(rs)]
    if label[0] == "A":   # any strictly decreasing m, not only positive ones
        m = [c + shift for c in m]
    br = BranchRule(kind, p)
    out = branch(rs, br, m)
    assert out == branch_oracle(rs, br, m)   # labels, order and coefficients
    if label[0] == "A" and kind == "split":
        assert terms_dict(out) == terms_dict(branch_terms_a_split(m, p))


def test_longest_element_negation_per_diagram():
    # which orbits contain the full negation, and with which sign, varies
    # by diagram: minus the identity lies in W for B/C/D4/G2 but not A_n
    from orbitfuncs.weyl import generate_group
    for label, det in [("C2", 1), ("G2", 1), ("B3", -1), ("C3", -1), ("D4", 1)]:
        rs = build(label)
        neg = tuple(tuple(-int(i == j) for j in range(rs.rank))
                    for i in range(rs.rank))
        hits = [w.det for w in generate_group(rs) if w.matrix == neg]
        assert hits == [det], label
    a2 = build("A2")
    neg = ((-1, 0), (0, -1))
    assert not any(w.matrix == neg for w in generate_group(a2))
