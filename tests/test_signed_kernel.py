"""The antisymmetric kernel of ``eval_coroot_point`` and ``build_plan``.

``orbitfn._signed_kernel`` takes the terms of every strictly dominant
label from one product with the group matrices, over the common
denominator of all the labels, and sums each block of labels with one
product by the dets.  ``coroot_point_oracle`` is the per-label loop it
replaced, with one ``signed_orbit`` per label; both take the same exact
phases k / D, so they agree to the bit, and the property test allows
|W| u per entry.
"""

import dataclasses
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitfuncs.orbitfn import _numerators, _signed_kernel, eval_coroot_point
from orbitfuncs.rootsys import build
from orbitfuncs.transforms import GridPoint, build_plan, default_labels
from orbitfuncs.weyl import WallError, signed_orbit

from orbit_oracles import coroot_point_oracle, grid_oracle, labels_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import PLAN_TABLE  # noqa: E402  (pure Python, no orbitfuncs)

U = 2.0 ** -53


@st.composite
def stacks(draw):
    rs = build(draw(st.sampled_from(["A2", "C2", "G2", "A3", "B3", "C3", "F4"])))
    label = st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 3)),
                     min_size=rs.rank, max_size=rs.rank).map(tuple)
    point = st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
                     min_size=rs.rank, max_size=rs.rank).map(tuple)
    return (rs, draw(st.lists(label, min_size=1, max_size=4)),
            draw(st.lists(point, min_size=1, max_size=5)))


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_a_stack_of_labels_is_the_per_label_loop(case):
    rs, labels, pts = case
    got = eval_coroot_point(rs, "anti", labels, pts)
    want = coroot_point_oracle(rs, "antisymmetric", labels, pts)
    assert got.shape == want.shape == (len(labels), len(pts)) and got.dtype == complex
    assert np.all(np.abs(got - want) <= rs.weyl_order * U), rs.id.label


@pytest.mark.parametrize("label,M,count", PLAN_TABLE,
                         ids=[f"{d}-{M}-{c}" for d, M, c in PLAN_TABLE])
def test_the_bench_plans_are_the_oracle_plans(label, M, count):
    # the labels and grid of the tuple generators in value and type, and the kernel of the
    # per-label loop to the bit; a plan with a label count takes that many
    # default labels, drawn as tools/time_cis.py draws them
    rs = build(label)
    want_labels = labels_oracle(rs, M)
    given = None
    if count is not None:
        pick = sorted(np.random.default_rng(M).choice(len(want_labels), count, replace=False))
        want_labels = tuple(want_labels[i] for i in pick)
        given = [default_labels(rs, M)[i] for i in pick]
    plan = build_plan(rs, M, given)
    want_grid = tuple(p for p in grid_oracle(rs, M).points if p.interior)
    assert (plan.labels, plan.grid) == (want_labels, want_grid)
    assert _types((plan.labels, plan.grid)) == _types((want_labels, want_grid))
    want = coroot_point_oracle(rs, "antisymmetric", want_labels, [p.coroot for p in want_grid])
    assert np.array_equal(plan.kernel, want)


def _types(x):
    """x with every value replaced by its type, through tuples and GridPoints."""
    if isinstance(x, tuple):
        return tuple(map(_types, x))
    if isinstance(x, GridPoint):
        return tuple(_types(getattr(x, f.name)) for f in dataclasses.fields(x))
    return type(x)


def _message(rs, lam) -> tuple:
    """The error type and message of signed_orbit on lam alone."""
    with pytest.raises(ValueError) as info:
        signed_orbit(rs, lam)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("labels,bad", [
    ([(1, 2), (0, 1), (-1, 2)], (0, 1)),
    ([(1, 2), (-1, 2), (0, 1)], (-1, 2)),
    ([(F(1, 3), 1), (2, F(1, 2)), (F(2, 3), 0)], (F(2, 3), 0)),
    # a label past the int64 bound of its images and one on a wall: the
    # first of the two names the error, as the per-label loop did
    ([(0, 1), (2 ** 62, 1)], (0, 1)),
    ([(2 ** 62, 1), (0, 1)], (2 ** 62, 1)),
])
def test_a_bad_label_in_a_stack_is_named(labels, bad):
    a2 = build("A2")
    error, message = _message(a2, bad)
    assert error is (WallError if 0 in bad else ValueError)
    pts = [(F(1, 5), F(2, 5))]
    for call in (lambda: eval_coroot_point(a2, "anti", labels, pts),
                 lambda: build_plan(a2, 7, labels)):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_an_integer_array_of_labels_is_its_stack_of_vectors():
    # build_plan hands the kernel its default labels as an int64 array,
    # taken as rows over 1 with the checks of a stack of vectors
    a2 = build("A2")
    rows = np.array([[1, 2], [3, 1], [2 ** 61, 5]])
    pts = [(F(1, 5), F(2, 5)), (F(1, 7), F(-3, 4))]
    nums, db = _numerators([c for p in pts for c in p])
    b = nums.reshape(len(pts), 2)
    got = _signed_kernel(a2, rows, b, db)
    assert np.array_equal(got, eval_coroot_point(a2, "anti", rows.tolist(), pts))
    assert np.array_equal(got, eval_coroot_point(a2, "anti", rows, pts))
    assert np.array_equal(got, coroot_point_oracle(a2, "antisymmetric", rows.tolist(), pts))
    for bad, row in (([[1, 2], [0, 1], [3, 2]], (0, 1)), ([[1, 2], [-1, 2]], (-1, 2)),
                     ([[1, 2], [2 ** 62, 1]], (2 ** 62, 1))):
        error, message = _message(a2, row)
        for call in (lambda: _signed_kernel(a2, np.array(bad), b, db),
                     lambda: eval_coroot_point(a2, "anti", np.array(bad), pts)):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message


def test_mixed_denominators_past_int64_at_their_lcm_take_python_ints():
    # (2**60, 1) alone is within the int64 bound of its images (2 * 2**60),
    # but over the stack's denominator 8 it is 2**63: the stack's rows are
    # then Python ints, and every row is still its label's call alone
    a2 = build("A2")
    labels = [(2 ** 60, 1), (F(1, 8), 1), (F(3, 2), F(5, 4))]
    pts = [(F(1, 3), F(2, 9)), (F(-5, 7), F(1, 2)), (0, F(7, 11))]
    got = eval_coroot_point(a2, "anti", labels, pts)
    assert np.array_equal(got, coroot_point_oracle(a2, "antisymmetric", labels, pts))
    for row, lam in zip(got, labels):
        assert np.array_equal(row, eval_coroot_point(a2, "anti", lam, pts))
    # a label of numpy ints is read as Python ints, so it cannot overflow
    # int64 over the stack's denominator 2**30
    labels = [np.array([2 ** 40, 3]), (F(1, 2 ** 30), 1)]
    got = eval_coroot_point(a2, "anti", labels, pts)
    assert np.array_equal(got, coroot_point_oracle(a2, "antisymmetric", [(2 ** 40, 3), labels[1]], pts))
