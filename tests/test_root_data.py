"""Root data derived from the Cartan matrix and the root lengths alone (the
marks, |W|, the dual marks and the metric), against the per-family tables
and the full metric product of ``build_oracle`` on every diagram up to
rank 8."""

import dataclasses

import pytest

from orbitfuncs import rootsys, transforms
from orbitfuncs.rootsys import RootSystem, build, parse_diagram, _build, _dominant_root
from orbitfuncs.weyl import dual_marks

from orbit_oracles import build_oracle, dual_marks_table_oracle

ALL_DIAGRAMS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


def _typed(x):
    """x with the type of every entry beside it, so that == compares the
    types too (Fraction(2) == 2)."""
    if isinstance(x, tuple):
        return tuple(map(_typed, x))
    return type(x), x


@pytest.mark.parametrize("label", ALL_DIAGRAMS)
def test_every_field_equals_the_tables_and_the_full_metric_product(label):
    did = parse_diagram(label)
    rs, want = _build(did), build_oracle(did)
    for field in dataclasses.fields(RootSystem):
        assert _typed(getattr(rs, field.name)) == _typed(getattr(want, field.name)), field.name
    assert _typed(dual_marks(rs)) == _typed(dual_marks_table_oracle(did))


@pytest.mark.parametrize("label", ALL_DIAGRAMS)
def test_every_simple_root_of_a_length_reaches_the_same_dominant_root(label):
    # the roots of one length form one orbit (Humphreys 1972, 10.4), so the
    # loop ends at the highest root from every long simple root and at the
    # highest short root from every short one
    rs = build(label)
    cartan = [tuple(map(int, row)) for row in rs.cartan]
    ends = {x: {_dominant_root(cartan, i) for i, y in enumerate(rs.root_norms) if y == x}
            for x in rs.root_norms}
    assert all(len(e) == 1 for e in ends.values())
    assert ends[max(rs.root_norms)] == {rs.marks}


def test_dual_marks_are_kept_with_the_root_system_and_not_built_with_it():
    rs = _build(parse_diagram("F4"))
    assert "_dual_marks" not in vars(rs)
    marks = dual_marks(rs)
    assert dual_marks(rs) is marks and vars(rs)["_dual_marks"] is marks
    assert marks == (2, 4, 3, 2)


def test_the_lattice_index_is_defined_once():
    assert transforms.lattice_index is rootsys.lattice_index
