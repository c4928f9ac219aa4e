"""Decomposition of products of (signed) orbits and branching to subgroups.

Every product goes through one coset sum.  For a weight y write
S+(y) = sum_w e^(w y) and S-(y) = sum_w det(w) e^(w y); then
S+(y) = |Stab(y)| * O(dom y), and S-(y) = sign * O^+-(dom y) off the walls
and 0 on them, with (dom y, sign) as from ``to_dominant``.  Since an orbit
is W-invariant, a product of two orbit sums is a sum of S+ or S- over the
points of one factor only, instead of a loop over pairs of points; the
pair loops are kept in the tests as brute-force oracles.  The points beta + q
of one coset sum are int64 rows over one denominator, descended to their
dominant forms together (``weyl._dominant_forms``) and summed per distinct
row, times |Stab| per wall mask (``weyl._parabolic_order``) if plain; only
the distinct labels become Fractions.  A restriction (``branch``) is a
masked array sum: the images of m under the whole group, as integer rows of
signed permutations, are split into the parts of the subgroup, masked to the
rows strictly dominant for every part, and their dets summed per distinct
row; the per-family branching term generators are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rootsys import RootSystem, orth_vec, _vec_str
from .weyl import (
    signed_orbit, stabilizer_order, orth_action, WallError,
    _distinct, _dominant_forms, _dominant_rows, _dominant_vec, _group, _orbit_rows,
    _parabolic_order, _scaled, _strict_vec, _unscaled,
)


@dataclass(frozen=True)
class OrbitTerm:
    coefficient: int
    label: tuple
    kind: str  # "orbit" or "signed"


OrbitSum = tuple[OrbitTerm, ...]


def _collect(counter: dict, kind: str) -> OrbitSum:
    return tuple(OrbitTerm(c, lab, kind) for lab, c in sorted(counter.items()) if c != 0)


def _coset_sum(rs: RootSystem, beta: tuple, rows: np.ndarray, d: int,
               coeffs: np.ndarray, signed: bool) -> dict:
    """sum of c * S-(beta + q) (signed) or c * S+(beta + q) (plain) over
    the points q = row / d and their coefficients c, as {dominant label:
    coefficient}: one batched descent, then one sum per distinct label."""
    rows, signs, d = _dominant_forms(rs, beta, rows, d)
    if signed:
        off_walls = rows.all(axis=1)
        rows, coeffs = rows[off_walls], (coeffs * signs)[off_walls]
    labels, sums = _distinct(rows, coeffs)
    if not signed:   # times |Stab(label)|, one parabolic order per wall mask
        walls = ((labels == 0) @ (1 << np.arange(rs.rank))).tolist()
        orders = {w: _parabolic_order(rs, w) for w in set(walls)}
        sums = sums * np.array([orders[w] for w in walls])
    return dict(zip(_unscaled(labels, d), sums.tolist()))


def _orbit_coset_sum(rs: RootSystem, beta: tuple, lam: Sequence, signed: bool) -> dict:
    """``_coset_sum`` over the points of the orbit of lam, each once."""
    rows, d = _orbit_rows(rs, lam)
    return _coset_sum(rs, beta, rows, d, np.ones(len(rows), dtype=np.int64), signed)


def product_plain_signed(rs: RootSystem, lam: Sequence, mu: Sequence) -> OrbitSum:
    """O(lam) x O^+-(mu) = sum over q in O(lam) of S-(mu + q): a union of
    signed orbits; two cosets may land on one label, so a coefficient
    need not be a unit.  As in ``orbit`` and ``signed_orbit``, a factor that
    is not dominant raises ValueError, and a dominant mu on a wall WallError."""
    muv = _strict_vec(rs, mu)
    return _collect(_orbit_coset_sum(rs, muv, lam, signed=True), "signed")


product_plain_signed_coset = product_plain_signed


def product_signed_signed(rs: RootSystem, lam: Sequence, mu: Sequence) -> OrbitSum:
    """O^+-(lam) x O^+-(mu) = sum over w of det(w) S+(lam + w mu): a union
    of plain orbits with integer coefficients; labels on walls may carry
    |coefficient| > 1."""
    lamv = _strict_vec(rs, lam)
    so = signed_orbit(rs, mu)
    return _collect(_coset_sum(rs, lamv, so.rows, so.scale, so.dets, signed=False), "orbit")


def product_plain_plain(rs: RootSystem, lam: Sequence, mu: Sequence) -> OrbitSum:
    """O(lam) x O(mu) = sum over q in O(mu) of S+(lam + q) / |Stab(lam)|:
    a union of plain orbits with positive multiplicities."""
    lamv = _dominant_vec(rs, lam)
    counter = _orbit_coset_sum(rs, lamv, mu, signed=False)
    stab = stabilizer_order(rs, lamv)
    assert all(c % stab == 0 for c in counter.values()), (counter, stab)
    return _collect({lab: c // stab for lab, c in counter.items()}, "orbit")


# each product looked up by its name at call time, so that a caller which
# rebinds it (the bench tracer) sees the calls made through this table
_PRODUCTS = {
    ("orbit", "orbit"): lambda rs, lam, mu: product_plain_plain(rs, lam, mu),
    ("orbit", "signed"): lambda rs, lam, mu: product_plain_signed(rs, lam, mu),
    ("signed", "orbit"): lambda rs, lam, mu: product_plain_signed(rs, mu, lam),
    ("signed", "signed"): lambda rs, lam, mu: product_signed_signed(rs, lam, mu),
}


def expand_function_product(rs: RootSystem, kind1: str, lam: Sequence,
                            kind2: str, mu: Sequence) -> OrbitSum:
    """Expansion of a product of orbit functions into orbit functions.

    ``kind`` is ``"orbit"`` for a symmetric orbit function and ``"signed"``
    for an antisymmetric one: sym*sym and anti*anti expand into symmetric
    functions, sym*anti into antisymmetric ones, with the same integer
    coefficients as the orbit-level decompositions.
    """
    if (kind1, kind2) not in _PRODUCTS:
        raise ValueError(f"unknown kind pairing {(kind1, kind2)}")
    return _PRODUCTS[(kind1, kind2)](rs, lam, mu)


# -- branching -----------------------------------------------------------

@dataclass(frozen=True)
class BranchRule:
    """Restriction of a signed orbit to a sub-root-system.

    ``kind="drop"``: remove one node of the diagram end (A_n -> A_{n-1},
    B_n -> B_{n-1}, C_n -> C_{n-1}, D_n -> D_{n-1}).  ``kind="split"``:
    remove the interior node p (1-based), giving A_{p-1} x A_{q-1} from
    A_{n-1}, A_{p-1} x C_q from C_n, or A_{p-1} x D_q from D_n.
    """
    kind: str
    p: int = 0


def branch(rs: RootSystem, rule: BranchRule, m: Sequence) -> OrbitSum:
    """Decompose a signed orbit, given in orthogonal coordinates, into
    signed orbits of the sub-root-system selected by ``rule``.

    Labels are orthogonal-coordinate tuples; for split rules each label is
    a pair (A-part tuple, second-factor tuple).
    """
    fam = rs.family
    if fam not in "ABCD":
        raise ValueError(f"no branching rules for {rs.id.label}")
    mv = orth_vec(rs, m)
    r = len(mv)
    # every w m as integers over the lcm d
    perm, signs = orth_action(rs)
    group = _group(rs)
    (m_int,), d = _scaled(rs, [mv])
    if not _dominant_rows(fam, m_int[None])[0]:
        raise WallError(f"{_vec_str(mv)} is not strictly dominant for "
                        f"{rs.id.label}; branching needs a signed orbit")

    if rule.kind == "drop":
        cols, cuts, doms = (slice(0, r - 1) if fam == "A" else slice(1, r)), [], (fam,)
    elif rule.kind == "split":
        p = rule.p
        if not 1 <= p < r:
            raise ValueError(f"split position {p} out of range")
        if fam == "B":
            raise ValueError("no A x B split rule is implemented")
        cols, cuts, doms = slice(0, r), [p], ("A", fam)
    else:
        raise ValueError(f"unknown rule kind {rule.kind!r}")

    imgs = (signs * m_int[perm])[:, cols]
    parts = np.split(imgs, cuts, axis=1)
    keep = np.logical_and.reduce([_dominant_rows(f, t) for f, t in zip(doms, parts)])
    rows, sums = _distinct(imgs[keep], group.dets[keep])
    return _collect({(lab[:p], lab[p:]) if cuts else lab: c
                     for lab, c in zip(_unscaled(rows, d), sums.tolist())}, "signed")

