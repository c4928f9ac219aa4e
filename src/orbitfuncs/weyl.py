"""Weyl group generation, orbits with signs, and the affine geometry of F.

Group elements are integer matrices acting on omega coordinates (column
vectors).  Generation is a BFS over generator words, deduplicated by the
exact matrix, so determinants follow from word parity.  Everything here is
exact rational arithmetic; no tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .rootsys import (
    RootSystem, Vec, vec, mat_vec, is_dominant, is_strictly_dominant, rank_vec,
    UnsupportedCoordinatesError, _vec_str,
)

IntMat = tuple[tuple[int, ...], ...]


class GroupSizeError(RuntimeError):
    """Raised when a Weyl group exceeds the caller-supplied size limit."""


class WallError(ValueError):
    """Raised when a weight required to be strictly dominant lies on a wall."""


@dataclass(frozen=True)
class WeylElement:
    matrix: IntMat
    det: int
    word: tuple[int, ...]

    def apply(self, x: Sequence) -> Vec:
        return mat_vec(self.matrix, vec(x))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        n = len(self.matrix)
        prod = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n)
        )
        return WeylElement(prod, self.det * other.det, self.word + other.word)


def _identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def generators(rs: RootSystem) -> list[WeylElement]:
    """Simple reflections r_i as integer matrices on omega coordinates.

    r_i subtracts x_i times the i-th Cartan row:  (r_i x)_k = x_k - x_i M_ik.
    Only the A/B/C/D families and G_2 are enumerable here; the E and F
    diagrams carry static data only.
    """
    if rs.family in ("E", "F"):
        raise ValueError(f"group enumeration is not supported for {rs.id.label}")
    n = rs.rank
    gens = []
    for i in range(n):
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        for k in range(n):
            m[k][i] -= int(rs.cartan[i][k])
        gens.append(WeylElement(tuple(tuple(r) for r in m), -1, (i,)))
    return gens


_GROUP_CACHE: dict = {}

#: Hard ceiling so that E/F diagrams are rejected rather than enumerated.
DEFAULT_GROUP_LIMIT = 100_000


def generate_group(rs: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> list[WeylElement]:
    """All Weyl group elements, BFS order (identity first)."""
    if rs.family in ("E", "F"):
        raise ValueError(f"group enumeration is not supported for {rs.id.label}")
    if rs.weyl_order > limit:
        raise GroupSizeError(
            f"|W({rs.id.label})| = {rs.weyl_order} exceeds the limit {limit}")
    key = rs.id
    if key in _GROUP_CACHE:
        return _GROUP_CACHE[key]
    gens = generators(rs)
    ident = WeylElement(_identity(rs.rank), 1, ())
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = g * w  # prepend reflection: shortest words via BFS
                if wg.matrix not in seen:
                    seen[wg.matrix] = wg
                    nxt.append(wg)
        frontier = nxt
    elements = list(seen.values())
    assert len(elements) == rs.weyl_order, (len(elements), rs.weyl_order)
    _GROUP_CACHE[key] = elements
    return elements


@dataclass(frozen=True)
class DominantForm:
    weight: Vec
    sign: int
    on_wall: bool


def to_dominant(rs: RootSystem, x: Sequence) -> DominantForm:
    """Dominant representative of the W-orbit of x, with the det of the map.

    Applies the generator of the most negative coordinate (lowest index on
    ties) until dominant; the sign flips once per reflection.
    """
    cur = list(vec(x))
    sign = 1
    n = rs.rank
    M = rs.cartan
    while True:
        neg = min(range(n), key=lambda i: (cur[i], i))
        if cur[neg] >= 0:
            break
        xi = cur[neg]
        for k in range(n):
            cur[k] -= xi * M[neg][k]
        sign = -sign
    return DominantForm(tuple(cur), sign, any(c == 0 for c in cur))


def orbit(rs: RootSystem, lam: Sequence, limit: int = DEFAULT_GROUP_LIMIT) -> list[Vec]:
    """Distinct points of the W-orbit of a dominant weight."""
    lamv = vec(lam)
    if not is_dominant(lamv):
        raise ValueError("orbit() expects a dominant weight")
    gens = generators(rs)
    if rs.weyl_order > limit:
        raise GroupSizeError(f"|W({rs.id.label})| exceeds the limit")
    seen = {lamv}
    frontier = [lamv]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g.apply(p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def stabilizer_order(rs: RootSystem, lam: Sequence) -> int:
    """|W_lam| by brute membership test over the generated group."""
    lamv = vec(lam)
    return sum(1 for w in generate_group(rs) if w.apply(lamv) == lamv)


@dataclass(frozen=True)
class SignedOrbit:
    dominant: Vec
    points: tuple[tuple[Vec, int], ...]


def signed_orbit(rs: RootSystem, lam: Sequence) -> SignedOrbit:
    """The full signed orbit {(w lam, det w) : w in W} of a strictly dominant lam.

    A weight that is not dominant raises ValueError, a dominant one on a
    wall WallError.
    """
    lamv = rank_vec(rs, lam)
    if not is_strictly_dominant(lamv):
        if not is_dominant(lamv):
            raise ValueError(f"{_vec_str(lamv)} is not dominant; signed orbits "
                             f"need a strictly dominant weight")
        raise WallError(f"{_vec_str(lamv)} lies on a wall; signed orbits need "
                        f"strict dominance")
    pts = tuple((w.apply(lamv), w.det) for w in generate_group(rs))
    assert len({p for p, _ in pts}) == rs.weyl_order
    return SignedOrbit(lamv, pts)


# -- affine reflection and the fundamental domain -----------------------

def xi_pairing(rs: RootSystem, x: Sequence) -> Fraction:
    """<x, xi> = sum_i x_i q_i for x in omega coordinates."""
    return sum(Fraction(c) * q for c, q in zip(x, rs.comarks))


def reflect_highest_root(rs: RootSystem, x: Sequence) -> Vec:
    xv = vec(x)
    coef = xi_pairing(rs, xv)  # <x, xi^check> with xi^check = xi
    xi = rs.highest_root_omega
    return tuple(c - coef * z for c, z in zip(xv, xi))


def affine_r0(rs: RootSystem, x: Sequence) -> Vec:
    """Reflection in the hyperplane <x, xi> = 1:  r0 x = xi^check + r_xi x."""
    rx = reflect_highest_root(rs, x)
    xi = rs.highest_root_omega
    return tuple(a + b for a, b in zip(xi, rx))


def in_fundamental_domain(rs: RootSystem, x: Sequence) -> str:
    """Classify a point against the closed simplex F: one of
    ``"interior"``, ``"boundary"``, ``"outside"``."""
    xv = vec(x)
    level = xi_pairing(rs, xv)
    if any(c < 0 for c in xv) or level > 1:
        return "outside"
    if all(c > 0 for c in xv) and level < 1:
        return "interior"
    return "boundary"


# -- positive roots ------------------------------------------------------

_POSROOT_CACHE: dict = {}


def positive_roots(rs: RootSystem) -> list[Vec]:
    """All positive roots in omega coordinates.

    The root system is the union of the W-orbits of the simple roots; a
    root is positive when its alpha-basis expansion is nonnegative.
    """
    if rs.id in _POSROOT_CACHE:
        return _POSROOT_CACHE[rs.id]
    from .rootsys import convert_basis
    all_roots: set[Vec] = set()
    for i in range(rs.rank):
        alpha_i = vec(rs.cartan[i])  # alpha_i in omega coordinates
        dom = to_dominant(rs, alpha_i).weight
        all_roots.update(orbit(rs, dom))
    pos = [r for r in all_roots
           if all(c >= 0 for c in convert_basis(rs, r, "omega", "alpha"))]
    assert 2 * len(pos) == len(all_roots)
    result = sorted(pos)
    _POSROOT_CACHE[rs.id] = result
    return result


def positive_root_count(rs: RootSystem) -> int:
    return len(positive_roots(rs))


def highest_short_root(rs: RootSystem) -> Vec:
    """The unique dominant root of minimal length, in omega coordinates
    (equals the highest root for simply-laced diagrams)."""
    from .rootsys import inner
    best = None
    for r in positive_roots(rs):
        norm = inner(rs, r, r)
        if is_dominant(r) and (best is None or norm < best[0]):
            best = (norm, r)
    return best[1]


def dual_marks(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients of the highest-short-root coroot in the coroot basis.

    These drive the label-side alcove constraint of the discrete
    transforms: a weight lambda pairs integrally with the refined torus
    of F_M exactly when sum lambda_i * dual_marks_i falls in M Z.  For
    simply-laced diagrams they coincide with the marks.
    """
    from .rootsys import convert_basis, inner
    xi_s = highest_short_root(rs)
    a = convert_basis(rs, xi_s, "omega", "alpha")
    norm = inner(rs, xi_s, xi_s)
    out = []
    for i, ai in enumerate(a):
        c = ai * rs.root_norms[i] / norm
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


# -- orthogonal-coordinate group action for A/B/C/D ---------------------

def orth_group(rs: RootSystem) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield (permutation, signs, det) for the Weyl action on orthogonal
    coordinates: the image of m is  (s_1 m_{p(1)}, ..., s_r m_{p(r)}).

    A_n: all permutations of the n+1 coordinates, no sign flips.
    B_n/C_n: permutations with arbitrary sign flips.
    D_n: permutations with evenly many sign flips.
    """
    fam = rs.family
    r = rs.rank + 1 if fam == "A" else rs.rank
    if fam == "A":
        for p in itertools.permutations(range(r)):
            yield p, (1,) * r, _perm_sign(p)
        return
    if fam not in ("B", "C", "D"):
        raise UnsupportedCoordinatesError(f"no orthogonal model for {rs.id.label}")
    for p in itertools.permutations(range(r)):
        ps = _perm_sign(p)
        for signs in itertools.product((1, -1), repeat=r):
            nneg = signs.count(-1)
            if fam == "D":
                if nneg % 2:
                    continue
                yield p, signs, ps
            else:
                yield p, signs, ps * (-1) ** nneg


def _perm_sign(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def orth_apply(p: Sequence[int], signs: Sequence[int], m: Sequence) -> tuple:
    return tuple(signs[i] * m[p[i]] for i in range(len(p)))
