"""Weyl group generation, orbits with signs, and the affine geometry of F.

Group elements are integer matrices acting on omega coordinates (column
vectors).  Each group is built once as an int64 array, in BFS order over
generator words (identity first), so every element has a shortest word and
det = (-1)^length; each layer is one array step on the images of rho.  A
group of any diagram closes up to DEFAULT_GROUP_LIMIT elements, F4 and E6 too.
Orbits and signed orbits are array operations on it: the weight is scaled
to integers by the lcm of its denominators, multiplied by every matrix,
and turned back into Fractions once (a signed orbit keeps its int64 rows
and converts its points when they are first read).  On A, B, C and D the
action on orthogonal coordinates, a signed permutation per element, is
read off the same array (``orth_action``).  The rest is root data, with no
group: ``_dominant_forms`` takes many points to the dominant chamber by
simple reflections at once (``to_dominant`` is its one-row case), a
stabilizer is the parabolic subgroup of the walls of the dominant form
(``stabilizer_order``), and the positive roots come from the Cartan
matrix (``positive_roots``).  Everything here is exact; no tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rootsys import (
    RootSystem, Vec, vec, mat_vec, is_dominant, is_strictly_dominant, rank_vec,
    inner, orth_dim, from_orthogonal, _BoundedCache, _omega_cols, _orth_basis, _vec_str,
)

IntMat = tuple[tuple[int, ...], ...]


class GroupSizeError(RuntimeError):
    """Raised when a Weyl group has more than DEFAULT_GROUP_LIMIT elements."""


class WallError(ValueError):
    """Raised when a weight required to be strictly dominant lies on a wall."""


@dataclass(frozen=True)
class WeylElement:
    matrix: IntMat
    det: int
    word: tuple[int, ...]

    def apply(self, x: Sequence) -> Vec:
        return mat_vec(self.matrix, vec(x))


def generators(rs: RootSystem) -> list[WeylElement]:
    """Simple reflections r_i as integer matrices on omega coordinates.

    r_i subtracts x_i times the i-th Cartan row:  (r_i x)_k = x_k - x_i M_ik.
    Every diagram has them, E7 and E8 too, whose groups do not close.
    """
    n = rs.rank
    return [WeylElement(tuple(tuple(int(k == c) - int(c == i) * int(rs.cartan[i][k])
                                    for c in range(n)) for k in range(n)), -1, (i,))
            for i in range(n)]


@dataclass
class _Group:
    """One Weyl group in BFS order, as arrays only: int64 matrices, dets, the
    shortest words as the index of each element's parent and the generator
    that leads to it from there, and the orthogonal action (perm, signs) of
    ``orth_action``."""
    mats: np.ndarray
    dets: np.ndarray
    parents: np.ndarray
    gens: np.ndarray
    orth: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The shortest word of every element: its generator, then its parent's word."""
        words = [()]
        for p, g in zip(self.parents.tolist()[1:], self.gens.tolist()[1:]):
            words.append((g,) + words[p])
        return tuple(words)


# groups kept; a bench workload touches at most 11 diagrams
_GROUP_CACHE = _BoundedCache(16)

#: The most elements of a closed group, the one ceiling: E7 and E8 exceed it.
DEFAULT_GROUP_LIMIT = 100_000


def _group(rs: RootSystem) -> _Group:
    """The cached group of rs, closed layer by layer on first use."""
    _check_group_size(rs)
    return _GROUP_CACHE.lookup(rs.id, lambda: _close(rs))


def _check_group_size(rs: RootSystem) -> None:
    """GroupSizeError when |W| exceeds DEFAULT_GROUP_LIMIT."""
    if rs.weyl_order > DEFAULT_GROUP_LIMIT:
        raise GroupSizeError(f"|W({rs.id.label})| = {rs.weyl_order} exceeds the limit "
                             f"{DEFAULT_GROUP_LIMIT}")


def _first_keys(keys: list) -> list[int]:
    """The index of the first occurrence of each distinct key, ascending."""
    last = len(keys) - 1
    return sorted(dict(zip(reversed(keys), range(last, -1, -1))).values())


def _close(rs: RootSystem) -> _Group:
    """The group of rs closed layer by layer from the images of rho.

    rho = (1, ..., 1) is regular, so w -> v = w rho is injective, and r_g w
    is one longer than w exactly when v_g > 0 (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1990, 1.6-1.7).  Every |v_k| <= h - 1 (h the
    Coxeter number), so p . v with p = (2h - 1)^(0..n-1) is a key of w,
    exact in int64 while (2h - 1)^n < 2^63: up to rank 8 on every diagram
    (59^8 on E8), and on every group small enough to hold.  An element of
    a layer is the (n + 1, n + 1) array Q [m | v] with Q = [I; p]: its
    matrix m, v as an extra column, and the key in the corner.  The
    candidate r_g w is that array minus Q A[g] (x) its row g, A the Cartan
    matrix.  One step forms every candidate with v_g > 0, in the order
    (element, generator), and keeps the first of each key; so the order,
    the shortest words and dets = (-1)^layer are those of the closure over
    all n |layer| products with a seen set.  There are |positive roots| =
    n h / 2 steps.
    """
    n = rs.rank
    h = 1 + sum(rs.marks)
    A = np.array([[int(c) for c in row] for row in rs.cartan], dtype=np.int64)
    Q = np.eye(n + 1, n, dtype=np.int64)
    Q[n] = (2 * h - 1) ** np.arange(n)
    b = (A @ Q.T)[:, :, None]
    top = np.eye(n, n + 1, dtype=np.int64)
    top[:, n] = 1
    layer = (Q @ top)[None]
    layers, parents, gens, start = [layer[:, :n, :n]], [[0]], [[-1]], 0
    for _ in range(n * h // 2):
        f, g = (layer[:, :n, n] > 0).nonzero()
        cand = layer.take(f, 0) - b.take(g, 0) * layer[f, g][:, None, :]
        first = _first_keys(cand[:, n, n].tolist())
        parents.append(start + f[first])
        gens.append(g[first])
        start += len(layer)
        layer = cand.take(first, 0)
        layers.append(layer[:, :n, :n])
    mats = np.concatenate(layers)
    assert len(mats) == rs.weyl_order, (len(mats), rs.weyl_order)
    dets = np.repeat((-1) ** np.arange(len(layers), dtype=np.int64), [len(x) for x in layers])
    arrays = mats, dets, np.concatenate(parents), np.concatenate(gens)
    for a in arrays:
        a.setflags(write=False)
    return _Group(*arrays)


def generate_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, BFS order (identity first): a view built
    on every call from the cached arrays, which keep no copy of it."""
    group = _group(rs)
    # one list of all entries, read n at a time into rows and n rows at a
    # time into matrices
    entries = iter(group.mats.ravel().tolist())
    mats = zip(*[zip(*[entries] * rs.rank)] * rs.rank)
    return tuple(WeylElement(m, d, w) for m, d, w in zip(mats, group.dets.tolist(), group.words))


def _scaled(rs: RootSystem, vs: Sequence[Vec]) -> tuple[np.ndarray, int]:
    """Exact vectors as an int64 (m, n) array of numerators over the lcm d
    of all their denominators, and d; ValueError when the image of one of
    them under a group matrix or its transpose could leave int64: each
    entry is a coroot coefficient, at most the largest dual mark."""
    d = math.lcm(*(c.denominator for v in vs for c in v))
    ints = [[c.numerator * (d // c.denominator) for c in v] for v in vs]
    for v, row in zip(vs, ints):
        if max(map(abs, row)) * rs.rank * max(rs._dual_marks) >= 2 ** 63:
            raise ValueError(f"{_vec_str(v)} is too large for exact int64 arithmetic")
    return np.array(ints, dtype=np.int64), d


def _distinct(rows: np.ndarray, weights: np.ndarray | None = None):
    """The distinct rows of an integer array in lexicographic order, as from
    np.unique(rows, axis=0), whose first call in a process imports numpy.ma;
    given weights, also the sum of the weights of the copies of each row."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if weights is None:
        return rows[first]
    return rows[first], np.add.reduceat(weights[order], np.flatnonzero(first))


def _unscaled(rows: np.ndarray, d: int) -> list[Vec]:
    """Integer rows over the denominator d as exact vectors."""
    rows = rows.tolist()
    frac = {c: Fraction(c, d) for c in set(itertools.chain.from_iterable(rows))}
    return [tuple(map(frac.__getitem__, row)) for row in rows]


@dataclass(frozen=True)
class DominantForm:
    weight: Vec
    sign: int
    on_wall: bool


def to_dominant(rs: RootSystem, x: Sequence) -> DominantForm:
    """Dominant representative of the W-orbit of x, with the det of the map:
    the one-row case of ``_dominant_forms``, in Python ints at any size."""
    xv = rank_vec(rs, x)
    d = math.lcm(*(c.denominator for c in xv))
    row = np.array([[c.numerator * (d // c.denominator) for c in xv]], dtype=object)
    (dom,), (sign,), D = _dominant_forms(rs, (0,) * rs.rank, row, d)
    return DominantForm(tuple(Fraction(c, D) for c in dom), int(sign), 0 in dom.tolist())


def _dominant_forms(rs: RootSystem, beta: Vec, rows: np.ndarray,
                    d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The dominant forms of the points beta + row / d, in the dtype of
    rows, over the lcm D of d and beta's denominators, their signs, and D.
    Each round, every row that still has a negative coordinate reflects in
    its most negative one (lowest index on ties), and its sign flips.  Every
    row met is a group image of its start, so int64 rows past the bound of
    ``_scaled`` are refused; Python ints (object dtype) are exact."""
    (b,), db = _scaled(rs, [beta])
    D = math.lcm(d, db)
    top = int(np.abs(b).max()) * (D // db) + int(np.abs(rows).max()) * (D // d)
    if rows.dtype != object and max(top, D) * rs.rank * max(rs._dual_marks) >= 2 ** 63:
        raise ValueError(f"{_vec_str(beta)} shifted by points over the denominator {d} "
                         f"is too large for exact int64 arithmetic")
    x = rows * (D // d) + b.astype(rows.dtype) * (D // db)
    cartan = np.array([[int(c) for c in row] for row in rs.cartan], dtype=np.int64)
    signs = np.ones(len(x), dtype=np.int64)
    live = np.arange(len(x))
    while len(live):
        j = x[live].argmin(axis=1)
        xj = x[live, j]
        neg = xj < 0
        live, j, xj = live[neg], j[neg], xj[neg]
        x[live] -= xj[:, None] * cartan[j]
        signs[live] *= -1
    return x, signs, D


def _dominant_vec(rs: RootSystem, lam: Sequence) -> Vec:
    """lam as an exact rank vector; ValueError unless it is dominant."""
    lamv = rank_vec(rs, lam)
    if not is_dominant(lamv):
        raise ValueError(f"{_vec_str(lamv)} is not dominant for {rs.id.label}; "
                         f"orbits need a dominant weight")
    return lamv


def _strict_vec(rs: RootSystem, lam: Sequence) -> Vec:
    """lam as an exact rank vector; ValueError unless it is dominant,
    WallError if it is dominant but lies on a wall."""
    lamv = rank_vec(rs, lam)
    if not is_strictly_dominant(lamv):
        if not is_dominant(lamv):
            raise ValueError(f"{_vec_str(lamv)} is not dominant for {rs.id.label}; "
                             f"signed orbits need a strictly dominant weight")
        raise WallError(f"{_vec_str(lamv)} lies on a wall of the {rs.id.label} "
                        f"chamber; signed orbits need strict dominance")
    return lamv


def _strict_rows(rs: RootSystem, lamvs) -> tuple[np.ndarray, int]:
    """Strictly dominant weights, exact vectors or an integer array, as
    integer rows over the lcm dp of all their denominators, and dp: int64
    while every image under the group stays in int64 (the bound of
    ``_scaled``), Python ints (object dtype) past it.  Otherwise each
    weight is checked alone, as ``signed_orbit`` checks it, and the first
    bad one raises: the ValueError or WallError of ``_strict_vec``, or the
    int64 bound at its own denominator."""
    limit = 2 ** 63 // (rs.rank * max(rs._dual_marks))
    if isinstance(lamvs, np.ndarray):   # integer rows over 1
        if lamvs.min() > 0 and int(lamvs.max()) < limit:
            return lamvs.astype(np.int64, copy=False), 1
        lamvs = lamvs.tolist()   # ints are their own numerators
    dp = math.lcm(*(c.denominator for v in lamvs for c in v))
    ints = [[c.numerator * (dp // c.denominator) for c in v] for v in lamvs]
    if min(map(min, ints)) > 0 and max(map(max, ints)) < limit:
        return np.array(ints, dtype=np.int64), dp
    for v in lamvs:
        _scaled(rs, [_strict_vec(rs, v)])
    return np.array(ints, dtype=object), dp


def _images(rs: RootSystem, lamv: Vec) -> tuple[np.ndarray, np.ndarray, int]:
    """d * w lam as int64 rows for every w of the group, in its order (the
    identity first), the dets of the w, and the lcm d of lam's denominators."""
    group = _group(rs)
    v, d = _scaled(rs, [lamv])
    return group.mats @ v[0], group.dets, d


def _orbit_rows(rs: RootSystem, lam: Sequence) -> tuple[np.ndarray, int]:
    """The distinct points of the W-orbit of a dominant weight as sorted
    int64 rows over the lcm d of its denominators, and d."""
    rows, _, d = _images(rs, _dominant_vec(rs, lam))
    return _distinct(rows), d


def orbit(rs: RootSystem, lam: Sequence) -> list[Vec]:
    """Distinct points of the W-orbit of a dominant weight, sorted."""
    return _unscaled(*_orbit_rows(rs, lam))


def _parabolic_order(rs: RootSystem, walls: int) -> int:
    """|W_J| for J the simple roots in the bit mask walls: prod (ht alpha +
    1) / ht alpha over the positive roots alpha supported on J, Macdonald's
    Poincare series of W_J at t = 1 (Math. Ann. 199 (1972) 161)."""
    heights = [h for h, support in rs._root_heights.values() if not support & ~walls]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def stabilizer_order(rs: RootSystem, lam: Sequence) -> int:
    """|W_lam| = #{w in W : w lam = lam} for any weight lam: that of its
    dominant form, the parabolic subgroup of the walls it lies on
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1990, Thm 1.12)."""
    lamv = rank_vec(rs, lam)
    lamv = lamv if is_dominant(lamv) else to_dominant(rs, lamv).weight
    return _parabolic_order(rs, sum(1 << i for i, c in enumerate(lamv) if c == 0))


@dataclass(frozen=True, eq=False)
class SignedOrbit:
    """{(w lam, det w) : w in W} as int64 rows scale * w lam and the dets,
    in the order of the group; ``points`` is its exact view."""
    dominant: Vec
    rows: np.ndarray
    dets: np.ndarray
    scale: int

    @functools.cached_property
    def points(self) -> tuple[tuple[Vec, int], ...]:
        return tuple(zip(_unscaled(self.rows, self.scale), self.dets.tolist()))


def signed_orbit(rs: RootSystem, lam: Sequence) -> SignedOrbit:
    """The full signed orbit {(w lam, det w) : w in W} of a strictly dominant
    lam, in the order of ``generate_group``.

    A weight that is not dominant raises ValueError, a dominant one on a
    wall WallError.
    """
    lamv = _strict_vec(rs, lam)
    return SignedOrbit(lamv, *_images(rs, lamv))


# -- affine reflection and the fundamental domain -----------------------

def xi_pairing(rs: RootSystem, x: Sequence) -> Fraction:
    """<x, xi> = sum_i x_i q_i for x in omega coordinates."""
    return sum(c * q for c, q in zip(rank_vec(rs, x), rs.comarks))


def reflect_highest_root(rs: RootSystem, x: Sequence) -> Vec:
    xv = rank_vec(rs, x)
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
    xv = rank_vec(rs, x)
    level = xi_pairing(rs, xv)
    if any(c < 0 for c in xv) or level > 1:
        return "outside"
    if all(c > 0 for c in xv) and level < 1:
        return "interior"
    return "boundary"


# -- positive roots ------------------------------------------------------

def positive_roots(rs: RootSystem) -> tuple[Vec, ...]:
    """All positive roots in omega coordinates, sorted: found once per root
    system from its Cartan matrix, without the group, and kept with it
    (``RootSystem._positive_roots``)."""
    return rs._positive_roots


def positive_root_count(rs: RootSystem) -> int:
    return len(positive_roots(rs))


def highest_short_root(rs: RootSystem) -> Vec:
    """The unique dominant root of minimal length, in omega coordinates
    (equals the highest root for simply-laced diagrams)."""
    return min((r for r in positive_roots(rs) if is_dominant(r)), key=lambda r: inner(rs, r, r))


def dual_marks(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients of the highest-short-root coroot in the coroot basis.

    These drive the label-side alcove constraint of the discrete
    transforms: a weight lambda pairs integrally with the refined torus
    of F_M exactly when sum lambda_i * dual_marks_i falls in M Z.  They
    are the marks of the dual diagram, so B and C swap them, F4 and G2
    reverse them, and on a simply-laced diagram they are the marks.
    """
    return rs._dual_marks


# -- orthogonal-coordinate group action for A/B/C/D ---------------------

def orth_action(rs: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """The group acting on orthogonal coordinates (A/B/C/D): read-only int
    arrays perm and signs of shape (|W|, r), in the order of the group,
    with (w m)_i = signs_i * m[perm_i]; det w is ``_group(rs).dets``.

    Both are read off the images of the generic m = (r, r-1, ..., 1): each
    is taken to omega coordinates, moved by every matrix and brought back
    by the omega -> orthogonal map scaled to integers by the lcm L of its
    denominators (on A plus the constant of the zero-sum gauge), so that
    its i-th coordinate is signs_i * L * (r - perm_i).
    """
    r = orth_dim(rs)
    group = _group(rs)
    if group.orth is None:
        m = np.arange(r, 0, -1)
        cols = _orth_basis(rs)
        scale = math.lcm(*(c.denominator for col in cols for c in col))
        T = np.array([[int(c * scale) for c in col] for col in cols], dtype=np.int64)
        imgs = group.mats @ np.array([int(c) for c in from_orthogonal(rs, m.tolist())]) @ T
        imgs += scale * m - imgs[0]   # the identity maps m to itself
        perm, signs = r - np.abs(imgs) // scale, np.sign(imgs)
        perm.setflags(write=False)
        signs.setflags(write=False)
        group.orth = perm, signs
    return group.orth


def _dominant_rows(family: str, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of t, orthogonal coordinates of the given family
    of any width, that are strictly dominant for it: every omega
    coordinate positive."""
    keep = np.ones(len(t), dtype=bool)
    for col in _omega_cols(family, list(t.T)):
        keep &= col > 0
    return keep
