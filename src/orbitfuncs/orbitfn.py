"""Evaluation of symmetric and antisymmetric orbit functions.

Two evaluation routes are provided and cross-checked by the tests:

* the defining sums over the Weyl group / Weyl orbit, in omega coordinates
  (any diagram) or in orthogonal coordinates (families A, B, C, D);
* closed forms: determinants and permanent-like sums of exponentials,
  sines and cosines in orthogonal coordinates, and the product-over-
  positive-roots formulas for the weight rho.

``eval_batch`` takes the closed form on B, C and D (one n x n det or
permanent per point).  The closed form sums over all of W, so it counts
each orbit point |Stab(lam)| times: on a wall it is the normalized value,
and the symmetric value is it divided by |Stab(lam)|.  On A and G2 it
sums over the orbit.  Both routes work in exact integer exponents: on B,
C, D every entry exp(2 pi i m_i y_j) of the closed form is z_j**K_i with
z_j = exp(2 pi i s y_j), s the gcd of the m_i; on A and G2 every phase is
sum_j K_j s_j x_j, so each term is a product of integer powers of the r
numbers z_j = exp(2 pi i s_j x_j).  The powers come by repeated squaring
from one table per block of points, so a point costs n (or r) base
exponentials, each one a short-angle ``_cis``.

Weights stay exact rationals until the final trigonometric evaluation.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Sequence

import numpy as np

from .rootsys import (
    RootSystem, vec, is_dominant, inner, orth_dim, orth_pairing_scale, rank_vec,
    to_orthogonal,
)
from .weyl import (
    signed_orbit, stabilizer_order, positive_roots, orth_group, orth_apply,
    WallError, _distinct, _dominant_vec, _images, _strict_vec,
)

TWO_PI = 2.0 * math.pi

_KINDS = ("antisymmetric", "symmetric", "normalized")


def _norm_kind(kind: str) -> str:
    k = kind.lower()
    aliases = {"anti": "antisymmetric", "sym": "symmetric", "norm": "normalized"}
    k = aliases.get(k, k)
    if k not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    return k


class NearSingularEvaluationError(ArithmeticError):
    """Character evaluation too close to a zero of the rho function."""


# -- omega-coordinate evaluation -----------------------------------------

def _orbit_terms(rs: RootSystem, kind: str, lamv: tuple) -> tuple[np.ndarray, int, np.ndarray]:
    """The terms of the sum over W as int64 rows d * mu, one per weight mu,
    the denominator d, and the coefficient of each term: det w for every
    w lam (antisymmetric), or 1 (symmetric) or |Stab(lam)| (normalized)
    for every point of the orbit."""
    if kind == "antisymmetric":
        so = signed_orbit(rs, lamv)
        return so.rows, so.scale, so.dets.astype(float)
    rows, _, d = _images(rs, _dominant_vec(rs, lamv))
    pts = _distinct(rows)
    c = 1 if kind == "symmetric" else len(rows) // len(pts)
    return pts, d, np.full(len(pts), float(c))


def _integer_exponents(values: Sequence[Fraction]) -> tuple[Fraction, list]:
    """The step s = gcd of the rationals values (1 if all are 0) and the
    integers K_i = v_i / s, which share no factor."""
    step = Fraction(math.gcd(*(v.numerator for v in values)) or 1,
                    math.lcm(*(v.denominator for v in values)))
    return step, [int(v / step) for v in values]


def _exponent_terms(rs: RootSystem, kind: str, lamv: tuple) -> tuple[list, list, list]:
    """The sum over W in exact integer exponents: steps s_j (Fractions)
    and one row of ints K per term mu with <mu, x> = sum_j K_j s_j x_j,
    plus the integer coefficient of each term.  s_j is the gcd of the
    rationals (mu S)_j over the terms, so the K of a column share no
    factor."""
    rows, d, coeffs = _orbit_terms(rs, kind, lamv)
    exact = rows.astype(object) @ np.array(rs.metric, dtype=object)   # d * mu S
    steps, cols = zip(*(_integer_exponents([Fraction(v) / d for v in col]) for col in exact.T))
    return [list(K) for K in zip(*cols)], list(steps), [int(c) for c in coeffs]


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])   # i**q, indexed by q in -2..2


def _cis(turns: np.ndarray) -> np.ndarray:
    """exp(2 pi i t) for a float array of turns t.  r = t - rint(t), the
    nearest quarter turn q / 4 = rint(4 r) / 4 and f = r - q / 4 are all
    exact, so exp(2 pi i t) = i**q exp(2 pi i f) with |2 pi f| <= pi / 4:
    cos and sin stay on libm's short-argument path (about a third of the
    cost of a large argument), and the rotation by i**q is exact."""
    r = turns - np.rint(turns)
    q = np.rint(4 * r)
    angle = TWO_PI * (r - 0.25 * q)
    z = np.empty(np.shape(turns), dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    z *= _QUARTER_TURNS[q.astype(np.intp)]
    return z


_MAX_POWER = 1 << 12   # larger exponents take one exponential each


def _powers(turns: np.ndarray, ks: set) -> dict:
    """{k: exp(2 pi i k t)} for the integers ks and the turns t.  With z =
    exp(2 pi i t), z**|k| is a product of the repeated squares z**(2**b)
    and z**-|k| its conjugate.  The rounding error of z**|k| grows with
    |k|, so where some |k| exceeds _MAX_POWER (a weight with a large
    denominator, or a large weight) every power is its own exponential,
    as accurate as the phase k * t."""
    mags = sorted({abs(k) for k in ks})
    if mags and mags[-1] > _MAX_POWER:
        out = {a: _cis(a * turns) for a in mags}
    else:
        squares = [_cis(turns)]
        while mags and 1 << len(squares) <= mags[-1]:
            squares.append(squares[-1] * squares[-1])
        out = {a: reduce(mul, [squares[b] for b in range(a.bit_length()) if a >> b & 1])
               if a else np.ones_like(squares[0]) for a in mags}
    out.update({k: np.conj(out[-k]) for k in ks if k < 0})
    return out


_CHUNK = 4096   # points per block of the power-table kernels


def _power_sum(K: list, steps: list, coeffs: list):
    """The function that evaluates the sum over W with exponents K (one
    row per term) at an (N, rank) float array xs: per block of points, r
    exponentials z_j = exp(2 pi i s_j x_j), the powers z_j**K_j of every
    column, and each term as the product of its powers, summed per
    coefficient."""
    steps = np.array([float(s) for s in steps])
    needed = [set(col) - {0} for col in zip(*K)]
    groups: dict = {}
    for row, c in zip(K, coeffs):
        groups.setdefault(c, []).append([(j, k) for j, k in enumerate(row) if k])

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(len(xs), dtype=complex)
        for start in range(0, len(xs), _CHUNK):
            turns = steps[:, None] * xs[start:start + _CHUNK].T
            tables = [_powers(t, ks) for t, ks in zip(turns, needed)]
            block = out[start:start + _CHUNK]
            for c, terms in groups.items():
                total = np.zeros(len(block), dtype=complex)
                for factors in terms:      # no factors: the weight 0
                    total += reduce(mul, (tables[j][k] for j, k in factors)) if factors else 1
                block += c * total
        return out
    return evaluate


def _closed_form_terms(rs: RootSystem, kind: str, lamv: tuple) -> tuple[list, np.ndarray, float]:
    """The exponents K_i = m_i / s of m = lam in orthogonal coordinates,
    s the gcd of the m_i, the map T from the omega coordinates of a point
    x to the turns s y_j, y = m(x) / orth_pairing_scale, so that
    <mu, x> = sum_i m_i(mu) y_i (both exact, then float), and the factor
    1/|Stab(lam)| of the symmetric kind."""
    if kind == "antisymmetric":
        _strict_vec(rs, lamv)
    else:
        _dominant_vec(rs, lamv)
    factor = 1 / stabilizer_order(rs, lamv) if kind == "symmetric" else 1.0
    step, K = _integer_exponents(to_orthogonal(rs, lamv))
    scale = orth_pairing_scale(rs)
    unit = np.eye(rs.rank, dtype=int).tolist()
    T = np.array([[float(step * c / scale) for c in to_orthogonal(rs, e)] for e in unit])
    return K, T, factor


def _closed_form_sum(fam: str, kind: str, K: list, T: np.ndarray, factor: float):
    """The function that evaluates the closed form with exponents K at an
    (N, rank) float array xs: per block of points, n exponentials z_j =
    exp(2 pi i s y_j) and the entries exp(2 pi i m_i y_j) = z_j**K_i from
    their powers."""
    ks = set(K)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs), dtype=complex)
        for start in range(0, len(xs), _CHUNK):
            table = _powers(xs[start:start + _CHUNK] @ T, ks)
            E = np.stack([table[k] for k in K], axis=-2)
            out[start:start + _CHUNK] = factor * _closed_form(fam, kind, E)
        return out
    return evaluate


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _BoundedCache(OrderedDict):
    """A mapping that keeps its maxsize most recently used entries and
    counts hits and misses, with the cache_info() of functools.lru_cache."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize
        self.hits = self.misses = 0

    def lookup(self, key, make):
        """The entry of key; on a miss make() is stored under it, and the
        least recently used entry goes if there are more than maxsize."""
        if key in self:
            self.hits += 1
            self.move_to_end(key)
            return self[key]
        self.misses += 1
        value = self[key] = make()
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self))

    def clear(self) -> None:
        super().clear()
        self.hits = self.misses = 0


# entries per cache; a pass of the evaluate bench workload sends 20 keys
_CACHE_SIZE = 128

_TERMS_CACHE = _BoundedCache(_CACHE_SIZE)


def _evaluator(rs: RootSystem, kind: str, lamv: tuple):
    """The cached evaluation of one (diagram, kind, weight) at an (N, rank)
    float array: the closed form on B, C, D, the power-table sum on A and
    G2."""
    def make():
        if rs.family in ("B", "C", "D"):
            return _closed_form_sum(rs.family, kind, *_closed_form_terms(rs, kind, lamv))
        return _power_sum(*_exponent_terms(rs, kind, lamv))
    return _TERMS_CACHE.lookup((rs.id, kind, lamv), make)


def eval_orbit_function(rs: RootSystem, kind: str, lam: Sequence, x: Sequence) -> complex:
    """Orbit function at a single point x given in omega coordinates.

    antisymmetric: sum over W of det(w) exp(2 pi i <w lam, x>)
    symmetric:     sum over the orbit of exp(2 pi i <mu, x>)
    normalized:    |W_lam| times the symmetric value
    """
    return complex(eval_batch(rs, kind, lam, np.asarray([list(map(float, x))]))[0])


def _float_points(rs: RootSystem, xs, dim: int, what: str = "point") -> np.ndarray:
    """xs as an (N, dim) float array; ValueError naming the diagram for
    another shape or for a row (a point, or a weight) with a non-finite
    coordinate."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ValueError(f"expected {dim} coordinates per {what} for "
                         f"{rs.id.label}, got an array of shape {xs.shape}")
    finite = np.isfinite(xs)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"{what} {i} is not finite for {rs.id.label}: {xs[i].tolist()}")
    return xs


def eval_batch(rs: RootSystem, kind: str, lam: Sequence, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at an (N, rank) array of omega coordinates;
    returns a complex (N,) array.

    B, C and D take the closed form of :func:`closed_form_orth`; it sums
    over all of W, so on a wall it is the normalized value and the
    symmetric value is it divided by |Stab(lam)|.  Its entries are exact
    integer powers of n exponentials per point.  A and G2 take the sum
    over W (or the orbit) from power tables: r exponentials per point,
    and every term a product of their exact integer powers.  A weight or
    point of the wrong length, a non-finite point or a weight that is not
    dominant raise ValueError; an antisymmetric weight on a wall raises
    WallError.
    """
    kind = _norm_kind(kind)
    evaluate = _evaluator(rs, kind, rank_vec(rs, lam))
    return np.asarray(evaluate(_float_points(rs, xs, rs.rank)), dtype=complex)


def eval_coroot_point(rs: RootSystem, kind: str, lam: Sequence, b: Sequence):
    """Evaluate at one point, or a sequence of points, given by exact
    coroot-basis coordinates b; returns a complex, or a (G,) array.

    The pairing with a weight in omega coordinates is the plain dot
    product, so every phase is an exact rational k/D.  The group acts by
    integer matrices on omega coordinates, so dp * w lam is integral for dp
    the lcm of the denominators of lam; with db the lcm of those of all of
    b and D = dp * db, k = (dp * w lam) . (db * b) mod D in Python
    integers.  Floats enter only at exp(2 pi i k / D); this is what the
    discrete transforms use.
    """
    kind = _norm_kind(kind)
    lamv = rank_vec(rs, lam)
    pts = np.asarray(b, dtype=object)
    single = pts.ndim == 1 and not any(np.ndim(c) for c in pts)
    shape = f"expected {rs.rank} coordinates per point for {rs.id.label}, got"
    if single:
        pts = np.asarray([rank_vec(rs, b)], dtype=object)
    elif pts.ndim != 2 or pts.shape[1] != rs.rank:
        raise ValueError(f"{shape} an array of shape {pts.shape}")
    rows, dp, coeffs = _orbit_terms(rs, kind, lamv)
    try:
        coords = [Fraction(c) for c in pts.flat]
    except TypeError:  # a nested sequence, or no number at all
        raise ValueError(f"{shape} a coordinate that is not a rational number") from None
    db = math.lcm(*(c.denominator for c in coords))
    D = dp * db
    B = np.array([c.numerator * (db // c.denominator) % D for c in coords],
                 dtype=object).reshape(pts.shape)
    k = (rows.astype(object) @ B.T) % D        # (terms, G) exact numerators
    vals = coeffs @ np.exp(TWO_PI * 1j * (k / D).astype(float))
    return complex(vals[0]) if single else vals


# -- orthogonal-coordinate evaluation (A, B, C, D) -----------------------

_ORTH_CACHE = _BoundedCache(_CACHE_SIZE)


def _orth_terms(rs: RootSystem, kind: str, m: tuple) -> tuple[np.ndarray, np.ndarray]:
    def make():
        imgs, coeffs = [], []
        for p, s, d in orth_group(rs):
            imgs.append([float(v) for v in orth_apply(p, s, m)])
            coeffs.append(float(d) if kind == "antisymmetric" else 1.0)
        return np.array(imgs), np.array(coeffs)
    return _ORTH_CACHE.lookup((rs.id, kind, m), make)


def _orth_weight(rs: RootSystem, m: Sequence) -> tuple:
    """m as exact orthogonal coordinates of rs; ValueError naming the
    diagram for one with no orthogonal model, for a weight of another
    length or for a non-finite coordinate."""
    _float_points(rs, [m], orth_dim(rs), "weight")
    return tuple(Fraction(v) for v in m)


def is_strictly_dominant_orth(rs: RootSystem, m: Sequence) -> bool:
    mv = _orth_weight(rs, m)
    if rs.family == "D":
        return all(mv[i] > mv[i + 1] for i in range(len(mv) - 2)) and mv[-2] > abs(mv[-1])
    decreasing = all(mv[i] > mv[i + 1] for i in range(len(mv) - 1))
    return decreasing if rs.family == "A" else decreasing and mv[-1] > 0


def _strict_orth(rs: RootSystem, m: Sequence) -> tuple:
    """m checked by _orth_weight, as exact coordinates; WallError unless
    it is strictly dominant in orthogonal coordinates."""
    if not is_strictly_dominant_orth(rs, m):
        raise WallError(f"{tuple(m)} is not strictly dominant in orthogonal coordinates")
    return tuple(Fraction(v) for v in m)


def eval_orth(rs: RootSystem, kind: str, m: Sequence, x: Sequence) -> complex:
    """Defining sum in orthogonal coordinates (full Weyl-group sum).

    Requires m strictly dominant in the orthogonal sense, so that the
    group sum and the orbit sum coincide for the symmetric kind too.
    """
    return complex(eval_orth_batch(rs, kind, m, np.asarray([list(map(float, x))]))[0])


def eval_orth_batch(rs: RootSystem, kind: str, m: Sequence, xs: np.ndarray) -> np.ndarray:
    """Vectorized form of :func:`eval_orth` over an (N, dim) array."""
    kind = _norm_kind(kind)
    if kind == "normalized":
        raise ValueError("normalized kind is only defined on omega coordinates")
    imgs, coeffs = _orth_terms(rs, kind, _strict_orth(rs, m))
    xs = _float_points(rs, xs, orth_dim(rs))
    return coeffs @ np.exp(TWO_PI * 1j * (imgs @ xs.T))


def _perm_sum(values: np.ndarray, signed: bool):
    """det (signed) or permanent (unsigned) over the last two axes of an
    array of any batch shape, by the Laplace expansion along the rows:
    the minors of the first i rows on every i-subset of the columns, one
    row at a time, n 2^(n-1) products in all.  A det of n >= 4 on fewer
    than 2^(n+4) matrices is np.linalg.det, which is faster there."""
    values = np.asarray(values)
    n = values.shape[-1]
    if signed and n >= 4 and values.size // (n * n) < 2 ** (n + 4):
        return np.linalg.det(values)
    minors = {1 << j: values[..., 0, j] for j in range(n)}
    for i in range(1, n):
        nxt: dict = {}
        for cols, minor in minors.items():
            for j in range(n):
                if cols >> j & 1:
                    continue
                term = minor * values[..., i, j]
                if signed and (cols >> j).bit_count() % 2:   # odd inversions
                    term = -term
                key = cols | 1 << j
                if key in nxt:
                    nxt[key] += term
                else:
                    nxt[key] = term
        minors = nxt
    return minors[(1 << n) - 1]


def _closed_form(fam: str, kind: str, E: np.ndarray):
    """The sum over W of (det w for the antisymmetric kind times)
    exp(2 pi i <w m, y>) in orthogonal coordinates, by its determinant or
    permanent form, from the entries E_ij = exp(i theta_ij), theta_ij =
    2 pi m_i y_j, at points of any batch shape (..., n, n): cos theta is
    E.real and sin theta is E.imag.

    A: det/perm E;  B, C: (2i)^n det sin theta (antisymmetric) or 2^n
    perm cos theta;  D: 2^(n-1) perm cos theta + (2i)^n perm sin theta / 2,
    with det in place of perm for the antisymmetric kind.
    """
    signed = kind == "antisymmetric"
    n = E.shape[-1]
    if fam == "A":
        return _perm_sum(E, signed)
    if fam in ("B", "C"):
        if signed:
            return (2j) ** n * _perm_sum(E.imag, True)
        return 2 ** n * _perm_sum(E.real, False)
    value = 2 ** (n - 1) * _perm_sum(E.real, signed)
    if not E.imag[..., -1, :].any():  # m_n = 0: the sine part vanishes
        return value
    return value + (2j) ** n / 2 * _perm_sum(E.imag, signed)


def closed_form_orth(rs: RootSystem, kind: str, m: Sequence, x: Sequence) -> complex:
    """Determinant / permanent closed forms in orthogonal coordinates at
    one point: the one-point case of the body eval_batch uses on B, C, D."""
    kind = _norm_kind(kind)
    mv = np.array([float(v) for v in _strict_orth(rs, m)])
    xv = _float_points(rs, [x], len(mv))[0]
    return complex(_closed_form(rs.family, kind, _cis(np.multiply.outer(mv, xv))))


# -- rho products ---------------------------------------------------------

def rho_products(rs: RootSystem, x: Sequence) -> tuple[complex, complex]:
    """(antisymmetric, symmetric) rho functions as products over positive
    roots: (2i)^r prod sin(pi <alpha,x>) and 2^r prod cos(pi <alpha,x>).
    A point of the wrong length or a non-finite one raises ValueError."""
    pos = positive_roots(rs)
    S = rs.metric
    n = rs.rank
    xv = _float_points(rs, [x], n)[0]
    sines, cosines = 1.0, 1.0
    for alpha in pos:
        arow = np.array([float(sum(alpha[i] * S[i][j] for i in range(n)))
                         for j in range(n)])
        ang = math.pi * float(arow @ xv)
        sines *= math.sin(ang)
        cosines *= math.cos(ang)
    r = len(pos)
    return (2j) ** r * sines, (2 ** r) * cosines


def rho_cosine_orbit_decomposition(rs: RootSystem) -> dict:
    """Exact expansion of 2^r prod cos(pi <alpha,x>) into symmetric orbit
    functions, as {dominant label: integer coefficient}.

    The product is prod over positive roots of (e^(alpha/2) + e^(-alpha/2))
    = e^rho prod (1 + e^-alpha); it is multiplied out one root at a time
    into a dict of exponents, and the dominant ones give the coefficients.
    The leading term is the rho orbit with coefficient 1; for rank >= 2
    lower orbits appear as well, so the product is *not* equal to the rho
    orbit sum alone.
    """
    counts = {rs.rho: 1}
    for alpha in positive_roots(rs):
        nxt = dict(counts)
        for e, c in counts.items():
            lower = tuple(a - b for a, b in zip(e, alpha))
            nxt[lower] = nxt.get(lower, 0) + c
        counts = nxt
    coeffs = {lab: c for lab, c in sorted(counts.items()) if is_dominant(lab)}
    assert coeffs[rs.rho] == 1
    return coeffs


def rho_orth(rs: RootSystem):
    """rho in the orthogonal coordinate models."""
    n = rs.rank
    return {
        "A": tuple(Fraction(k) for k in range(n, -1, -1)),
        "B": tuple(Fraction(2 * k - 1, 2) for k in range(n, 0, -1)),
        "C": tuple(Fraction(k) for k in range(n, 0, -1)),
        "D": tuple(Fraction(k) for k in range(n - 1, -1, -1)),
    }[rs.family]


def rho_products_orth(rs: RootSystem, x: Sequence) -> tuple[complex, complex]:
    """Per-family products for the rho functions in orthogonal coordinates.

    For A_n the formulas hold on the zero-sum hyperplane.
    """
    fam, n = rs.family, rs.rank
    xv = _float_points(rs, [x], orth_dim(rs))[0].tolist()
    sin, cos = math.sin, math.cos
    pi = math.pi
    if fam == "A":
        r = n * (n + 1) // 2
        s = c = 1.0
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                s *= sin(pi * (xv[i] - xv[j]))
                c *= cos(pi * (xv[i] - xv[j]))
        return (2j) ** r * s, 2 ** r * c
    s = c = 1.0   # B, C, D: orth_dim refused every other family
    for i in range(n):
        for j in range(i + 1, n):
            s *= sin(pi * (xv[i] - xv[j])) * sin(pi * (xv[i] + xv[j]))
            c *= cos(pi * (xv[i] - xv[j])) * cos(pi * (xv[i] + xv[j]))
    r = n * (n - 1)
    if fam in ("B", "C"):
        r += n
        for i in range(n):
            ang = pi * xv[i] if fam == "B" else 2 * pi * xv[i]
            s *= sin(ang)
            c *= cos(ang)
    return (2j) ** r * s, 2 ** r * c


# -- characters and dimensions -------------------------------------------

def character(rs: RootSystem, lam: Sequence, x: Sequence,
              threshold: float = 1e-12) -> complex:
    """Weyl character: the ratio of the shifted and unshifted rho-type
    antisymmetric orbit functions."""
    lamv = vec(lam)
    if not is_dominant(lamv) or any(c.denominator != 1 for c in lamv):
        raise ValueError("character needs a dominant integral weight")
    shifted = tuple(c + 1 for c in lamv)
    denom = eval_orbit_function(rs, "antisymmetric", rs.rho, x)
    if abs(denom) < threshold:
        raise NearSingularEvaluationError(
            f"|rho function| = {abs(denom):.2e} at x={tuple(x)}; perturb x "
            f"or use dimension() for the x -> 0 limit")
    return eval_orbit_function(rs, "antisymmetric", shifted, x) / denom


def character_highprec(rs: RootSystem, lam: Sequence, x: Sequence, dps: int = 60) -> complex:
    """Character by the defining ratio in arbitrary precision.

    Near x = 0 both orbit sums are ~ |x|^r while their terms are O(1), so
    double precision loses everything to cancellation; this path keeps
    enough digits to take the limit numerically.  x must be rational.
    """
    import mpmath as mp

    xv = vec(x)
    lamv = vec(lam)
    shifted = tuple(c + 1 for c in lamv)

    def anti(mu):
        with mp.workdps(dps):
            total = mp.mpc(0)
            for p, s in signed_orbit(rs, mu).points:
                phase = inner(rs, p, xv)
                total += s * mp.expjpi(2 * mp.mpf(phase.numerator) / phase.denominator)
            return total

    with mp.workdps(dps):
        val = anti(shifted) / anti(rs.rho)
        return complex(val)


def dimension(rs: RootSystem, lam: Sequence) -> int:
    """Product formula for the x -> 0 limit of the character, exactly."""
    lamv = vec(lam)
    if not is_dominant(lamv) or any(c.denominator != 1 for c in lamv):
        raise ValueError("dimension needs a dominant integral weight")
    shifted = tuple(c + 1 for c in lamv)
    total = Fraction(1)
    for alpha in positive_roots(rs):
        total *= inner(rs, shifted, alpha) / inner(rs, rs.rho, alpha)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral dimension {total} for {lamv}")
    return int(total)


# -- generating-function identities for the A family ---------------------

def vandermonde(v: Sequence) -> Fraction:
    vv = [Fraction(c) for c in v]
    out = Fraction(1)
    for i in range(len(vv)):
        for j in range(i + 1, len(vv)):
            out *= vv[i] - vv[j]
    return out


def _staircase(k: int) -> tuple:
    return tuple(range(k - 1, -1, -1))


def partitions(total: int, parts: int):
    """Weakly decreasing nonnegative integer tuples with the given sum."""
    def rec(rest, maxpart, k):
        if k == 0:
            if rest == 0:
                yield ()
            return
        for first in range(min(rest, maxpart), -1, -1):
            if first * k < rest:
                break
            for tail in rec(rest - first, first, k - 1):
                yield (first,) + tail
    yield from rec(total, total, parts)


def det_powers(m: Sequence[int], ys: Sequence) -> complex:
    """det(y_j ** m_i): the antisymmetrized multivariate power sum."""
    grid = np.array([[complex(y) ** int(mi) for y in ys] for mi in m])
    return _perm_sum(grid, signed=True)


def an_identity(check: str, **params) -> float:
    """Evaluate one of the A-family identities; returns |LHS - RHS|.

    Exact finite identities (``cha5``, ``cha6``, ``cha7``) are computed in
    integer arithmetic and return exactly 0.0 on success.  The series
    identities (``R1``, ``cauchy``, ``cha3``, ``cha4``) are truncated at
    total degree ``K`` and need max(|y|,|z|,|t|) < 1.
    """
    check = check.lower().replace("-", "")
    if check == "cha5":
        s, r, m = params["s"], params["r"], params["m"]
        rho_s, rho_r = _staircase(s), _staircase(r)
        lhs = sum(
            vandermonde([a + b for a, b in zip(mm, rho_s)])
            * vandermonde([a + b for a, b in zip(mm + (0,) * (r - s), rho_r)])
            for mm in partitions(m, s))
        rhs = (Fraction(math.factorial(s * r + m - 1),
                        math.factorial(s * r - 1) * math.factorial(m))
               * vandermonde(rho_s) * vandermonde(rho_r))
        return float(abs(lhs - rhs))
    if check in ("cha6", "cha7"):
        n, m = params["n"], params["m"]
        rho = _staircase(n)
        if check == "cha6":
            labels = [tuple(2 * a for a in mm) for mm in partitions(m, n)]
            d = n * (n + 1) // 2
        else:
            nu = n // 2
            labels = []
            for mm in partitions(m, nu):
                doubled = tuple(itertools.chain.from_iterable((a, a) for a in mm))
                labels.append(doubled + (0,) * (n - 2 * nu))
            d = n * (n - 1) // 2
        lhs = sum(vandermonde([a + b for a, b in zip(lab, rho)]) for lab in labels)
        rhs = (Fraction(math.factorial(d + m - 1),
                        math.factorial(d - 1) * math.factorial(m))
               * vandermonde(rho))
        return float(abs(lhs - rhs))
    if check in ("r1", "cauchy"):
        ys = [complex(v) for v in params["y"]]
        zs = [complex(v) for v in params["z"]]
        K = params.get("K", 12)
        if max(max(abs(v) for v in ys), max(abs(v) for v in zs)) >= 1:
            raise ValueError("series identity needs |y_i|, |z_j| < 1")
        n1, n2 = len(ys), len(zs)
        if n1 > n2:
            raise ValueError("give the shorter tuple first")
        rho1, rho2 = _staircase(n1), _staircase(n2)
        rhs = 0j
        for total in range(K + 1):
            for mm in partitions(total, n1):
                mhat = mm + (0,) * (n2 - n1)
                rhs += (det_powers([a + b for a, b in zip(mm, rho1)], ys)
                        * det_powers([a + b for a, b in zip(mhat, rho2)], zs))
        if check == "r1":
            lhs = det_powers(rho1, ys) * det_powers(rho2, zs)
            for yi in ys:
                for zj in zs:
                    lhs /= (1 - yi * zj)
        else:
            if n1 != n2:
                raise ValueError("the determinant identity needs len(y) == len(z)")
            grid = np.array([[1.0 / (1 - yi * zj) for zj in zs] for yi in ys])
            lhs = _perm_sum(grid, signed=True)
        return abs(lhs - rhs)
    if check in ("cha3", "cha4"):
        ys = [complex(v) for v in params["y"]]
        t = complex(params.get("t", 1.0))
        K = params.get("K", 12)
        n = len(ys)
        rho = _staircase(n)
        rhs = 0j
        if check == "cha3":
            for total in range(K + 1):
                for mm in partitions(total, n):
                    lab = [2 * a + b for a, b in zip(mm, rho)]
                    rhs += det_powers(lab, ys) * t ** total
            lhs = det_powers(rho, ys)
            for i in range(n):
                for j in range(i, n):
                    lhs /= (1 - t * ys[i] * ys[j])
        else:
            nu = n // 2
            for total in range(K + 1):
                for mm in partitions(total, nu):
                    doubled = tuple(itertools.chain.from_iterable((a, a) for a in mm))
                    doubled += (0,) * (n - 2 * nu)
                    lab = [a + b for a, b in zip(doubled, rho)]
                    rhs += det_powers(lab, ys) * t ** total
            lhs = det_powers(rho, ys)
            for i in range(n):
                for j in range(i + 1, n):
                    lhs /= (1 - t * ys[i] * ys[j])
        return abs(lhs - rhs)
    raise ValueError(f"unknown identity {check!r}")
