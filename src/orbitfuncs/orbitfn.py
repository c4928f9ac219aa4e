"""Evaluation of symmetric and antisymmetric orbit functions.

Two evaluation routes are provided and cross-checked by the tests:

* the defining sums over the Weyl group / Weyl orbit, in omega coordinates
  (any diagram) or in orthogonal coordinates (families A, B, C, D), where
  the same group array acts by signed permutations (``weyl.orth_action``);
* closed forms: determinants and permanent-like sums of exponentials,
  sines and cosines in orthogonal coordinates, and the product-over-
  positive-roots formulas for the weight rho.

``eval_batch`` takes the closed form on B, C and D (one n x n det or
permanent per point).  The closed form sums over all of W, so it counts
each orbit point |Stab(lam)| times: on a wall it is the normalized value,
and the symmetric value is it divided by |Stab(lam)|.  On A, G2, E and F
it sums over the orbit.  Both routes work in exact integer exponents: on
B, C, D every entry exp(2 pi i m_i y_j) of the closed form is z_j**K_i
with z_j = exp(2 pi i s y_j), s the gcd of the m_i; elsewhere every phase is
sum_j K_j s_j x_j, so each term is a product of integer powers of the r
numbers z_j = exp(2 pi i s_j x_j).  The powers come by repeated squaring
from one table per block of points, so a point costs n (or r) base
exponentials, each one ``_cis`` value.  The closed form reads its tables
batch-last, every entry a contiguous row.  The orbit sum is Horner over a
prefix tree of its exponent rows, one product per distinct prefix, and
where the rows are closed under K -> -K (always when -1 is in W) it sums
half of them and takes twice the real or the imaginary part, which then
comes out real or purely imaginary exactly.

Weights stay exact rationals until ``_cis``, the one kernel of every float
phase in the package but the textbook ``transforms._dct_dst_data`` tables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np

from .rootsys import (
    RootSystem, vec, is_dominant, inner, orth_dim, orth_pairing_scale, rank_vec,
    to_orthogonal, _BoundedCache, _omega_cols, _orth_basis, _rational, _vec_str,
)
from .weyl import (
    signed_orbit, stabilizer_order, positive_roots, orth_action, WallError,
    _check_group_size, _distinct, _dominant_vec, _group, _orbit_rows, _strict_rows, _strict_vec,
)

TWO_PI = 2.0 * math.pi

_KINDS = ("antisymmetric", "symmetric", "normalized")


def _norm_kind(kind: str) -> str:
    k = kind.lower() if isinstance(kind, str) else None   # None is refused below
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
    pts, d = _orbit_rows(rs, lamv)
    c = 1 if kind == "symmetric" else stabilizer_order(rs, lamv)
    return pts, d, np.full(len(pts), float(c))


def _integer_exponents(values: Sequence[Fraction]) -> tuple[Fraction, list]:
    """The step s = gcd of the rationals values (1 if all are 0) and the
    integers K_i = v_i / s, which share no factor."""
    step = Fraction(math.gcd(*(v.numerator for v in values)) or 1,
                    math.lcm(*(v.denominator for v in values)))
    return step, [int(v / step) for v in values]


#: Bound below which every integer of an exact pairing is a float
_EXACT_FLOAT = 2 ** 53


def _numerators(values: Sequence) -> tuple[np.ndarray, int]:
    """Rationals as Python ints (object dtype) over the lcm L of their denominators, and L."""
    ratios = [c.as_integer_ratio() for c in values]
    L = math.lcm(*{q for _, q in ratios})
    return np.array([p * (L // q) for p, q in ratios], dtype=object), L


def _pairing(rows: np.ndarray, d: int, values) -> tuple[np.ndarray, int]:
    """The exact pairings (row / d) . v of the integer rows over d with the
    vectors v whose exact coordinates are values (an integer array is its
    own), n = rows.shape[1] per vector, one vector after another: the
    integer numerators P, one row per row and one column per v, over
    D = d L, with L the lcm of the denominators of values, and D.

    The rows are paired with L v.  Every partial sum is at most n max|row|
    max|L v|; while that bound and D stay below 2**53, the product is taken
    in int64, where no sum can overflow and P, P mod D and D are exact
    floats, so that P / D rounds as Python's int / int does.  Past the
    bound it is taken in Python ints (object dtype)."""
    ints, L = (values, 1) if isinstance(values, np.ndarray) else _numerators(values)
    n = rows.shape[1]
    top = n * int(np.abs(rows).max(initial=0)) * int(np.abs(ints).max(initial=0))
    dtype = np.int64 if max(top, d * L) < _EXACT_FLOAT else object
    return rows.astype(dtype, copy=False) @ ints.reshape(-1, n).astype(dtype, copy=False).T, d * L


def _exponent_terms(rs: RootSystem, kind: str, lamv: tuple) -> tuple[np.ndarray, list, list]:
    """The sum over W in exact integer exponents: steps s_j (Fractions)
    and one int64 row K per term mu with <mu, x> = sum_j K_j s_j x_j,
    plus the integer coefficient of each term.  s_j is the gcd of the
    rationals (mu S)_j over the terms: with P_j their numerators over one
    denominator D, s_j = gcd(P_j) / D and K_j = P_j / gcd(P_j), which
    share no factor (s_j = 1 and K_j = 0 for a column of zeros)."""
    rows, d, coeffs = _orbit_terms(rs, kind, lamv)
    P, D = _pairing(rows, d, [c for row in rs.metric for c in row])   # mu S; S is symmetric
    gcds = np.gcd.reduce(P, axis=0)
    steps = [Fraction(int(g), D) if g else Fraction(1) for g in gcds]
    K = (P // np.where(gcds == 0, 1, gcds)).astype(np.int64, copy=False)
    return K, steps, [int(c) for c in coeffs]


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])   # i**q, indexed by q in -2..2
_TURN_STEPS = 4096   # table entries per turn, and values per block of _cis
_TURN_TABLE = None   # exp(2 pi i j / 4096) for j = 0..4095, built by the first _cis


def _cis(turns: np.ndarray) -> np.ndarray:
    """exp(2 pi i t) for an array of turns t, of any shape.

    The first call builds the table T[j] = exp(2 pi i j / 4096) from the
    exact turns j / 4096: with r = j / 4096 - rint(j / 4096), the nearest
    quarter turn q / 4 = rint(4 r) / 4 and f = r - q / 4 are exact, so
    T[j] = i**q exp(2 pi i f) with |2 pi f| <= pi / 4, by libm's cos and
    sin on their short-argument path and an exact rotation by i**q.

    Every call reduces each turn exactly, y = 4096 (t - rint t) and k =
    rint y in -2048..2048, and returns T[k mod 4096] (1 + w) for the rest
    a = 2 pi (y - k) / 4096, |a| <= pi / 4096, of the angle: w = (cos a -
    1) + i sin a = a^2 (a^2 / 24 - 1/2) + i a (1 - a^2 / 6), cut off below
    3e-18.  It is formed as T + T w, so that the small correction rounds
    once into T.  The error stays about 2u (u = 2**-53), integer, half and
    quarter turns come out exact, and _cis(-t) == conj(_cis(t)) holds to
    the bit but for the sign of a zero part.  The turns are taken in
    blocks of 4096 of the flattened input, written in place into one
    output array, so that every temporary stays below glibc's mmap
    threshold and no block page-faults on fresh memory."""
    global _TURN_TABLE
    if _TURN_TABLE is None:
        j = np.arange(_TURN_STEPS) / _TURN_STEPS
        r4 = 4.0 * (j - np.rint(j))
        q = np.rint(r4)
        angle = (r4 - q) * (0.25 * TWO_PI)   # TWO_PI * f to the bit: both are exact scalings
        table = np.empty(_TURN_STEPS, dtype=complex)
        np.cos(angle, out=table.real)
        np.sin(angle, out=table.imag)
        table *= _QUARTER_TURNS[q.astype(np.intp)]
        table.flags.writeable = False
        _TURN_TABLE = table
    turns = np.asarray(turns, dtype=float)
    out = np.empty(turns.shape, dtype=complex)
    flat, flat_out = turns.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _TURN_STEPS):
        t = flat[start:start + _TURN_STEPS]
        y = t - np.rint(t)
        y *= _TURN_STEPS
        k = np.rint(y)
        a = y - k
        a *= TWO_PI / _TURN_STEPS
        a2 = a * a
        w = np.empty(a.shape, dtype=complex)
        np.multiply(a2, a2 * (1 / 24) - 0.5, out=w.real)
        np.multiply(a, 1 - a2 * (1 / 6), out=w.imag)
        T = _TURN_TABLE[k.astype(np.intp)]   # a negative k reads from the end
        block = flat_out[start:start + _TURN_STEPS]
        np.multiply(T, w, out=block)
        block += T
    return out


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


def _half_terms(rows: np.ndarray, coeffs: list) -> tuple[np.ndarray, list, int]:
    """The sorted distinct int rows and their coefficients, halved where
    they are exactly closed under K -> -K with c(-K) = sigma c(K): then only
    the rows K >= 0 (lexicographic order) are kept, the zero row at half
    its coefficient, and the sum over all is 2 Re (sigma = 1) or 2i Im
    (sigma = -1) of the sum over those.  Returns rows, coefficients and
    sigma (0 if not closed).  Negation reverses the lexicographic order,
    so the rows are closed when they are their own negated reverse."""
    sigma = 0
    if (rows[::-1] == -rows).all():
        sigma = next((s for s in (1, -1) if coeffs[::-1] == [s * c for c in coeffs]), 0)
    if not sigma:
        return rows, coeffs, 0
    half = len(rows) // 2
    kept = coeffs[half:]
    if len(rows) % 2:   # the middle row is the zero row, its own negative
        kept[0] /= 2
    return rows[half:], kept, sigma


def _prefix_tree(rows: np.ndarray, coeffs: list) -> list:
    """The sorted distinct int rows as a prefix tree over their columns:
    [(k, subtree)] over the distinct values k of the first column, and so
    on down to [(k, c)] over the rows in the last, with their
    coefficients.  It is built from the leaves up, a column at a time,
    each node the slice of the entries below that share its prefix."""
    entries = list(zip(rows[:, -1].tolist(), coeffs))
    change = np.zeros(len(rows), dtype=bool)
    change[0] = True
    starts = []   # the first row of each node, per prefix length 1..r
    for j in range(rows.shape[1] - 1):
        change[1:] |= rows[1:, j] != rows[:-1, j]
        starts.append(np.flatnonzero(change))
    starts.append(np.arange(len(rows)))
    for j in range(rows.shape[1] - 2, -1, -1):
        # the nodes of prefix length j + 1 group the entries of length j + 2
        bounds = np.searchsorted(starts[j + 1], starts[j]).tolist() + [len(entries)]
        entries = [(k, entries[lo:hi]) for k, lo, hi in
                   zip(rows[starts[j], j].tolist(), bounds, bounds[1:])]
    return entries


def _horner(tree: list, tables: list, depth: int = 0) -> tuple:
    """The value of a prefix tree at a block of points: sum over its
    children of z**k times the child's value (z**k c at the last column),
    with tables[j] = {k: z_j**k}.  Returns (a, s, owned) with value s a,
    s = +-1, owned when a is a new array that may be written in place:
    a +-1 leaf is its table row, added or subtracted, and an exponent 0
    multiplies nothing."""
    table, last = tables[depth], depth == len(tables) - 1
    acc = None
    for k, sub in tree:
        if last and sub in (1, -1):
            a, s, owned = table[k], sub, False
        elif last:
            a, s, owned = sub * table[k], 1, True
        else:
            a, s, owned = _horner(sub, tables, depth + 1)
            if k and owned:
                a *= table[k]
            elif k:
                a, owned = a * table[k], True
        if acc is None:
            acc, sign, acc_owned = a, s, owned
        elif acc_owned:
            if s == sign:
                acc += a
            else:
                acc -= a
        else:
            acc, acc_owned = acc + a if s == sign else acc - a, True
    return acc, sign, acc_owned


def _power_sum(K: np.ndarray, steps: list, coeffs: list):
    """The function that evaluates the sum over W with exponents K (one
    row per term) and integer coefficients at an (N, rank) float array xs.

    The terms are prepared once, in exact integers: equal rows merge
    (``weyl._distinct``), the gcd g of the coefficients is divided out
    (and multiplied back once at the end, so that the normalized kind is
    |Stab(lam)| times the symmetric one to the bit), and a sum closed
    under K -> -K keeps half its terms (``_half_terms``).  The kept rows,
    sorted, are the leaves of a prefix tree over the r columns
    (``_prefix_tree``), and the sum is Horner across them (``_horner``):
    sum_k0 z_0**k0 (sum_k1 z_1**k1 (... sum_k c z_{r-1}**k)), one product
    per node with k != 0, that is per distinct prefix, in place of r - 1
    per term.  Per block of points it takes r exponentials z_j = exp(2 pi
    i s_j x_j) and the powers that each column needs."""
    steps = np.array([float(s) for s in steps])
    K, merged = _distinct(np.asarray(K, dtype=np.int64), np.array(coeffs, dtype=np.int64))
    g = math.gcd(*merged.tolist()) or 1
    rows, leaf_coeffs, sigma = _half_terms(K, (merged // g).tolist())
    factor = 2 * g if sigma else g
    # the powers each column needs: every leaf's, and the nonzero ones above
    needed = [set(col) - {0} for col in rows[:, :-1].T.tolist()] + [set(rows[:, -1].tolist())]
    tree = _prefix_tree(rows, leaf_coeffs)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(len(xs), dtype=complex)
        for start in range(0, len(xs), _CHUNK):
            turns = steps[:, None] * xs[start:start + _CHUNK].T
            total, sign, _ = _horner(tree, [_powers(t, ks) for t, ks in zip(turns, needed)])
            scale = sign * factor
            if sigma >= 0:   # sigma = 0 writes both parts
                out.real[start:start + _CHUNK] = scale * total.real
            if sigma <= 0:
                out.imag[start:start + _CHUNK] = scale * total.imag
        return out
    return evaluate


def _closed_form_terms(rs: RootSystem, kind: str, lamv: tuple) -> tuple[list, np.ndarray, float]:
    """The exponents K_i = m_i / s of m = lam in orthogonal coordinates,
    s the gcd of the m_i, the map T from the omega coordinates of a point
    x to the turns s y_j, y = m(x) / orth_pairing_scale, so that
    <mu, x> = sum_i m_i(mu) y_i (both exact, then float), and the factor
    1/|Stab(lam)| of the symmetric kind."""
    (_strict_vec if kind == "antisymmetric" else _dominant_vec)(rs, lamv)
    factor = 1 / stabilizer_order(rs, lamv) if kind == "symmetric" else 1.0
    step, K = _integer_exponents(to_orthogonal(rs, lamv))
    scale = orth_pairing_scale(rs)
    T = np.array([[float(step * c / scale) for c in row] for row in _orth_basis(rs)])
    return K, T, factor


def _closed_form_sum(fam: str, kind: str, K: list, T: np.ndarray, factor: float):
    """The function that evaluates the closed form with exponents K at an
    (N, rank) float array xs: per block of points, the turns s y_j and n
    exponentials z_j = exp(2 pi i s y_j) batch-last, (n, block), so that
    every entry exp(2 pi i m_i y_j) = z_j**K_i is a contiguous row of a
    power table, and the det or permanent reads contiguous (n, n, block)
    real cos and sin parts."""
    ks = set(K)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs), dtype=complex)
        for start in range(0, len(xs), _CHUNK):
            table = _powers((xs[start:start + _CHUNK] @ T).T, ks)

            def part(name: str) -> np.ndarray:   # batch-first view of contiguous rows
                return np.array([getattr(table[k], name) for k in K]).transpose(2, 0, 1)
            out[start:start + _CHUNK] = factor * _closed_form(fam, kind, K, part)
        return out
    return evaluate


# entries per cache; a pass of the evaluate bench workload sends 20 keys
_CACHE_SIZE = 128

_TERMS_CACHE = _BoundedCache(_CACHE_SIZE)


def _evaluator(rs: RootSystem, kind: str, lamv: tuple):
    """The cached evaluation of one (diagram, kind, weight) at an (N, rank)
    float array: the closed form on B, C, D, the power-table sum on A,
    G2, E and F."""
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
    return complex(eval_batch(rs, kind, lam, [x])[0])


def _float_points(rs: RootSystem, xs, dim: int, what: str = "point") -> np.ndarray:
    """xs as an (N, dim) float array, N = 0 for an empty sequence;
    ValueError naming the diagram for another shape, for a row (a point,
    or a weight) that is not dim real numbers in float range, or for one
    with a non-finite coordinate, shown as the caller gave it (numpy reads
    None as NaN), or for a row that is or holds a str or bytes (numpy
    parses them).  Only what numpy does not read as numbers is searched
    for strings, so a numeric array costs nothing more."""
    given = xs
    if not isinstance(xs, np.ndarray):
        try:
            xs = np.asarray(xs)
        except ValueError:   # ragged rows, refused below
            pass
    if not (isinstance(xs, np.ndarray) and xs.dtype.kind in "biuf"):
        for i, row in enumerate(given if np.iterable(given) else ()):
            for cell in row if np.iterable(row) and not isinstance(row, (str, bytes)) else (row,):
                if isinstance(cell, (str, bytes)):
                    raise ValueError(f"{what} {i} holds the string {cell!r}, not a "
                                     f"real number, for {rs.id.label}")
        xs = given
    try:
        xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(_bad_row(rs, given, dim, what)) from None
    if xs.shape == (0,):
        xs = xs.reshape(0, dim)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ValueError(f"expected {dim} coordinates per {what} for "
                         f"{rs.id.label}, got an array of shape {xs.shape}")
    finite = np.isfinite(xs)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        row = ", ".join(map(str, np.asarray(given, dtype=object)[i]))
        raise ValueError(f"{what} {i} is not finite for {rs.id.label}: [{row}]")
    return xs


def _bad_row(rs: RootSystem, xs, dim: int, what: str) -> str:
    """The message for rows that np.asarray cannot make one float array
    of: a ragged or nested row, a non-number, an int beyond float range."""
    for i, row in enumerate(xs):
        try:
            if np.asarray(row, dtype=float).shape == (dim,):
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        return (f"{what} {i} is not {dim} real numbers in float range "
                f"for {rs.id.label}: {row!r}")
    return f"expected {dim} real coordinates per {what} for {rs.id.label}"


def eval_batch(rs: RootSystem, kind: str, lam: Sequence, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at an (N, rank) array of omega coordinates;
    returns a complex (N,) array.

    B, C and D take the closed form of :func:`closed_form_orth`; it sums
    over all of W, so on a wall it is the normalized value and the
    symmetric value is it divided by |Stab(lam)|.  Its entries are exact
    integer powers of n exponentials per point.  A, G2, E and F take the
    sum over W (or the orbit) from power tables: r exponentials per point,
    and every term a product of their exact integer powers.  A weight or
    point of the wrong length, a non-finite point or a weight that is not
    dominant raise ValueError; an antisymmetric weight on a wall raises
    WallError.
    """
    kind = _norm_kind(kind)
    evaluate = _evaluator(rs, kind, rank_vec(rs, lam))
    return np.asarray(evaluate(_float_points(rs, xs, rs.rank)), dtype=complex)


def _weight_stack(lam) -> bool:
    """Whether lam is a stack of weights: a non-empty sequence (or array),
    not a string, whose every item is one too.  Anything else is one
    weight, which rank_vec checks and refuses by name."""
    def seq(x):
        return isinstance(x, (Sequence, np.ndarray)) and not isinstance(x, (str, bytes))
    return seq(lam) and len(lam) > 0 and all(seq(item) for item in lam)


#: Phase values (terms times points) per block of weights of the
#: antisymmetric kernel, at least one weight: a memory bound on the exact
#: table, which is |W| times the size of the values it sums to.
_PHASE_BLOCK = 1 << 16


def _phases(rows: np.ndarray, d: int, b: np.ndarray, db: int) -> np.ndarray:
    """exp(2 pi i <mu, x>) for mu = row / d at x = b / db, by one _cis of the exact phases
    k / D mod D, D = d db."""
    P, D = _pairing(rows, d * db, b)
    return _cis(((P % D) / D).astype(float, copy=False))


def _signed_kernel(rs: RootSystem, lams, b: np.ndarray, db: int) -> np.ndarray:
    """The (L, G) antisymmetric values of the weights lams, exact vectors or an integer array
    checked by ``_strict_rows``, at the points b / db, b an integer (G, rank) array.  A strictly
    dominant orbit is all of W, so the terms of all weights come from one product with the
    group; per block of weights, their phases and one product with the dets."""
    lams, dp = _strict_rows(rs, lams)
    group = _group(rs)
    images = np.einsum("gij,lj->lgi", group.mats, lams)
    dets = group.dets.astype(float)
    W, G = len(dets), len(b)
    per = max(1, _PHASE_BLOCK // max(1, W * G))
    out = np.empty((len(lams), G), dtype=complex)
    for first in range(0, len(lams), per):
        block = images[first:first + per]
        Z = _phases(block.reshape(-1, rs.rank), dp, b, db)
        out[first:first + per] = dets @ Z.reshape(len(block), W, G)
    return out


def eval_coroot_point(rs: RootSystem, kind: str, lam: Sequence, b: Sequence):
    """Evaluate one weight, or a sequence of L weights, at one point, or a
    sequence of G points, given by exact coroot-basis coordinates b;
    returns a complex, a (G,) array for one weight, an (L,) array for one
    point, or an (L, G) array.

    The pairing with a weight in omega coordinates is the plain dot
    product, so every phase is an exact rational k/D.  The group acts by
    integer matrices on omega coordinates, so dp * w lam is integral for dp
    the lcm of the denominators of all the weights; with db the lcm of
    those of all of b and D = dp * db, k = (dp * w lam) . (db * b) mod D.
    The points are converted once.  The antisymmetric kind checks the
    weights once as integer rows over dp and takes all their terms from one
    product with the group (``_signed_kernel``, which ``build_plan`` calls
    with its grid's integers); the other kinds take each weight's orbit.
    Floats enter only at exp(2 pi i k / D).
    """
    kind = _norm_kind(kind)
    stacked = _weight_stack(lam)
    lamvs = [rank_vec(rs, l) for l in lam] if stacked else [rank_vec(rs, lam)]
    pts = np.asarray(b, dtype=object)
    pts = pts.reshape(0, rs.rank) if pts.shape == (0,) else pts   # no points, as in eval_batch
    single = pts.ndim == 1 and not any(np.ndim(c) for c in pts)
    shape = f"expected {rs.rank} coordinates per point for {rs.id.label}, got"
    if single:
        pts = np.asarray([rank_vec(rs, b)], dtype=object)
    elif pts.ndim != 2 or pts.shape[1] != rs.rank:
        raise ValueError(f"{shape} an array of shape {pts.shape}")
    signed = kind == "antisymmetric"   # its weights are checked by _signed_kernel
    terms = [] if signed else [_orbit_terms(rs, kind, l) for l in lamvs]
    try:   # a Fraction, as on a plan's grid, is itself and costs no call
        coords = [c if type(c) is Fraction else _rational(c) for c in pts.ravel().tolist()]
    except (TypeError, ValueError, OverflowError):  # nested, a string, NaN or infinite
        raise ValueError(f"{shape} a coordinate that is not a finite rational number") from None
    nums, db = _numerators(coords)
    nums = nums.reshape(len(pts), rs.rank)
    vals = (_signed_kernel(rs, lamvs, nums, db) if signed else
            np.array([c @ _phases(rows, d, nums, db) for rows, d, c in terms]))
    vals = vals[:, 0] if single else vals
    if stacked:
        return vals
    return complex(vals[0]) if single else vals[0]


# -- orthogonal-coordinate evaluation (A, B, C, D) -----------------------

def _orth_weight(rs: RootSystem, m: Sequence) -> tuple:
    """m as exact orthogonal coordinates of rs; ValueError naming the
    diagram for one with no orthogonal model, for a weight of another
    length, for a non-finite coordinate or for one that is not a real
    number."""
    _float_points(rs, [m], orth_dim(rs), "weight")
    try:
        return tuple(Fraction(v) for v in m)
    except (TypeError, ValueError):
        raise ValueError(f"weight {tuple(m)!r} is not exact real numbers "
                         f"for {rs.id.label}") from None


def is_strictly_dominant_orth(rs: RootSystem, m: Sequence) -> bool:
    """Whether m, in orthogonal coordinates, is strictly dominant: every
    omega coordinate positive."""
    return all(c > 0 for c in _omega_cols(rs.family, _orth_weight(rs, m)))


def _strict_orth(rs: RootSystem, m: Sequence) -> tuple:
    """m checked by _orth_weight, as exact coordinates; WallError naming
    the diagram unless it is strictly dominant in orthogonal coordinates."""
    mv = _orth_weight(rs, m)
    if not all(c > 0 for c in _omega_cols(rs.family, mv)):
        raise WallError(f"{_vec_str(mv)} is not strictly dominant in orthogonal "
                        f"coordinates for {rs.id.label}")
    return mv


def _orth_kind(kind: str) -> str:
    """The kind by its full name; ValueError for the normalized one."""
    if (kind := _norm_kind(kind)) == "normalized":
        raise ValueError("normalized kind is only defined on omega coordinates")
    return kind


def eval_orth(rs: RootSystem, kind: str, m: Sequence, x: Sequence) -> complex:
    """Defining sum in orthogonal coordinates (full Weyl-group sum).

    Requires m strictly dominant in the orthogonal sense, so that the
    group sum and the orbit sum coincide for the symmetric kind too.
    """
    return complex(eval_orth_batch(rs, kind, m, [x])[0])


def eval_orth_batch(rs: RootSystem, kind: str, m: Sequence, xs: np.ndarray) -> np.ndarray:
    """Vectorized form of :func:`eval_orth` over an (N, dim) array."""
    kind = _orth_kind(kind)
    mv = np.array(_strict_orth(rs, m), dtype=float)
    xs = _float_points(rs, xs, orth_dim(rs))
    perm, signs = orth_action(rs)
    terms = _cis((signs * mv[perm]) @ xs.T)
    return _group(rs).dets @ terms if kind == "antisymmetric" else terms.sum(axis=0)


def _perm_sum(values: np.ndarray, signed: bool):
    """det (signed) or permanent (unsigned) over the last two axes of an
    array of any batch shape, by the Laplace expansion along the rows:
    the minors of the first i rows on every i-subset of the columns, one
    row at a time, n 2^(n-1) products in all.  A det of n >= 4 on fewer
    than 2^(n+4) matrices is np.linalg.det, which is faster there.
    ValueError unless the matrices are square: as many labels (rows) as
    coordinates (columns)."""
    values = np.asarray(values)
    if values.ndim < 2 or values.shape[-2] != values.shape[-1]:
        got = (f"{values.shape[-2]} labels and {values.shape[-1]} coordinates"
               if values.ndim >= 2 else f"an array of shape {values.shape}")
        raise ValueError(f"a determinant or permanent needs as many labels (rows) as "
                         f"coordinates (columns), got {got}")
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


def _stab_order(rows) -> np.ndarray:
    """The order of the permutation stabilizer of each row (the last axis)
    of an array, the product of the factorials of its entry
    multiplicities: the product over the entries of each one's rank among
    the equal entries up to it."""
    rows = np.asarray(rows)
    n = rows.shape[-1]
    ranks = ((rows[..., :, None] == rows[..., None, :]) & np.tri(n, dtype=bool)).sum(axis=-1)
    return ranks.prod(axis=-1)


def _closed_form(fam: str, kind: str, m: Sequence, part):
    """The sum over W of (det w for the antisymmetric kind times)
    exp(2 pi i <w m, y>) in orthogonal coordinates, by its determinant or
    permanent form, from the entries E_ij = exp(i theta_ij), theta_ij =
    2 pi m_i y_j, at points of any batch shape (..., n, n): part("real")
    gives cos theta and part("imag") sin theta, each formed only where the
    formula reads it.  m is the weight, or any multiple of it.

    A: det/perm E;  B, C: (2i)^n det sin theta (antisymmetric) or 2^n
    perm cos theta;  D: 2^(n-1) perm cos theta + (2i)^n perm sin theta / 2,
    with det in place of perm for the antisymmetric kind; the sine part
    vanishes where m_n = 0.
    """
    signed = kind == "antisymmetric"
    n = len(m)
    if fam == "A":
        return _perm_sum(part("real") + 1j * part("imag"), signed)
    if fam in ("B", "C"):
        if signed:
            return (2j) ** n * _perm_sum(part("imag"), True)
        return 2 ** n * _perm_sum(part("real"), False)
    value = 2 ** (n - 1) * _perm_sum(part("real"), signed)
    if m[-1] == 0:
        return value
    return value + (2j) ** n / 2 * _perm_sum(part("imag"), signed)


def closed_form_orth(rs: RootSystem, kind: str, m: Sequence, x: Sequence) -> complex:
    """Determinant / permanent closed forms in orthogonal coordinates at
    one point: the one-point case of the body eval_batch uses on B, C, D."""
    kind = _orth_kind(kind)
    mv = np.array([float(v) for v in _strict_orth(rs, m)])
    xv = _float_points(rs, [x], len(mv))[0]
    E = _cis(np.multiply.outer(mv, xv))
    return complex(_closed_form(rs.family, kind, mv, lambda name: getattr(E, name)))


# -- rho products ---------------------------------------------------------

def _root_rows(rs: RootSystem, m: Sequence) -> tuple[np.ndarray, int]:
    """The positive roots (omega coordinates, integral) times the rational
    matrix m, exactly: integer rows over the lcm L of m's denominators, and
    L."""
    pos = np.array([[int(c) for c in alpha] for alpha in positive_roots(rs)], dtype=np.int64)
    return _pairing(pos, 1, [c for col in zip(*m) for c in col])


def _root_products(rs: RootSystem, m: Sequence, x: np.ndarray) -> tuple[complex, complex]:
    """(2i)^R prod sin(pi <alpha, x>) and 2^R prod cos(pi <alpha, x>) over
    the R positive roots alpha, where m takes alpha to the coordinates of
    x, so that <alpha, x> is the dot product (alpha m) . x.  Each float of
    x is an exact rational, so <alpha, x> = P / D is an exact pairing; it
    is reduced mod 2 into [-1, 1) in integers, so that a small angle keeps
    its relative precision, and its half, the turns of exp(i pi <alpha,
    x>), is rounded once."""
    rows, L = _root_rows(rs, m)
    P, D = _pairing(rows, L, [Fraction(c) for c in x.tolist()])
    z = _cis(np.array([((p + D) % (2 * D) - D) / (2 * D) for p in P[:, 0].tolist()]))
    return (2j) ** len(z) * float(np.prod(z.imag)), 2 ** len(z) * float(np.prod(z.real))


def rho_products(rs: RootSystem, x: Sequence) -> tuple[complex, complex]:
    """(antisymmetric, symmetric) rho functions as products over positive
    roots: (2i)^r prod sin(pi <alpha,x>) and 2^r prod cos(pi <alpha,x>).
    A point of the wrong length or a non-finite one raises ValueError."""
    return _root_products(rs, rs.metric, _float_points(rs, [x], rs.rank)[0])


def rho_cosine_orbit_decomposition(rs: RootSystem) -> dict:
    """Exact expansion of 2^r prod cos(pi <alpha,x>) into symmetric orbit
    functions, as {dominant label: integer coefficient}.

    The product is prod over positive roots of (e^(alpha/2) + e^(-alpha/2))
    = e^rho prod (1 + e^-alpha); it is multiplied out one root at a time
    into a dict of exponents, and the dominant ones give the coefficients.
    The leading term is the rho orbit with coefficient 1; for rank >= 2
    lower orbits appear as well, so the product is *not* equal to the rho
    orbit sum alone.  The dict grows with the weights of V(rho), so a
    diagram whose group is larger than ``weyl.DEFAULT_GROUP_LIMIT`` is
    refused with GroupSizeError, although no group is built.
    """
    _check_group_size(rs)
    counts = {(1,) * rs.rank: 1}   # rho, as are all roots, integral in omega
    for alpha in positive_roots(rs):
        alpha = tuple(map(int, alpha))
        nxt = dict(counts)
        for e, c in counts.items():
            lower = tuple(a - b for a, b in zip(e, alpha))
            nxt[lower] = nxt.get(lower, 0) + c
        counts = nxt
    coeffs = {vec(lab): c for lab, c in sorted(counts.items()) if min(lab) >= 0}
    assert coeffs[rs.rho] == 1
    return coeffs


def rho_orth(rs: RootSystem):
    """rho in the orthogonal coordinate models, on A_n shifted by n/2 to
    (n, n-1, ..., 0)."""
    return to_orthogonal(rs, rs.rho, Fraction(rs.rank, 2) if rs.family == "A" else 0)


def rho_products_orth(rs: RootSystem, x: Sequence) -> tuple[complex, complex]:
    """The products of :func:`rho_products` at a point in orthogonal
    coordinates, with the positive roots in orthogonal coordinates.

    For A_n the formulas hold on the zero-sum hyperplane.
    """
    return _root_products(rs, _orth_basis(rs), _float_points(rs, [x], orth_dim(rs))[0])


# -- characters and dimensions -------------------------------------------

def character(rs: RootSystem, lam: Sequence, x: Sequence,
              threshold: float = 1e-12) -> complex:
    """Weyl character: the ratio of the shifted and unshifted rho-type
    antisymmetric orbit functions."""
    lamv = _dominant_integral(rs, lam, "character")
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

    lamv = _dominant_integral(rs, lam, "character")
    xv = rank_vec(rs, x)
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


def _dominant_integral(rs: RootSystem, lam: Sequence, what: str) -> tuple:
    """lam as an exact rank vector; ValueError naming it and the diagram
    unless it is dominant and integral."""
    lamv = rank_vec(rs, lam)
    need = f"for {rs.id.label}; {what} needs a dominant integral weight"
    if not is_dominant(lamv):
        raise ValueError(f"{_vec_str(lamv)} is not dominant {need}")
    if any(c.denominator != 1 for c in lamv):
        raise ValueError(f"{_vec_str(lamv)} is not integral {need}")
    return lamv


def dimension(rs: RootSystem, lam: Sequence) -> int:
    """Product formula for the x -> 0 limit of the character, exactly:
    prod <lam + rho, alpha> / <rho, alpha> over the positive roots, with
    both pairings exact (``_pairing``) with the metric scaled to integers
    and the products taken in Python ints."""
    lamv = _dominant_integral(rs, lam, "dimension")
    rows, _ = _root_rows(rs, rs.metric)
    shifted, rho = _pairing(rows, 1, [int(c) + 1 for c in lamv] + [1] * rs.rank)[0].T.tolist()
    num, den = math.prod(shifted), math.prod(rho)
    if num % den:
        raise ArithmeticError(f"non-integral dimension {Fraction(num, den)} for {lamv}")
    return num // den


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


def _doubled_labels(total: int, n: int) -> list:
    """2 m + rho over the partitions m of total into n parts, rho = (n - 1, ..., 0)."""
    return [tuple(2 * a + b for a, b in zip(mm, _staircase(n))) for mm in partitions(total, n)]


def _paired_labels(total: int, n: int) -> list:
    """(m_1, m_1, ..., m_k, m_k[, 0]) + rho over the partitions m of total into k = n // 2 parts."""
    return [tuple(a + b for a, b in zip([x for c in mm for x in (c, c)] + [0], _staircase(n)))
            for mm in partitions(total, n // 2)]


def an_identity(check: str, **params) -> float:
    """Evaluate one of the A-family identities; returns |LHS - RHS|.

    Exact finite identities (``cha5``, ``cha6``, ``cha7``) are computed in
    integer arithmetic and return exactly 0.0 on success.  The series
    identities (``R1``, ``cauchy``, ``cha3``, ``cha4``) are truncated at
    total degree ``K`` and need max(|y|,|z|,|t|) < 1.  cha3 and cha6 sum
    over the labels 2 m + rho, cha4 and cha7 over the paired ones.
    """
    check = check.lower().replace("-", "") if isinstance(check, str) else check
    if check == "cha5":
        s, r, m = params["s"], params["r"], params["m"]
        rho_s, rho_r = _staircase(s), _staircase(r)
        lhs = sum(
            vandermonde([a + b for a, b in zip(mm, rho_s)])
            * vandermonde([a + b for a, b in zip(mm + (0,) * (r - s), rho_r)])
            for mm in partitions(m, s))
        rhs = math.comb(s * r + m - 1, m) * vandermonde(rho_s) * vandermonde(rho_r)
        return float(abs(lhs - rhs))
    if check in ("cha6", "cha7"):
        n, m = params["n"], params["m"]
        labels, d = ((_doubled_labels, n * (n + 1) // 2) if check == "cha6" else
                     (_paired_labels, n * (n - 1) // 2))
        lhs = sum(vandermonde(lab) for lab in labels(m, n))
        rhs = math.comb(d + m - 1, m) * vandermonde(_staircase(n))
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
        labels, first = (_doubled_labels, 0) if check == "cha3" else (_paired_labels, 1)
        rhs = 0j
        for total in range(K + 1):
            for lab in labels(total, n):
                rhs += det_powers(lab, ys) * t ** total
        lhs = det_powers(_staircase(n), ys)
        for i in range(n):
            for j in range(i + first, n):
                lhs /= (1 - t * ys[i] * ys[j])
        return abs(lhs - rhs)
    raise ValueError(f"unknown identity {check!r}")
