"""Brute-force oracles for the group, its orbits and the orbit algebra.

The group and orbit oracles are the code that ``weyl`` and ``transforms``
ran before the integer group array: the group closed by a BFS over tuple
matrix products, orbits by a BFS of Fraction mat-vecs, stabilizer orders
by closing the parabolic subgroup of the dominant form, signed orbits and
the torus expansion of a grid one element at a time.  The product oracles
are the loops that ``orbitalg`` and ``orbitfn`` used before the coset
sums: every product expands all pairs of orbit points (|W|^2 sums) and
reads each coefficient off the dominant exponent itself, and the rho
cosine expansion enumerates all 2^|positive roots| subsets.  They are
slow, and independent of the group array, ``to_dominant`` and
``stabilizer_order``, which makes them the reference for the library.
``positive_roots_oracle`` and ``dimension_oracle`` are the ``Fraction``
loops that ``weyl.positive_roots`` and ``orbitfn.dimension`` ran before
their integer products: the roots as the BFS orbits of the simple roots,
kept when their alpha-basis expansion is nonnegative, and the dimension
as a product of ``inner`` ratios.
``group_sum`` is the float sum over W that ``eval_batch`` ran on every
family before the closed forms and the power tables: one exponential per
term and point, with the terms read off the oracle orbits.  ``orth_group``
is the generator over permutations x sign vectors that gave the group on
orthogonal coordinates before ``weyl.orth_action`` read it off the group
array, and ``branch_oracle`` the loop that ``orbitalg.branch`` ran over it,
one element and one ``Fraction`` tuple at a time.  ``grid_oracle`` and
``labels_oracle`` are the recursive tuple generator that built the F_M
grids and the default plan labels before ``transforms._alcove``, with one
``Fraction`` per coordinate and a ``vec_mat`` per grid point.
``dct_dst_oracle``, ``dst_dct_1d_oracle`` and ``multivariate_plan_oracle``
are the one-variable table and the plan builders of ``transforms`` before
the half-shift table: one branch of per-point weight and norm functions
per kind, and the weight and norm of every multivariate tuple computed
one tuple at a time over a ``Counter`` of its entries.
``dominant_rows_oracle``, ``from_orthogonal_oracle``, ``rho_products_oracle``
and ``rho_products_orth_oracle`` are ``weyl._dominant_rows``,
``rootsys.from_orthogonal`` and the two rho products as they were written
per family before the omega columns and the one product over the positive
roots: the strict-dominance rules and the orthogonal -> omega map of each
of A, B, C and D, the positive roots of A and of B/C/D in orthogonal
coordinates spelled out by hand, and the omega-coordinate product paired
with the metric one root and one ``Fraction`` at a time.
``gaussian_hermite_samples``, ``plane_wave_apply`` and the two residual
oracles are the Fourier-transform eigen checks of ``analysis`` before they
applied the 1-D kernel to each Hermite factor: the eigenfunction sampled
on the full tensor grid and the dense kernel applied on both sides,
K g K^T, then projected onto the (anti)symmetric part.
``close_oracle`` is the loop that ``weyl._close`` ran before it stepped
on the images of rho: every product of a generator with an element of the
last layer, one ``tobytes`` key per product checked against a seen set.
It builds the generators from the Cartan matrix, so it also closes F4 and
E6, whose groups ``weyl._group`` refuses.
``hermite_explicit`` is the factorial-sum definition of the Hermite
polynomials, the oracle of ``analysis.hermite_polynomial``'s recurrence.
``exponent_terms_oracle``, ``shift_operator_check_oracle`` and
``dual_marks_oracle`` are ``orbitfn._exponent_terms``,
``analysis.shift_operator_check`` and ``weyl.dual_marks`` before the exact
int64 pairing and the static dual marks: the terms times the metric and
the group times a point as object-dtype products in Python ints, one
``Fraction`` per entry for the steps and exponents, and the dual marks
read off the highest short root found among the positive roots by
``Fraction`` inner products.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from orbitfuncs.analysis import hermite_polynomial
from orbitfuncs.orbitalg import OrbitTerm
from orbitfuncs.orbitfn import (
    TWO_PI, eval_batch, eval_orbit_function, _float_points, _orbit_terms, _perm_sum,
)
from orbitfuncs.rootsys import (
    convert_basis, inner, mat_vec, rank_vec, vec, vec_mat, is_dominant,
    is_strictly_dominant, orth_dim, orth_vec, UnsupportedCoordinatesError,
)
from orbitfuncs.transforms import DiscretePlan, GridFM, GridPoint
from orbitfuncs.weyl import (
    generators, highest_short_root, positive_roots, to_dominant, _group,
)


def _closure(rs, gens) -> list:
    """(matrix, det, word) of every element of the group generated by
    gens, BFS order (identity first), prepending one generator per layer."""
    n = rs.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident: (ident, 1, ())}
    frontier = [seen[ident]]
    while frontier:
        nxt = []
        for m, d, word in frontier:
            for g in gens:
                gm = tuple(tuple(sum(g.matrix[i][k] * m[k][j] for k in range(n))
                                 for j in range(n)) for i in range(n))
                if gm not in seen:
                    seen[gm] = (gm, g.det * d, g.word + word)
                    nxt.append(seen[gm])
        frontier = nxt
    return list(seen.values())


def close_oracle(rs):
    """(mats, dets, words, gain) of the group of rs, as ``weyl._close``
    returns them: the int64 matrices in BFS order (identity first), their
    dets, shortest words and n * max |entry|."""
    n = rs.rank
    gens = np.array([[[int(k == c) - int(c == i) * int(rs.cartan[i][k]) for c in range(n)]
                      for k in range(n)] for i in range(n)], dtype=np.int64)
    layer = np.eye(n, dtype=np.int64)[None]
    layers, words = [layer], [()]
    seen = {layer[0].tobytes()}
    while len(layer):
        # candidate f * n + g is r_g times element f of the layer
        cand = np.einsum("gij,fjk->fgik", gens, layer).reshape(-1, n, n)
        new = []
        for i, m in enumerate(cand):
            key = m.tobytes()
            if key not in seen:
                seen.add(key)
                new.append(i)
        prev = words[len(words) - len(layer):]
        words += [(i % n,) + prev[i // n] for i in new]
        layer = cand[new]
        layers.append(layer)
    mats = np.concatenate(layers)
    dets = np.array([(-1) ** len(w) for w in words], dtype=np.int64)
    return mats, dets, tuple(words), n * int(np.abs(mats).max())


@functools.cache
def group_oracle(rs) -> tuple:
    return tuple(_closure(rs, generators(rs)))


def orbit_oracle(rs, lam) -> list:
    """Sorted distinct points of the orbit of lam, by a BFS over the
    simple reflections."""
    lamv = vec(lam)
    seen = {lamv}
    frontier = [lamv]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators(rs):
                q = g.apply(p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def stabilizer_oracle(rs, lam) -> int:
    """The order of the parabolic subgroup of the walls of dom(lam)."""
    nu = to_dominant(rs, lam).weight
    gens = generators(rs)
    return len(_closure(rs, [gens[i] for i, c in enumerate(nu) if c == 0]))


def positive_roots_oracle(rs) -> tuple:
    """The sorted roots, the union of the orbits of the simple roots, with
    a nonnegative alpha-basis expansion."""
    roots = set().union(*(orbit_oracle(rs, alpha) for alpha in rs.cartan))
    return tuple(r for r in sorted(roots)
                 if all(c >= 0 for c in convert_basis(rs, r, "omega", "alpha")))


def dimension_oracle(rs, lam) -> int:
    """prod <lam + rho, alpha> / <rho, alpha> over the positive roots, in
    Fractions."""
    shifted = tuple(c + 1 for c in vec(lam))
    total = Fraction(1)
    for alpha in positive_roots_oracle(rs):
        total *= inner(rs, shifted, alpha) / inner(rs, rs.rho, alpha)
    assert total.denominator == 1
    return int(total)


def signed_orbit_oracle(rs, lam) -> tuple:
    """((w lam, det w) for w in the oracle group), in its order."""
    return tuple((mat_vec(m, vec(lam)), d) for m, d, _ in group_oracle(rs))


def tm_expand_oracle(rs, grid) -> list:
    """Sorted distinct coroot coordinates of w x mod 1 over the group and
    the grid points x."""
    seen = set()
    for p in grid.points:
        for m, _, _ in group_oracle(rs):
            b = vec_mat(mat_vec(m, p.omega), rs.metric)
            seen.add(tuple(c % 1 for c in b))
    return sorted(seen)


def _s_tuples(marks, M):
    """Nonnegative integer tuples s with sum(s_i * m_i) <= M."""
    n = len(marks)

    def rec(i, budget):
        if i == n:
            yield ()
            return
        for si in range(budget // marks[i] + 1):
            for rest in rec(i + 1, budget - si * marks[i]):
                yield (si,) + rest
    yield from rec(0, M)


def grid_oracle(rs, M):
    """The F_M grid one point at a time: omega_i = (s_i/M) 2/|alpha_i|^2 as
    a Fraction per coordinate, and its coroot coordinates by ``vec_mat``."""
    pts = []
    for s in sorted(_s_tuples(rs.marks, M)):
        s0 = M - sum(si * mi for si, mi in zip(s, rs.marks))
        omega = tuple(Fraction(si, M) * 2 / rs.root_norms[i]
                      for i, si in enumerate(s))
        coroot = vec_mat(vec(omega), rs.metric)
        interior = s0 > 0 and all(si > 0 for si in s)
        pts.append(GridPoint(s=s, s0=s0, M=M, omega=omega, coroot=coroot,
                             interior=interior))
    return GridFM(rs=rs, M=M, points=tuple(pts))


def labels_oracle(rs, M):
    """The default plan labels filtered from the sorted dual-mark tuples."""
    dm = dual_marks_oracle(rs)
    return tuple(vec(s) for s in sorted(_s_tuples(dm, M))
                 if all(si > 0 for si in s) and sum(a * b for a, b in zip(s, dm)) < M)


def group_sum_terms(rs, kind: str, lam) -> tuple:
    """Rows mu S (exact, then float) for every term mu of the sum over W,
    plus the coefficient of each term: det w for every w lam
    (antisymmetric), or 1 (symmetric) or |Stab(lam)| (normalized) for
    every point of the orbit."""
    if kind == "antisymmetric":
        terms = signed_orbit_oracle(rs, lam)
    else:
        c = 1 if kind == "symmetric" else stabilizer_oracle(rs, lam)
        terms = [(p, c) for p in orbit_oracle(rs, lam)]
    rows = np.array([[float(v) for v in vec_mat(p, rs.metric)] for p, _ in terms])
    return rows, np.array([float(c) for _, c in terms])


def group_sum(rows, coeffs, xs):
    """The sum over W at an (N, rank) array of omega coordinates."""
    return coeffs @ np.exp(2 * math.pi * 1j * (rows @ np.asarray(xs).T))


def _pair_counts(left, right) -> dict:
    """Signed count of the pairs (p, s), (q, t) with p + q dominant."""
    counter: dict = {}
    for p, s in left:
        for q, t in right:
            y = tuple(a + b for a, b in zip(p, q))
            if is_dominant(y):
                counter[y] = counter.get(y, 0) + s * t
    return counter


def _terms(counter: dict, kind: str) -> tuple:
    return tuple(OrbitTerm(c, lab, kind) for lab, c in sorted(counter.items()) if c != 0)


def plain_signed_oracle(rs, lam, mu) -> tuple:
    """O(lam) x O^+-(mu); pairs landing on walls must cancel."""
    plain = [(p, 1) for p in orbit_oracle(rs, lam)]
    counter = _pair_counts(plain, signed_orbit_oracle(rs, mu))
    for lab, c in counter.items():
        if not is_strictly_dominant(lab):
            assert c == 0, f"wall term {lab} did not cancel"
    return _terms(counter, "signed")


def signed_signed_oracle(rs, lam, mu) -> tuple:
    """O^+-(lam) x O^+-(mu)."""
    counter = _pair_counts(signed_orbit_oracle(rs, lam), signed_orbit_oracle(rs, mu))
    return _terms(counter, "orbit")


def plain_plain_oracle(rs, lam, mu) -> tuple:
    """O(lam) x O(mu); every multiplicity is positive."""
    counter = _pair_counts([(p, 1) for p in orbit_oracle(rs, lam)],
                           [(q, 1) for q in orbit_oracle(rs, mu)])
    assert all(c > 0 for c in counter.values())
    return _terms(counter, "orbit")


def rho_cosine_oracle(rs) -> dict:
    """2^r prod cos(pi <alpha, x>) expanded over all subsets S of the
    positive roots, one exponential rho - sum(S) each; the dominant
    exponents with their counts."""
    pos = positive_roots_oracle(rs)
    counts: dict = {}
    for mask in range(1 << len(pos)):
        point = list(rs.rho)
        for i, alpha in enumerate(pos):
            if mask >> i & 1:
                point = [a - b for a, b in zip(point, alpha)]
        key = tuple(point)
        counts[key] = counts.get(key, 0) + 1
    return {lab: c for lab, c in counts.items() if is_dominant(lab)}


def orth_group(rs):
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


def _perm_sign(p) -> int:
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


def orth_apply(p, signs, m) -> tuple:
    return tuple(signs[i] * m[p[i]] for i in range(len(p)))


def _strictly_decreasing(t) -> bool:
    return all(t[i] > t[i + 1] for i in range(len(t) - 1))


def _dominant_for(family: str, t) -> bool:
    if family == "A":
        return _strictly_decreasing(t)
    if family in ("B", "C"):
        return _strictly_decreasing(t) and t[-1] > 0
    if family == "D":
        if len(t) == 1:
            return True
        return _strictly_decreasing(t[:-1]) and t[-2] > abs(t[-1])
    raise ValueError(family)


def branch_oracle(rs, rule, m) -> tuple:
    """``orbitalg.branch`` for a valid rule and strictly dominant m, by
    the sign collection over every (perm, signs, det) of ``orth_group``."""
    fam, mv = rs.family, vec(m)
    if rule.kind == "drop":
        restrict = (lambda pt: (pt[:-1],)) if fam == "A" else (lambda pt: (pt[1:],))
        doms = (fam,)
    else:
        restrict = lambda pt: (pt[:rule.p], pt[rule.p:])
        doms = ("A", fam)
    counter: dict = {}
    for perm, signs, det in orth_group(rs):
        parts = restrict(orth_apply(perm, signs, mv))
        if all(_dominant_for(f, t) for f, t in zip(doms, parts)):
            key = parts[0] if len(parts) == 1 else parts
            counter[key] = counter.get(key, 0) + det
    return _terms(counter, "signed")


def dct_dst_oracle(kind: str, N: int):
    """(labels, grid nodes, kernel fn, weight fn, norm fn) of a one-variable
    transform, one branch of five lambdas per kind: the table that
    ``transforms`` kept before the half-shift table of DCT/DST-1..4."""
    half = 0.5
    if kind == "exp":
        return (range(1, N + 1), [Fraction(k, N) for k in range(1, N + 1)],
                lambda m, s: np.exp(1j * (2.0 * math.pi * m * s)) / math.sqrt(N),
                lambda s: 1.0,
                lambda m: 1.0)
    if kind == "sine":
        return (range(1, N), [Fraction(k, N) for k in range(1, N)],
                lambda m, s: 2j * np.sin(np.pi * m * s),
                lambda s: 1.0,
                lambda m: 2.0 * N)
    if kind == "cosine":
        return (range(N + 1), [Fraction(k, N) for k in range(N + 1)],
                lambda m, s: 2 * np.cos(np.pi * m * s),
                lambda s: half if s in (0, 1) else 1.0,
                lambda m: (4.0 if m in (0, N) else 2.0) * N)
    if kind == "dct1":
        return (range(N + 1), range(N + 1),
                lambda r, k: np.cos(np.pi * r * k / N),
                lambda k: half if k in (0, N) else 1.0,
                lambda r: (2.0 if r in (0, N) else 1.0) * N / 2)
    if kind == "dct2":
        return (range(N), range(N),
                lambda r, k: np.cos(np.pi * (r + half) * k / N),
                lambda k: half if k == 0 else 1.0,
                lambda r: N / 2)
    if kind == "dct3":
        return (range(N), range(N),
                lambda r, k: np.cos(np.pi * r * (k + half) / N),
                lambda k: 1.0,
                lambda r: (2.0 if r == 0 else 1.0) * N / 2)
    if kind == "dct4":
        return (range(N), range(N),
                lambda r, k: np.cos(np.pi * (r + half) * (k + half) / N),
                lambda k: 1.0,
                lambda r: N / 2)
    if kind == "dst1":
        return (range(1, N), range(1, N),
                lambda r, k: np.sin(np.pi * r * k / N),
                lambda k: 1.0,
                lambda r: N / 2)
    if kind == "dst2":
        return (range(N), range(1, N + 1),
                lambda r, k: np.sin(np.pi * (r + half) * k / N),
                lambda k: half if k == N else 1.0,
                lambda r: N / 2)
    if kind == "dst3":
        return (range(1, N + 1), range(N),
                lambda r, k: np.sin(np.pi * r * (k + half) / N),
                lambda k: 1.0,
                lambda r: (2.0 if r == N else 1.0) * N / 2)
    if kind == "dst4":
        return (range(N), range(N),
                lambda r, k: np.sin(np.pi * (r + half) * (k + half) / N),
                lambda k: 1.0,
                lambda r: N / 2)
    raise ValueError(f"unknown 1-D transform kind {kind!r}")


def _one_variable_oracle(kind: str, base: str, n: int, N: int, strict: bool):
    if n >= 1 and N >= 1:
        data = dct_dst_oracle(base, N)
        if len(data[0]) >= (n if strict else 1):
            return data
    raise ValueError(f"{kind} has no plan with n = {n}, N = {N}: it needs "
                     f"n >= 1, N >= 1 and at least one label")


def dst_dct_1d_oracle(kind: str, N: int) -> DiscretePlan:
    """``transforms.dst_dct_1d`` with one weight and one norm call per
    node and label."""
    kind = kind.lower()
    if kind == "exp":
        raise ValueError(f"unknown 1-D transform kind {kind!r}")
    labels, nodes, kfn, wfn, nfn = _one_variable_oracle(kind, kind, 1, N, strict=True)
    labels, nodes = tuple(labels), tuple(nodes)
    kernel = kfn(np.array(labels, dtype=float)[:, None],
                 np.array(nodes, dtype=float)).astype(complex)
    weights = np.array([wfn(k) for k in nodes])
    norms = np.array([nfn(r) for r in labels])
    return DiscretePlan(kind, labels, nodes, kernel, weights, norms)


def _stab_order_oracle(t) -> int:
    out = 1
    for c in Counter(t).values():
        out *= math.factorial(c)
    return out


_MULTIVARIATE_ORACLE = {
    "anti_exp": ("exp", True), "sym_exp": ("exp", False),
    "anti_sine": ("sine", True), "sym_cosine": ("cosine", False),
    **{f"{p}mdct{v}": (f"dct{v}", p == "a") for p in "as" for v in "1234"},
}


def multivariate_plan_oracle(kind: str, n: int, N: int) -> DiscretePlan:
    """``transforms.multivariate_plan`` with the weight and the norm of
    every tuple a product of per-point calls over a ``Counter`` of its
    entries."""
    kind = kind.lower()
    if kind not in _MULTIVARIATE_ORACLE:
        raise ValueError(f"unknown multivariate kind {kind!r}")
    base, signed = _MULTIVARIATE_ORACLE[kind]
    labels, nodes, kfn, wfn, nfn = _one_variable_oracle(kind, base, n, N, strict=signed)
    tuples = itertools.combinations if signed else itertools.combinations_with_replacement
    labels = tuple(tuples(sorted(labels, reverse=True), n))
    grid = tuple(tuples(sorted(nodes, reverse=True), n))
    nf = math.factorial(n)
    r = np.array(labels, dtype=float)[:, None, :, None]
    k = np.array(grid, dtype=float)[None, :, None, :]
    kernel = np.asarray(_perm_sum(kfn(r, k), signed) / math.sqrt(nf), dtype=complex)
    weights = np.array([nf * np.prod([wfn(s) for s in t]) / _stab_order_oracle(t)
                        for t in grid])
    norms = np.array([np.prod([nfn(m) for m in t]) * _stab_order_oracle(t)
                      for t in labels])
    return DiscretePlan(kind, labels, grid, kernel, weights, norms)


def dominant_rows_oracle(family: str, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of t, orthogonal coordinates of the given family,
    that are strictly dominant for it: strictly decreasing, and on B and C
    positive, on D with m_(r-1) > |m_r|."""
    if family == "D":
        if t.shape[1] == 1:
            return np.ones(len(t), dtype=bool)
        return np.all(t[:, :-2] > t[:, 1:-1], axis=1) & (t[:, -2] > np.abs(t[:, -1]))
    decreasing = np.all(t[:, :-1] > t[:, 1:], axis=1)
    return decreasing if family == "A" else decreasing & (t[:, -1] > 0)


def from_orthogonal_oracle(rs, m) -> tuple:
    """Inverse of :func:`to_orthogonal` (A_n: modulo the constant-sum gauge)."""
    fam, n = rs.family, rs.rank
    mv = orth_vec(rs, m)
    if fam == "A":
        return tuple(mv[i] - mv[i + 1] for i in range(n))
    if fam == "B":
        return tuple(mv[i] - mv[i + 1] for i in range(n - 1)) + (2 * mv[n - 1],)
    if fam == "C":
        return tuple(mv[i] - mv[i + 1] for i in range(n - 1)) + (mv[n - 1],)
    if fam == "D":
        return tuple(mv[i] - mv[i + 1] for i in range(n - 2)) + \
            (mv[n - 2] + mv[n - 1], mv[n - 2] - mv[n - 1])
    raise UnsupportedCoordinatesError(f"no orthogonal model for {rs.id.label}")


def rho_products_oracle(rs, x) -> tuple:
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


def rho_products_orth_oracle(rs, x) -> tuple:
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


def hermite_explicit(n: int, x: float) -> float:
    """The factorial-sum definition; a small-n oracle for the recurrence."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1) ** m * (2 * x) ** (n - 2 * m)
                  / (math.factorial(m) * math.factorial(n - 2 * m)))
    return math.factorial(n) * total


def gaussian_hermite_samples(q, m, variant: str) -> np.ndarray:
    """exp(-pi |x|^2) H^{variant}_m(sqrt(2 pi) x) on the tensor grid of the
    quadrature q (an ``analysis.PlaneWaveQuadrature``)."""
    x1, x2 = np.meshgrid(q.nodes, q.nodes, indexing="ij")
    gauss = np.exp(-math.pi * (x1 ** 2 + x2 ** 2))
    xs = math.sqrt(TWO_PI) * np.stack([x1, x2], axis=-1)
    h = np.stack([hermite_polynomial(mi, xs) for mi in m], axis=-2)
    return gauss * _perm_sum(h, signed=(variant == "anti"))


def plane_wave_apply(q, values: np.ndarray, variant: str) -> np.ndarray:
    """One application of the transform to a function sampled on the
    tensor grid; variant "anti" antisymmetrizes, "sym" symmetrizes."""
    g = q.matrix @ values @ q.matrix.T
    if variant == "anti":
        return 0.5 * (g - g.T)
    return 0.5 * (g + g.T)


def transform_eigen_check_oracle(q, m, variant: str) -> float:
    """The relative eigen-residual ||T g0 - i^|m| g0|| / ||g0||, two-sided."""
    g0 = gaussian_hermite_samples(q, m, variant)
    out = plane_wave_apply(q, g0.astype(complex), variant)
    eig = 1j ** int(sum(m))
    return float(np.linalg.norm(out - eig * g0) / np.linalg.norm(g0))


def transform_fourth_power_oracle(q, m, variant: str) -> float:
    """The relative residual ||T^4 g0 - g0|| / ||g0||, two-sided."""
    g0 = gaussian_hermite_samples(q, m, variant).astype(complex)
    g = g0
    for _ in range(4):
        g = plane_wave_apply(q, g, variant)
    return float(np.linalg.norm(g - g0) / np.linalg.norm(g0))


def exponent_terms_oracle(rs, kind: str, lamv) -> tuple:
    """The exponent rows K, the steps s_j and the coefficients of the sum
    over W: the terms times the metric as an object-dtype product, and per
    column the step s_j = gcd of its rationals (1 if all are 0) and K_ij =
    v_ij / s_j, one ``Fraction`` per entry."""
    rows, d, coeffs = _orbit_terms(rs, kind, lamv)
    exact = rows.astype(object) @ np.array(rs.metric, dtype=object)   # d * mu S
    steps, cols = [], []
    for col in exact.T:
        values = [Fraction(v) / d for v in col]
        step = Fraction(math.gcd(*(v.numerator for v in values)) or 1,
                        math.lcm(*(v.denominator for v in values)))
        steps.append(step)
        cols.append([int(v / step) for v in values])
    return [list(K) for K in zip(*cols)], steps, [int(c) for c in coeffs]


def shift_operator_check_oracle(rs, lam, x, y, variant: str) -> float:
    """The relative error of the shift-operator eigenrelation, with w x + y
    as an object-dtype product of the group and x in Python ints over one
    denominator, divided once."""
    xv, yv = rank_vec(rs, x), rank_vec(rs, y)
    group = _group(rs)
    kind, use_det, eig_kind, val_kind = {
        "det_on_anti": ("anti", True, "sym", "anti"),
        "plain_on_anti": ("anti", False, "anti", "sym"),
        "det_on_sym": ("sym", True, "anti", "anti"),
    }[variant]
    d = math.lcm(*(c.denominator for c in xv + yv))
    xn, yn = ([c.numerator * (d // c.denominator) for c in v] for v in (xv, yv))
    shifted = ((group.mats.astype(object) @ xn + yn) / d).astype(float)
    vals = eval_batch(rs, kind, lam, shifted)
    dets = group.dets if use_det else np.ones(len(group.dets), dtype=int)
    lhs = dets @ vals
    rhs = (eval_orbit_function(rs, eig_kind, lam, [float(c) for c in yv])
           * eval_orbit_function(rs, val_kind, lam, [float(c) for c in xv]))
    scale = max(abs(rhs), float(np.mean(np.abs(vals))), 1e-12)
    return abs(lhs - rhs) / scale


def dual_marks_oracle(rs) -> tuple:
    """The coefficients of the highest-short-root coroot in the coroot
    basis: the alpha-basis coefficients of the highest short root times
    |alpha_i|^2 / |xi_s|^2."""
    xi_s = highest_short_root(rs)
    a = convert_basis(rs, xi_s, "omega", "alpha")
    norm = inner(rs, xi_s, xi_s)
    out = [ai * ni / norm for ai, ni in zip(a, rs.root_norms)]
    assert all(c.denominator == 1 for c in out)
    return tuple(map(int, out))
