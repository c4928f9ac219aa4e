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
``group_sum`` is the float sum over W that ``eval_batch`` ran on every
family before the closed forms and the power tables: one exponential per
term and point, with the terms read off the oracle orbits.
"""

import functools
import math

import numpy as np

from orbitfuncs.orbitalg import OrbitTerm
from orbitfuncs.rootsys import mat_vec, vec, vec_mat, is_dominant, is_strictly_dominant
from orbitfuncs.weyl import generators, positive_roots, to_dominant


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
    pos = positive_roots(rs)
    counts: dict = {}
    for mask in range(1 << len(pos)):
        point = list(rs.rho)
        for i, alpha in enumerate(pos):
            if mask >> i & 1:
                point = [a - b for a, b in zip(point, alpha)]
        key = tuple(point)
        counts[key] = counts.get(key, 0) + 1
    return {lab: c for lab, c in counts.items() if is_dominant(lab)}
