"""Brute-force oracles for the orbit algebra.

These are the loops that ``orbitalg`` and ``orbitfn`` used before the
coset sums: every product expands all pairs of orbit points (|W|^2 sums)
and reads each coefficient off the dominant exponent itself, and the rho
cosine expansion enumerates all 2^|positive roots| subsets.  They are
slow, and independent of ``to_dominant`` and ``stabilizer_order``, which
makes them the reference for the library.
"""

from orbitfuncs.orbitalg import OrbitTerm
from orbitfuncs.rootsys import vec, is_dominant, is_strictly_dominant
from orbitfuncs.weyl import orbit, signed_orbit, positive_roots


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
    plain = [(p, 1) for p in orbit(rs, vec(lam))]
    counter = _pair_counts(plain, signed_orbit(rs, vec(mu)).points)
    for lab, c in counter.items():
        if not is_strictly_dominant(lab):
            assert c == 0, f"wall term {lab} did not cancel"
    return _terms(counter, "signed")


def signed_signed_oracle(rs, lam, mu) -> tuple:
    """O^+-(lam) x O^+-(mu)."""
    counter = _pair_counts(signed_orbit(rs, vec(lam)).points,
                           signed_orbit(rs, vec(mu)).points)
    return _terms(counter, "orbit")


def plain_plain_oracle(rs, lam, mu) -> tuple:
    """O(lam) x O(mu); every multiplicity is positive."""
    counter = _pair_counts([(p, 1) for p in orbit(rs, vec(lam))],
                           [(q, 1) for q in orbit(rs, vec(mu))])
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
