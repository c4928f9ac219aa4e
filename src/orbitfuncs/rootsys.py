"""Static data of connected root systems: Cartan matrices, metrics, bases.

All lattice-level data is kept as exact rationals (``fractions.Fraction``);
floating point enters only at evaluation time in the other modules.

Vectors are plain tuples of Fractions.  Three coordinate systems are used
throughout the package:

* ``omega``  -- coordinates with respect to the fundamental weights,
* ``alpha``  -- coordinates with respect to the simple roots,
* ``alpha_check`` -- coordinates with respect to the simple coroots.

For the families A, B, C, D there is additionally the orthogonal coordinate
model (n+1 coordinates summing to a constant for A_n, n coordinates
otherwise), provided by :func:`to_orthogonal` / :func:`from_orthogonal`.
"""

from __future__ import annotations

import functools
import json
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite, nan
from numbers import Integral
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_FAMILIES = "ABCDEFG"


class InvalidDiagramError(ValueError):
    """Raised for family/rank combinations that do not name a diagram."""


class UnsupportedCoordinatesError(ValueError):
    """Raised when an orthogonal coordinate model is not available."""


def vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_mat(v: Vec, m: Mat) -> Vec:
    n = len(m[0])
    return tuple(sum(v[i] * m[i][k] for i in range(len(v))) for k in range(n))


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class DiagramId:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if not (isinstance(fam, str) and len(fam) == 1 and fam in _FAMILIES):
            raise InvalidDiagramError(f"unknown family {fam!r}")
        if not _integer(n):
            raise InvalidDiagramError(f"rank {n!r} of family {fam} is not an integer")
        object.__setattr__(self, "rank", int(n))   # a numpy integer as an int
        bounds = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
                  "E": (6, 8), "F": (4, 4), "G": (2, 2)}
        lo, hi = bounds[fam]
        if n < lo or (hi is not None and n > hi):
            raise InvalidDiagramError(f"rank {n} not admissible for family {fam}")

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


def parse_diagram(label: str | DiagramId) -> DiagramId:
    """Parse labels like ``"A2"`` or ``"D4"`` (no Unicode, no products)."""
    if isinstance(label, DiagramId):
        return label
    s = label.strip()
    if len(s) < 2 or s[0].upper() not in _FAMILIES or not s[1:].isdigit():
        raise InvalidDiagramError(f"cannot parse diagram label {label!r}")
    return DiagramId(s[0].upper(), int(s[1:]))


def _cartan_and_norms(did: DiagramId) -> tuple[Mat, Vec]:
    """Cartan matrix and squared simple-root lengths <a_i,a_i>.

    Long roots are normalized to squared length 2; this fixes the short
    roots of B/C/F at 1 and the short root of G_2 at 2/3.
    """
    fam, n = did.family, did.rank
    two = Fraction(2)
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = two

    def link(i, j, mij=-1, mji=-1):
        M[i][j] = Fraction(mij)
        M[j][i] = Fraction(mji)

    norms = [two] * n
    if fam == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif fam == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
        norms[n - 1] = Fraction(1)
    elif fam == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)
        norms = [Fraction(1)] * (n - 1) + [two]
    elif fam == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif fam == "G":
        link(0, 1, -3, -1)
        norms[1] = Fraction(2, 3)
    elif fam == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
        norms = [two, two, Fraction(1), Fraction(1)]
    elif fam == "E":
        # Chain 1..n-1 with node n attached to the branch node.
        for i in range(n - 2):
            link(i, i + 1)
        branch = {6: 2, 7: 2, 8: 4}[n]
        link(branch, n - 1)
    return mat(M), tuple(norms)


def _dominant_root(cartan: Sequence[Sequence[int]], i: int) -> tuple[int, ...]:
    """The alpha coordinates of the dominant root in the orbit of alpha_i,
    row i of the integer Cartan matrix, by r_j beta = beta - beta_j alpha_j
    while some beta_j < 0.  The roots of one length form one orbit
    (Humphreys 1972, 10.4): a long alpha_i gives the highest root."""
    beta, coeffs = list(cartan[i]), [int(j == i) for j in range(len(cartan))]
    while (j := next((j for j, b in enumerate(beta) if b < 0), None)) is not None:
        bj = beta[j]
        beta = [b - bj * a for b, a in zip(beta, cartan[j])]
        coeffs[j] -= bj
    return tuple(coeffs)


@dataclass(frozen=True)
class RootSystem:
    """Immutable bundle of static data for one connected diagram."""

    id: DiagramId
    cartan: Mat
    cartan_inv: Mat
    root_norms: Vec          # <alpha_i, alpha_i>
    metric: Mat              # S = M^-1 D with D = diag(<alpha_i,alpha_i>/2)
    metric_inv: Mat          # S^-1 = D^-1 M
    marks: tuple[int, ...]   # xi = sum m_i alpha_i
    comarks: tuple[int, ...]  # xi = sum q_i alpha_i^check
    rho: Vec                 # (1, ..., 1) in the omega basis
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.id.rank

    @property
    def family(self) -> str:
        return self.id.family

    @property
    def highest_root_omega(self) -> Vec:
        return vec_mat(vec(self.marks), self.cartan)

    # Derived data, computed on first use and kept with the instance (a
    # cached_property writes the instance dict, which the frozen dataclass
    # allows); _build does not compute them.

    @functools.cached_property
    def _root_heights(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """{omega coordinates: (height, bit mask of the simple roots in its
        support)} of every positive root, from the Cartan matrix alone.

        alpha_i is row i of the Cartan matrix, and r_j beta = beta - beta_j
        alpha_j.  A positive root beta with beta_j < 0 goes to the positive
        root r_j beta, of height ht beta - beta_j, and every positive root
        that is not simple is reached so from a lower one (Humphreys,
        *Introduction to Lie Algebras and Representation Theory*, 1972,
        10.2, Lemmas A-B).  So a breadth-first search from the simple roots
        in Python ints finds them all, in |positive roots| * rank steps.
        """
        simple = [tuple(int(c) for c in row) for row in self.cartan]
        roots = {alpha: (1, 1 << i) for i, alpha in enumerate(simple)}
        queue = list(roots.items())
        for beta, (height, support) in queue:   # the list grows while it is read
            for j, bj in enumerate(beta):
                if bj < 0:
                    gamma = tuple(b - bj * a for b, a in zip(beta, simple[j]))
                    if gamma not in roots:
                        roots[gamma] = height - bj, support | 1 << j
                        queue.append((gamma, roots[gamma]))
        return roots

    @functools.cached_property
    def _positive_roots(self) -> tuple[Vec, ...]:
        """The keys of ``_root_heights`` as sorted exact vectors (``weyl.positive_roots``)."""
        frac = {c: Fraction(c) for c in {c for r in self._root_heights for c in r}}
        return tuple(tuple(frac[c] for c in r) for r in sorted(self._root_heights))

    @functools.cached_property
    def _coweight_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(C, L) with row i of C / L the omega coordinates of the i-th
        fundamental coweight, 2 / |alpha_i|^2 times e_i, followed by its
        coroot coordinates; L is the lcm of their denominators, so C is
        integral.  A point sum s_i omega_i^check / M of F_M has the
        coordinates s C / (L M)."""
        n = self.rank
        scale = [2 / x for x in self.root_norms]
        rows = [[scale[i] * (i == j) for j in range(n)] + [scale[i] * x for x in self.metric[i]]
                for i in range(n)]
        L = math.lcm(*(x.denominator for row in rows for x in row))
        return tuple(tuple(int(x * L) for x in row) for row in rows), L

    @functools.cached_property
    def _dual_marks(self) -> tuple[int, ...]:
        """c_i |alpha_i|^2 / |theta_s|^2 for the highest short root
        theta_s = sum c_i alpha_i; ``weyl.dual_marks`` is their accessor."""
        norms = self.root_norms
        short = norms.index(min(norms))
        coeffs = _dominant_root([tuple(map(int, row)) for row in self.cartan], short)
        return tuple(int(c * x / norms[short]) for c, x in zip(coeffs, norms))

    def __repr__(self) -> str:  # keep dataclass repr short
        return f"RootSystem({self.id.label})"


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


# diagrams kept; a bench workload touches at most 11
_CACHE = _BoundedCache(32)


def build(label: str | DiagramId) -> RootSystem:
    """Construct (and cache) the root-system data for a diagram."""
    did = parse_diagram(label)
    return _CACHE.lookup(did, lambda: _build(did))


def _connection_index(marks: tuple[int, ...]) -> int:
    """det C = |P^check / Q^check|: one plus the number of special nodes,
    those of mark 1."""
    return 1 + marks.count(1)


def lattice_index(rs: RootSystem) -> int:
    return _connection_index(rs.marks)


def _build(did: DiagramId) -> RootSystem:
    """The root data of did from its Cartan matrix C and root lengths:
    S = C^-1 D scales the columns of C^-1 and S^-1 = D^-1 C the rows of C,
    and |W| = n! m_1 ... m_n det C (Bourbaki, Ch. VI, 2.4)."""
    M, norms = _cartan_and_norms(did)
    Minv = mat_inverse(M)
    S = tuple(tuple(x * norms[j] / 2 for j, x in enumerate(row)) for row in Minv)
    Sinv = tuple(tuple(2 * x / norms[i] for x in row) for i, row in enumerate(M))
    marks = _dominant_root([tuple(map(int, row)) for row in M], norms.index(max(norms)))
    comarks = tuple(int(m * norms[i] / 2) for i, m in enumerate(marks))
    rs = RootSystem(
        id=did, cartan=M, cartan_inv=Minv, root_norms=norms,
        metric=S, metric_inv=Sinv, marks=marks, comarks=comarks,
        rho=vec([1] * did.rank),
        weyl_order=factorial(did.rank) * math.prod(marks) * _connection_index(marks),
    )
    _sanity(rs)
    return rs


def _sanity(rs: RootSystem):
    n = rs.rank
    for i in range(n):
        assert rs.metric[i] == tuple(rs.metric[j][i] for j in range(n)), "S not symmetric"
    xi = rs.highest_root_omega
    assert inner(rs, xi, xi) == 2, "highest root must have squared length 2"
    # q_i = m_i <alpha_i, alpha_i> / 2, so the comark expansion of xi in the
    # coroot basis matches the mark expansion in the root basis.
    assert all(Fraction(q) == Fraction(m) * rs.root_norms[i] / 2
               for i, (m, q) in enumerate(zip(rs.marks, rs.comarks)))


def inner(rs: RootSystem, x: Sequence, y: Sequence) -> Fraction:
    """Scalar product of two vectors given in omega coordinates: x S y^T."""
    n = rs.rank
    xv, yv = rank_vec(rs, x), rank_vec(rs, y)
    return sum(xv[i] * rs.metric[i][j] * yv[j] for i in range(n) for j in range(n))


_BASES = ("omega", "alpha", "alpha_check")


def convert_basis(rs: RootSystem, v: Sequence, frm: str, to: str) -> Vec:
    """Convert coordinates between the omega, alpha and coroot bases."""
    if frm not in _BASES or to not in _BASES:
        raise ValueError(f"bases must be one of {_BASES}")
    w = rank_vec(rs, v)
    if frm == to:
        return w
    # via omega coordinates
    if frm == "alpha":
        w = vec_mat(w, rs.cartan)
    elif frm == "alpha_check":
        w = vec_mat(w, rs.metric_inv)
    if to == "omega":
        return w
    if to == "alpha":
        return vec_mat(w, rs.cartan_inv)
    return vec_mat(w, rs.metric)  # omega -> alpha_check


def is_dominant(v: Sequence) -> bool:
    return all(Fraction(c) >= 0 for c in v)


def is_strictly_dominant(v: Sequence) -> bool:
    return all(Fraction(c) > 0 for c in v)


def orth_dim(rs: RootSystem) -> int:
    """Number of orthogonal coordinates (n+1 for A_n, n for B/C/D)."""
    if rs.family == "A":
        return rs.rank + 1
    if rs.family in ("B", "C", "D"):
        return rs.rank
    raise UnsupportedCoordinatesError(f"no orthogonal model for {rs.id.label}")


def _rational(c) -> Fraction:
    """c as a Fraction, itself if it is one; TypeError for a str or bytes,
    which Fraction would parse."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (str, bytes)):
        raise TypeError(f"{c!r} is a string")
    f = Fraction(c)   # keeps a numpy integer as its numerator, which can overflow
    return f if type(f.numerator) is int else Fraction(int(f.numerator), int(f.denominator))


def _positive(value, name: str) -> float:
    """value as a positive finite float (a step or a width); ValueError
    naming it otherwise, and for a str or bytes."""
    x = nan
    if not isinstance(value, (str, bytes)):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not (isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a positive finite number, got {name} = {value!r}")
    return x


def _integer(value) -> bool:
    """Whether value is an integer (a bool is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _count(value, name: str) -> int:
    """value as an int >= 1 (a number of quadrature cells, a grid or
    transform size); ValueError naming it otherwise."""
    if not _integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {name} = {value!r}")
    return int(value)


def _exact_vec(rs: RootSystem, x, dim: int, what: str) -> Vec:
    """The body of rank_vec and orth_vec; _rational refuses strings, NaN,
    infinities, None and sequences, and a non-sequence, or a str or bytes
    cell, is shown by its repr.  A whole string is refused rather than
    read as one coordinate per character."""
    if isinstance(x, (str, bytes)):
        raise ValueError(f"{x!r} is a string, not {what}coordinates for {rs.id.label}")
    try:
        v = tuple(map(_rational, x))
    except (TypeError, ValueError, OverflowError):
        try:
            shown = "(" + ", ".join(repr(c) if isinstance(c, (str, bytes)) else str(c)
                                    for c in x) + ")"
        except TypeError:   # not a sequence at all
            shown = repr(x)
        raise ValueError(f"{shown} are not finite rational {what}coordinates for "
                         f"{rs.id.label}") from None
    if len(v) != dim:
        raise ValueError(f"expected {dim} {what}coordinates for {rs.id.label}, "
                         f"got {len(v)}: {_vec_str(v)}")
    return v


def rank_vec(rs: RootSystem, x: Sequence) -> Vec:
    """x as an exact vector of rs.rank coordinates (omega or coroot);
    ValueError naming the diagram for another length, or for a coordinate
    that is not a finite rational."""
    return _exact_vec(rs, x, rs.rank, "")


def orth_vec(rs: RootSystem, m: Sequence) -> Vec:
    """m as an exact vector of orthogonal coordinates; a diagram without
    an orthogonal model raises UnsupportedCoordinatesError."""
    return _exact_vec(rs, m, orth_dim(rs), "orthogonal ")


def orth_pairing_scale(rs: RootSystem) -> Fraction:
    """Factor relating the orthogonal dot product to the lattice metric.

    sum_i m_i(x) m_i(y) = scale * <x, y>  for the coordinate maps below.
    The C_n model has basis vectors of squared length 1/2, hence scale 2;
    the A/B/D models are isometric.
    """
    return Fraction(2) if rs.family == "C" else Fraction(1)


def to_orthogonal(rs: RootSystem, lam: Sequence, offset: Fraction | int = 0) -> Vec:
    """Orthogonal coordinates of a vector given in omega coordinates.

    For A_n the zero-sum gauge is used by default; ``offset`` shifts every
    coordinate by the same constant (the functions built on these
    coordinates do not depend on the shift).
    """
    fam, n = rs.family, rs.rank
    lamv = rank_vec(rs, lam)
    if fam == "A":
        m = [Fraction(0)] * (n + 1)
        total = sum((j + 1) * lamv[j] for j in range(n))
        m[n] = -Fraction(total, n + 1)
        for i in range(n - 1, -1, -1):
            m[i] = m[i + 1] + lamv[i]
        return tuple(x + Fraction(offset) for x in m)
    if fam == "B":
        half_last = lamv[n - 1] / 2
        m = [sum(lamv[i:n - 1], half_last) for i in range(n)]
        return tuple(m)
    if fam == "C":
        return tuple(sum(lamv[i:n]) for i in range(n))
    if fam == "D":
        tail = (lamv[n - 2] + lamv[n - 1]) / 2
        m = [sum(lamv[i:n - 2], tail) for i in range(n - 2)]
        m.append(tail)
        m.append((lamv[n - 2] - lamv[n - 1]) / 2)
        return tuple(m)
    raise UnsupportedCoordinatesError(f"no orthogonal model for {rs.id.label}")


def _orth_basis(rs: RootSystem) -> tuple[Vec, ...]:
    """The omega -> orthogonal map: the fundamental weights, one per row."""
    return tuple(to_orthogonal(rs, [int(i == j) for j in range(rs.rank)]) for i in range(rs.rank))


def _omega_cols(family: str, cols: Sequence) -> list:
    """The omega coordinates <m, alpha_i^check> of orthogonal coordinates
    m of A, B, C or D of any width, given as its columns: numbers, or
    numpy columns of many rows.  m is strictly dominant exactly when every
    one is positive; D_1 has no roots, so no coordinates."""
    diffs = [cols[i] - cols[i + 1] for i in range(len(cols) - 1)]
    if family == "B":
        return diffs + [2 * cols[-1]]
    if family == "C":
        return diffs + [cols[-1]]
    if family == "D" and len(cols) > 1:
        return diffs[:-1] + [cols[-2] + cols[-1], diffs[-1]]
    return diffs


def from_orthogonal(rs: RootSystem, m: Sequence) -> Vec:
    """Inverse of :func:`to_orthogonal` (A_n: modulo the constant-sum gauge)."""
    return tuple(_omega_cols(rs.family, orth_vec(rs, m)))


# -- JSON serialization -------------------------------------------------

def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _vec_str(v) -> str:
    return "(" + ", ".join(map(_frac_str, v)) + ")"


def to_json_dict(rs: RootSystem) -> dict:
    return {
        "diagram": rs.id.label,
        "rank": rs.rank,
        "cartan": [[_frac_str(x) for x in row] for row in rs.cartan],
        "cartan_inv": [[_frac_str(x) for x in row] for row in rs.cartan_inv],
        "metric": [[_frac_str(x) for x in row] for row in rs.metric],
        "root_norms": [_frac_str(x) for x in rs.root_norms],
        "marks": list(rs.marks),
        "comarks": list(rs.comarks),
        "rho": [_frac_str(x) for x in rs.rho],
        "weyl_order": rs.weyl_order,
    }


def to_json(rs: RootSystem, **kw) -> str:
    return json.dumps(to_json_dict(rs), **kw)


def from_json(text: str) -> RootSystem:
    """Rebuild from the serialized diagram label and verify the payload."""
    data = json.loads(text)
    rs = build(data["diagram"])
    if mat(data["cartan"]) != rs.cartan or data["weyl_order"] != rs.weyl_order:
        raise ValueError("serialized root system is inconsistent with its label")
    return rs
